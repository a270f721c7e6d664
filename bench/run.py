"""twinlearn benchmark: one workload per invocation, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Each workload runs in fresh processes, one after the
other, each with one BLAS thread (see README.md).  The last line printed
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(setup_s, wall_s, peak_rss_mb); with ``--trace 1`` the per-layer ones.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("nn_imbalanced", "twsvm_dual", "multiclass_missing", "score_stream")
# fresh processes per untraced run: set-up time is the median over all of
# them, rounds are timed in the first TIMING_PROCESSES
PROCESSES = 9
TIMING_PROCESSES = 3
DEADLINE_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_children(args, work: str) -> list[dict]:
    """Run the workload processes one after the other.

    Untraced, process i < TIMING_PROCESSES times rounds until the rounds
    of processes 0..i add up to (i+1)/TIMING_PROCESSES of --seconds, so a
    workload whose rounds are long may leave the later ones only set-up to
    time; the other processes only set up.  The traced run is one process.
    """
    count = 1 if args.trace else PROCESSES
    deadline = time.monotonic() + DEADLINE_S
    reports, timed = [], 0.0
    for index in range(count):
        if args.trace:
            share = args.seconds
        elif index < TIMING_PROCESSES:
            share = args.seconds * (index + 1) / TIMING_PROCESSES - timed
        else:
            share = 0.0
        out = os.path.join(work, f"process{index}.json")
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(share), "--trace", str(args.trace),
               "--checks", "1" if index == 0 else "0", "--work", work, "--out", out]
        # subprocess.run kills and reaps the child when the timeout expires
        subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        with open(out, encoding="utf-8") as fh:
            reports.append(json.load(fh))
        timed += sum(reports[-1]["rounds"])
    return reports


def _result(args, reports: list[dict], units: dict[str, str]) -> dict:
    """The result line; ``units`` maps every metric BENCHMARK.json lists
    for this kind of run to its unit."""
    problems = [p for r in reports for p in r["problems"]]
    problems += [f"process {i} output {name} differs from process 0"
                 for i, r in enumerate(reports)
                 for name, digest in r["digests"].items() if digest != reports[0]["digests"][name]]
    timed = [r for r in reports if r["rounds"]]
    if args.trace:
        report = reports[0]
        problems += [f"wrapper left installed at {name}" for name in report["leftover_wrappers"]]
        values = dict(report["layers"], **{"trace.overhead_s": report["overhead_s"]})
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "wall_s": statistics.median(w for r in timed for w in r["rounds"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
    if set(values) != set(units):
        problems.append(f"metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="twinlearn benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twinlearn", "__init__.py")):
        print(f"no twinlearn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    # one directory per invocation; kept only when something failed
    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        reports = _run_children(args, work)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark process failed: {exc}; inputs kept in {work}", file=sys.stderr)
        return 1
    result = _result(args, reports, units)
    print(json.dumps(result))
    if not result["correct"]:
        print(f"inputs and outputs kept in {work}", file=sys.stderr)
        return 1
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
