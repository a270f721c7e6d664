"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime bound is asserted, not just reported.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import (
    central_difference,
    flatten_nets,
    gaussian_blobs,
    max_relative_error,
    params_from_flat,
)
from twinlearn.cli import main
from twinlearn.data import load_csv, save_csv
from twinlearn.evalstats import (
    ConfusionMatrix,
    friedman,
    metrics,
    wilcoxon_signed_ranks,
)
from twinlearn.harness import ExperimentSpec, run_experiment
from twinlearn.multiclass import (
    MCHyper,
    mc_distances,
    mc_predict,
    mc_train,
)
from twinlearn.twin_nn import _design, side_objective
from twinlearn.twsvm import (
    TwsvmProblem,
    box_kkt_residual,
    dual_matrices,
    dual_objective,
    solve_dual,
)


def report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


def test_criterion_1_gradient_fidelity():
    with Timer() as timer:
        rng = np.random.default_rng(1001)
        worst_binary = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 5))
            h = int(rng.integers(1, 6))
            n_a = int(rng.integers(1, 7))
            n_b = int(rng.integers(1, 13 - n_a))
            a = rng.standard_normal((n_a, m))
            b = rng.standard_normal((n_b, m))
            c = float(rng.uniform(0.0, 2.0))
            vec = rng.standard_normal(h * m + 2 * h + 1) * 0.8
            # the positive side (margin over B, target -1) or the negative one
            own, other, target = (a, b, -1.0) if rng.random() < 0.5 else (b, a, 1.0)
            design = _design(other, own)
            g = side_objective(params_from_flat(vec, h, m), design, len(other), c, target)[1]
            fd = central_difference(
                lambda v: side_objective(params_from_flat(v, h, m), design, len(other), c,
                                         target)[0],
                vec)
            worst_binary = max(worst_binary, max_relative_error(flatten_nets(g), fd))
        assert worst_binary <= 1e-5

        from test_multiclass import (
            model_from_flat,
            model_objective,
            params_of,
            resample_until_clear_of_ties,
        )

        worst_mc = 0.0
        for trial in range(50):
            sub_rng = np.random.default_rng(2000 + trial)
            model, x, y = resample_until_clear_of_ties(sub_rng, [0, 1, 2])
            grads = model_objective(model, x, y)[1]
            fd = central_difference(
                lambda vec: model_objective(model_from_flat(model, vec), x, y)[0],
                flatten_nets(params_of(model)), eps=1e-6)
            worst_mc = max(worst_mc, max_relative_error(flatten_nets(grads), fd, floor=1e-6))
        assert worst_mc <= 1e-5
    assert timer.seconds < 10.0
    report(1, f"binary max rel err {worst_binary:.2e}, multiclass "
              f"{worst_mc:.2e}, {timer.seconds:.1f}s")


def test_criterion_2_twsvm_dual_correctness():
    with Timer() as timer:
        rng = np.random.default_rng(77)
        # grid enumeration over the alpha box on instances with N_B <= 3
        worst_gap = 0.0
        for _ in range(5):
            a = rng.standard_normal((6, 2)) + [1.5, 0.0]
            b = rng.standard_normal((3, 2)) - [1.5, 0.0]
            problem = TwsvmProblem(a, b, c1=0.05, c2=0.05, ridge=1e-6)
            model = solve_dual(problem)
            m_alpha, _ = dual_matrices(problem)
            axis = np.arange(0.0, 0.05 + 1e-12, 1e-3)
            pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                           axis=-1).reshape(-1, 3)
            grid_best = float(np.max(
                pts.sum(axis=1)
                - 0.5 * np.einsum("ij,jk,ik->i", pts, m_alpha, pts)))
            gap = abs(dual_objective(m_alpha, model.alpha) - grid_best)
            worst_gap = max(worst_gap, gap)
        assert worst_gap <= 1e-5

        worst_kkt = 0.0
        for _ in range(20):
            # both classes carry at least M+1 rows so the inverted Grams
            # are well conditioned
            n_a = int(rng.integers(4, 9))
            n_b = int(rng.integers(4, 7))
            a = rng.standard_normal((n_a, 3)) + [1.5, 0.0, 0.0]
            b = rng.standard_normal((n_b, 3)) - [1.5, 0.0, 0.0]
            c1 = float(rng.uniform(0.1, 2.0))
            c2 = float(rng.uniform(0.1, 2.0))
            problem = TwsvmProblem(a, b, c1=c1, c2=c2, ridge=1e-6)
            model = solve_dual(problem)
            m_alpha, m_beta = dual_matrices(problem)
            worst_kkt = max(worst_kkt,
                            box_kkt_residual(m_alpha, model.alpha, c1),
                            box_kkt_residual(m_beta, model.beta, c2))
        assert worst_kkt <= 1e-6
    assert timer.seconds < 30.0
    report(2, f"grid gap {worst_gap:.2e}, KKT residual {worst_kkt:.2e}, "
              f"{timer.seconds:.1f}s")


def test_criterion_3_class_size_insensitivity():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(20):
        n_a = int(rng.integers(3, 8))
        n_b = int(rng.integers(3, 6))
        a = rng.standard_normal((n_a, 2)) + [1.2, 0.0]
        b = rng.standard_normal((n_b, 2)) - [1.2, 0.0]
        c1 = float(rng.uniform(0.2, 1.5))
        model = solve_dual(TwsvmProblem(a, b, c1=c1, c2=0.7, ridge=1e-6))
        doubled = solve_dual(TwsvmProblem(a, np.vstack([b, b]), c1=c1 / 2.0,
                                          c2=0.7, ridge=1e-6))
        worst = max(worst, float(np.max(np.abs(model.plus.u - doubled.plus.u))))
    assert worst <= 1e-6
    report(3, f"max |u - u_doubled| = {worst:.2e} over 20 instances")


def test_criterion_4_metric_formulas():
    with Timer() as timer:
        rng = np.random.default_rng(44)
        counts = rng.integers(0, 200, size=(100_000, 4))
        counts[counts.sum(axis=1) == 0] += 1
        for tp, tn, fp, fn in counts:
            cm = ConfusionMatrix(int(tp), int(tn), int(fp), int(fn))
            r = metrics(cm)
            if r.tpr is not None and r.tnr is not None:
                assert abs(r.gmeans**2 - r.tpr * r.tnr) <= 1e-12
            else:
                assert r.gmeans == 0.0
            if r.fmeasure is not None:
                assert abs(r.fmeasure
                           - 2 * r.tpr * r.ppv / (r.tpr + r.ppv)) <= 1e-12
            assert -1.0 <= r.mcc <= 1.0
            if cm.positives * cm.negatives * cm.predicted_positives \
                    * cm.predicted_negatives == 0:
                assert r.mcc == 0.0
        # the three tagged examples
        perfect = metrics(ConfusionMatrix(50, 50, 0, 0))
        assert (perfect.acc, perfect.gmeans, perfect.fmeasure, perfect.mcc) \
            == (1.0, 1.0, 1.0, 1.0)
        degenerate = metrics(ConfusionMatrix(0, 90, 0, 10))
        assert degenerate.gmeans == 0.0 and degenerate.mcc == 0.0
        hand = metrics(ConfusionMatrix(tp=3, fp=1, fn=2, tn=4))
        assert abs(hand.mcc - 10.0 / math.sqrt(600.0)) <= 1e-15
    assert timer.seconds < 5.0
    report(4, f"1e5 random matrices + tagged examples, {timer.seconds:.1f}s")


def test_criterion_5_wilcoxon_friedman():
    from test_evalstats import exact_wilcoxon_by_enumeration

    rng = np.random.default_rng(55)
    worst = 0.0
    for n in (5, 8, 11, 15):
        for _ in range(5):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            if np.count_nonzero(a - b) < 5:
                continue
            w_impl, p_impl = wilcoxon_signed_ranks(a, b)
            w_oracle, p_oracle = exact_wilcoxon_by_enumeration(a, b)
            assert abs(w_impl - w_oracle) <= 1e-12
            worst = max(worst, abs(p_impl - p_oracle))
    assert worst <= 1e-12

    _, p = wilcoxon_signed_ranks(np.arange(1.0, 7.0), np.zeros(6))
    assert p == 0.03125

    chi2, p_f = friedman(np.tile([[0.3], [0.5], [0.9]], (1, 4)))
    assert chi2 == 0.0 and p_f == 1.0
    report(5, f"enumeration agreement {worst:.1e}, n=6 p=0.03125, "
              "identical-columns Friedman p=1")


def test_criterion_6_imbalanced_benchmark(tmp_path):
    with Timer() as timer:
        ds = gaussian_blobs([(1.5, 0.0), (-1.5, 0.0)], [50, 1000], std=1.0,
                            seed=42, labels=[1, -1])
        path = str(tmp_path / "imbalanced.csv")
        save_csv(ds, path)
        budget = {"hidden": [8], "lr": [0.1], "epochs": [300]}
        common = dict(data_path=path, folds=5, repeats=1, seed=17)
        twin = run_experiment(ExperimentSpec(model="twin_nn", grid=budget,
                                             **common))
        rfnn = run_experiment(ExperimentSpec(model="rfnn", grid=budget,
                                             **common))

        def value(result, name):
            agg = result.aggregates[name]
            # undefined aggregates correspond to the tables' 0 entries
            return agg["mean"] if agg["n"] > 0 else 0.0

        twin_gmeans = value(twin, "gmeans")
        assert twin_gmeans >= 0.85
        for name in ("gmeans", "fmeasure", "mcc"):
            assert value(twin, name) > value(rfnn, name)
    assert timer.seconds < 60.0
    report(6, f"twin G-means {twin_gmeans:.3f} >= 0.85 and beats rfnn on "
              f"gmeans/fmeasure/mcc, {timer.seconds:.1f}s")


HABERMAN_PATHS = [
    os.path.join(os.path.dirname(__file__), "..", "datasets", "haberman.data"),
    os.environ.get("TWINLEARN_HABERMAN", ""),
]


def _find_haberman():
    for path in HABERMAN_PATHS:
        if path and os.path.exists(path):
            return path
    return None


@pytest.mark.skipif(_find_haberman() is None,
                    reason="haberman.data not present (optional reproduction)")
def test_criterion_7_haberman_reproduction(tmp_path):
    with Timer() as timer:
        raw = _find_haberman()
        ds = load_csv(raw, label_column=-1, has_header=False)
        assert ds.n_samples == 306 and ds.n_features == 3
        path = str(tmp_path / "haberman.csv")
        save_csv(ds, path)
        spec = ExperimentSpec(
            data_path=path, model="twin_nn",
            grid={"hidden": [4, 8], "c_plus": [0.5, 1.0], "c_minus": [0.5, 1.0],
                  "lr": [0.05], "epochs": [300]},
            folds=5, repeats=10, seed=29,
        )
        result = run_experiment(spec)
        acc = result.aggregates["acc"]["mean"] * 100.0
        # paper band 76.11 +- 4.54, widened by 2 points for protocol ambiguity
        assert 76.11 - 4.54 - 2.0 <= acc <= 76.11 + 4.54 + 2.0
    assert timer.seconds < 120.0
    report(7, f"haberman accuracy {acc:.2f} within band, {timer.seconds:.1f}s")


def test_criterion_8_multiclass_sanity():
    ds = gaussian_blobs([(3, 0), (-3, 0), (0, 3)], [60, 60, 60], std=0.7,
                        seed=88)
    rng = np.random.default_rng(89)
    order = rng.permutation(ds.n_samples)
    train_ds = ds.rows(order[:135])
    test_ds = ds.rows(order[135:])
    model = mc_train(train_ds, MCHyper(subnet_features=6, planes=2, lr=0.1,
                                       epochs=600, seed=90))
    preds = mc_predict(model, test_ds.features)
    acc = float(np.mean(preds == test_ds.labels))
    assert acc >= 0.95
    distances = mc_distances(model, test_ds.features)
    oracle = model.class_ids[np.argmin(distances, axis=1)]
    np.testing.assert_array_equal(preds, oracle)
    report(8, f"3-class accuracy {acc:.3f} >= 0.95; argmin oracle exact on "
              f"all {test_ds.n_samples} test points")


def test_criterion_9_reproducibility(tmp_path):
    ds = gaussian_blobs([(2.0, 0.0), (-2.0, 0.0)], [20, 40], std=0.9, seed=91,
                        labels=[1, -1])
    data = str(tmp_path / "blobs.csv")
    save_csv(ds, data)
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    argv = ["cv", "--data", data, "--model", "twin_nn", "--grid", "hidden=4",
            "--grid", "epochs=120", "--folds", "2", "--repeats", "2",
            "--seed", "99"]
    assert main(argv + ["--out", out1]) == 0
    assert main(argv + ["--out", out2]) == 0
    bytes1 = open(out1, "rb").read()
    bytes2 = open(out2, "rb").read()
    assert bytes1 == bytes2
    report(9, f"cv result JSON byte-identical across runs ({len(bytes1)} bytes)")
