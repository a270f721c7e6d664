"""Command-line front end.

Subcommands: train, predict, cv, bench, impute, gen-imbalance, compare.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .data import DataError, _csv_rows, knn_impute, load_csv, make_imbalanced, save_csv
from .harness import (
    ExperimentSpec,
    MODEL_KINDS,
    compare_algorithms,
    fit_model,
    format_result_table,
    load_dataset,
    run_experiment,
    run_onevsrest,
)
from .models import MODELS, kind_of
from .numcore import NumericalError, ShapeError
from .serialize import load_model, save_model

__all__ = ["main", "entrypoint"]


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


def _parse_number(token: str):
    try:
        value = float(token)
    except ValueError:
        raise UsageError(f"cannot parse {token!r} as a number") from None
    if not np.isfinite(value):
        raise UsageError(f"grid value {token!r} is not a finite number")
    return int(value) if value == int(value) else value


def _parse_grid(entries: list[str] | None, allow_prefix: bool = False) -> dict:
    """Parse repeated ``key=v1,v2,...`` flags; with ``allow_prefix`` (bench)
    every key is ``model:key`` and the result maps each model to its grid.
    A key given twice (per model, in bench) is a usage error."""
    grid: dict = {}
    for entry in entries or []:
        if "=" not in entry:
            raise UsageError(f"--grid entry {entry!r} is not of the form key=v1,v2,...")
        key, _, values = entry.partition("=")
        key = key.strip()
        if not key or not values:
            raise UsageError(f"--grid entry {entry!r} is not of the form key=v1,v2,...")
        parsed = [_parse_number(tok) for tok in values.split(",") if tok.strip()]
        if not parsed:
            raise UsageError(f"--grid entry {entry!r} has no values")
        target = grid
        if allow_prefix:
            model, colon, key = key.partition(":")
            if not colon:
                raise UsageError(f"bench --grid entry {entry!r} needs a model prefix; "
                                 f"use model:key=v1,v2")
            target, key = grid.setdefault(model.strip(), {}), key.strip()
        elif ":" in key:
            raise UsageError(f"model-prefixed grid key {key!r} is only valid in bench")
        if key in target:
            raise UsageError(f"--grid entry {entry!r} repeats a key given before")
        target[key] = parsed
    return grid


def _single_values(grid: dict) -> dict:
    out = {}
    for key, values in grid.items():
        if len(values) != 1:
            raise UsageError(f"train takes a single value per hyperparameter, "
                             f"got {key}={values}")
        out[key] = values[0]
    return out


def _positive_class(value: str | None) -> int | None:
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"--positive-class must be an integer class id, got {value!r}") from None


def _write_or_print(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_train(args) -> int:
    if not args.out:
        raise UsageError("train requires --out for the model file")
    params = _single_values(_parse_grid(args.grid))
    MODELS[args.model].check_params(params)
    positive = _positive_class(args.positive_class)
    dataset = load_dataset(args.data, args.format, args.label_column)
    model = fit_model(args.model, dataset, params, args.seed, positive)
    save_model(model, args.out)
    print(f"saved {args.model} model to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model_file)
    dataset = load_dataset(args.data, args.format, args.label_column)
    if dataset.missing is not None:
        raise DataError("prediction input has missing values; run impute first")
    labels = kind_of(model).predict(model, dataset.features)
    text = "\n".join(str(int(v)) for v in np.atleast_1d(labels)) + "\n"
    _write_or_print(text, args.out)
    return 0


def _spec(args, model: str, grid: dict) -> ExperimentSpec:
    return ExperimentSpec(
        data_path=args.data, data_format=args.format, model=model, grid=grid,
        folds=args.folds, repeats=args.repeats, seed=args.seed,
        positive_class=_positive_class(args.positive_class),
        label_column=args.label_column, knn_k=args.knn_k,
    )


def _cmd_cv(args) -> int:
    runner = run_onevsrest if args.one_vs_rest else run_experiment
    result = runner(_spec(args, args.model, _parse_grid(args.grid)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json())
    print(format_result_table(result))
    return 0


def _cmd_bench(args) -> int:
    models = [m.strip() for m in args.model.split(",") if m.strip()]
    if not models:
        raise UsageError("bench needs at least one model kind")
    if len(set(models)) < len(models):
        raise UsageError(f"bench --model {args.model!r} lists a model kind twice")
    grids = _parse_grid(args.grid, allow_prefix=True)
    stray = [k for k in grids if k not in models]
    if stray:
        raise UsageError(f"grid prefixes {stray} do not name a benched model; "
                         f"use model:key=v1,v2")
    # every spec (and so every model name) is checked before any run starts
    specs = [_spec(args, model, grids.get(model, {})) for model in models]
    results = {spec.model: run_experiment(spec) for spec in specs}
    for model in models:
        print(f"== {model}")
        print(format_result_table(results[model]))
    if args.out:
        payload = {m: r.as_dict() for m, r in results.items()}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def _cmd_impute(args) -> int:
    if not args.out:
        raise UsageError("impute requires --out for the completed CSV")
    if args.knn_k < 1:
        raise UsageError(f"--knn-k must be >= 1, got {args.knn_k}")
    dataset = load_csv(args.data, label_column=args.label_column)
    completed = knn_impute(dataset, args.knn_k)
    save_csv(completed, args.out, named_labels=True)
    n_filled = 0 if dataset.missing is None else int(dataset.missing.sum())
    print(f"imputed {n_filled} cells -> {args.out}")
    return 0


def _cmd_gen_imbalance(args) -> int:
    positive = _positive_class(args.positive_class)
    if positive is None:
        raise UsageError("gen-imbalance requires --positive-class")
    if not args.out:
        raise UsageError("gen-imbalance requires --out for the relabeled CSV")
    dataset = load_dataset(args.data, args.format, args.label_column)
    binary = make_imbalanced(dataset, positive)
    save_csv(binary, args.out)
    counts = binary.class_counts()
    print(f"wrote {args.out}: {counts.get(1, 0)} positive vs {counts.get(-1, 0)} rest")
    return 0


def _load_scores(path) -> tuple[np.ndarray, list[str]]:
    """Scores CSV: header 'dataset,<alg1>,<alg2>,...', one row per dataset."""
    rows = _csv_rows(path)
    if len(rows) < 2:
        raise DataError(f"{path}: expected a header plus at least one data row")
    algorithms = [name.strip() for name in rows[0][1:]]
    if not algorithms:
        raise DataError(f"{path}: header names no algorithm columns")
    for j, name in enumerate(algorithms):
        if not name or name in algorithms[:j]:
            raise DataError(f"{path}: header column {j + 2} names algorithm {name!r}, "
                            "which is empty or named before")
    values = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(algorithms) + 1:
            raise DataError(f"{path}: row {i} has {len(row)} fields, "
                            f"expected {len(algorithms) + 1}")
        try:
            parsed = [float(tok) for tok in row[1:]]
        except ValueError:
            raise DataError(f"{path}: non-numeric score in row {i}") from None
        if not np.isfinite(parsed).all():
            raise DataError(f"{path}: non-finite score in row {i}")
        values.append(parsed)
    return np.asarray(values), algorithms


def _cmd_compare(args) -> int:
    scores, algorithms = _load_scores(args.scores)
    reference = args.reference or algorithms[0]
    if reference not in algorithms:
        raise UsageError(f"--reference {reference!r} not among {algorithms}")
    report = compare_algorithms(scores, algorithms, reference)
    print(report.to_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--format", choices=("csv", "libsvm"), default="csv")
    p.add_argument("--label-column", default="label",
                   help="CSV label column name (default: label)")


def _add_cv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", action="append", metavar="KEY=V1,V2,...",
                   help="hyperparameter grid entry; repeatable")
    p.add_argument("--positive-class", default=None,
                   help="class id relabeled +1 for binary models (default: minority)")
    p.add_argument("--knn-k", type=int, default=5, help="imputation neighbors")
    p.add_argument("--out", default=None, help="output file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinlearn",
        description="Twin network / twin SVM classifiers and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model and save it as JSON")
    _add_data_flags(p)
    p.add_argument("--model", choices=MODEL_KINDS, default="twin_nn")
    p.add_argument("--grid", action="append", metavar="KEY=VALUE",
                   help="hyperparameter assignment; repeatable, single values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--positive-class", default=None)
    p.add_argument("--out", default=None, help="model JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict labels with a saved model")
    _add_data_flags(p)
    p.add_argument("--model-file", required=True, help="model JSON path")
    p.add_argument("--out", default=None, help="write predictions here instead of stdout")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("cv", help="repeated stratified cross validation")
    _add_data_flags(p)
    p.add_argument("--model", choices=MODEL_KINDS, default="twin_nn")
    p.add_argument("--one-vs-rest", action="store_true",
                   help="compose binary models one-vs-rest on a multiclass dataset")
    _add_cv_flags(p)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("bench", help="cross-validate several models on one dataset")
    _add_data_flags(p)
    p.add_argument("--model", required=True,
                   help="comma-separated model kinds, e.g. twin_nn,rfnn")
    _add_cv_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("impute", help="fill missing CSV cells by KNN imputation")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--knn-k", type=int, default=5)
    p.add_argument("--out", default=None, help="completed CSV path")
    p.set_defaults(func=_cmd_impute)

    p = sub.add_parser("gen-imbalance",
                       help="relabel one class +1 and the rest -1")
    _add_data_flags(p)
    p.add_argument("--positive-class", default=None, required=False)
    p.add_argument("--out", default=None, help="relabeled CSV path")
    p.set_defaults(func=_cmd_gen_imbalance)

    p = sub.add_parser("compare", help="significance tests over a score table")
    p.add_argument("--scores", required=True,
                   help="CSV: dataset,<alg1>,<alg2>,... one row per dataset")
    p.add_argument("--reference", default=None,
                   help="reference algorithm (default: first column)")
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ShapeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
