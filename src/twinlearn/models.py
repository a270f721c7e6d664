"""The model-kind table: how each kind of model checks its
hyperparameters, fits, predicts, fits and measures its +1 own plane alone
for one-vs-rest, and is written to a model file.

A new model kind is one ``MODELS`` entry.  Entries call model functions
through their module at call time (``twin_nn.predict(...)``), never a
captured function object, so code that swaps module attributes, such as
a profiler, sees every call.  File schemas are the ``_*_to_dict`` codecs
below plus the ``version`` and ``kind`` fields added by ``serialize``.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import multiclass, twin_nn, twsvm
from .multiclass import MCHyper, MulticlassTwinModel
from .numcore import FIT_ERRORS
from .twin_nn import RfnnHyper, RfnnModel, TanhBank, TwinHyper, TwinNNModel
from .twsvm import KernelSpec, TwsvmHyper, TwsvmModel, TwsvmPlane, TwsvmProblem

__all__ = ["ModelKind", "OwnPlane", "MODELS", "MODEL_KINDS", "BINARY_MODELS", "fit_each",
           "kind_of"]


class OwnPlane(NamedTuple):
    """The +1 class's own plane of a binary kind, fitted alone:
    ``fit(dataset, params, seed)`` on {+1,-1} labels returns the part of the
    full model that the plane needs.  ``scorer(parts)`` takes K such parts,
    one per class, and returns ``(M, score)``: ``score(rows)`` gives the K
    planes' distances (K, n) to a block of rows (n, M), each as its full
    model measures it, so one block loop scores them all.  For the twin
    kinds the part is a plane type (a twin side's ``TanhBank`` of one, a
    ``TwsvmPlane``) and the distance is its own: the K nets score as one
    ``TanhBank``, joined once."""

    fit: Callable
    scorer: Callable


def _side_scorer(sides):
    """``OwnPlane.scorer`` of K twin sides, each a bank of one: their
    distances, scored as one ``TanhBank``."""
    bank = TanhBank.join(sides)
    return bank.n_features, lambda rows: bank.distances(rows)


def _rfnn_scorer(models):
    """``OwnPlane.scorer`` of K rfnn models, scored as one ``TanhBank``.
    An rfnn net has no plane distance: its negated output stands in
    (largest output = nearest)."""
    bank = TanhBank.join([model.bank for model in models])
    return bank.n_features, lambda rows: -bank.planes(rows)[:, 0]


def _twsvm_scorer(planes):
    """``OwnPlane.scorer`` of K twin SVM planes: each builds its own basis,
    since an RBF plane's support is its own fit's training rows."""
    return planes[0].n_features, lambda rows: np.stack(
        [plane._score(plane._basis(rows)) for plane in planes])


@dataclass(frozen=True)
class ModelKind:
    """``check`` is the kind's frozen hyperparameter type, whose
    ``check(**params)`` raises ValueError naming a bad field, and
    ``fit(dataset, params, seed)`` (binary kinds: {+1,-1} labels) trains
    from it; ``predict(model, x)`` raises ShapeError when x has the
    wrong width, by the check its plane type (``TanhBank`` or
    ``TwsvmPlane``) makes; ``own_plane`` fits and measures the +1 class's
    own plane and nothing else, which is all one-vs-rest reads (binary
    kinds only); ``codec`` is the kind saved in files."""

    name: str
    task: str  # "binary" or "multiclass"
    model_type: type
    codec: str
    fit: Callable
    check: Callable
    predict: Callable
    own_plane: OwnPlane | None
    to_dict: Callable
    from_dict: Callable
    params: frozenset  # the hyperparameter names fit takes; never "seed"
    shared_fit: Callable | None = None

    def fit_grid(self, ds, points: list, seeds: list) -> list:
        """``fit(ds, params, seed)`` of each grid point and its seed, bit for
        bit, or the ValueError or NumericalError that fit raised, one entry
        per point.  The points are checked by ``check_params``."""
        if self.shared_fit is not None:
            return self.shared_fit(ds, points, seeds)
        return fit_each(self.fit, ds, points, seeds)

    def check_params(self, params: dict) -> None:
        """ValueError unless every name in ``params`` (name -> a value or a
        list of candidate values) is a hyperparameter of this kind and the
        kind's hyperparameter type takes every combination of values."""
        unknown = sorted(set(params) - self.params)
        if unknown:
            raise ValueError(f"{self.name} takes no hyperparameter {unknown}; "
                             f"choose from {sorted(self.params)}")
        candidates = {name: value if isinstance(value, (list, tuple)) else [value]
                      for name, value in sorted(params.items())}
        for point in itertools.product(*candidates.values()):
            self.check(**dict(zip(candidates, point)))


def fit_each(fit: Callable, ds, points: list, seeds: list) -> list:
    """``fit(ds, params, seed)`` of each point and seed, or the ValueError or
    NumericalError it raised: ``ModelKind.fit_grid`` one point at a time."""
    out = []
    for params, seed in zip(points, seeds, strict=True):
        try:
            out.append(fit(ds, params, seed))
        except FIT_ERRORS as exc:
            out.append(exc)
    return out


def _names(source: type, *excluded: str) -> frozenset:
    """Field names of a dataclass, less ``excluded``; the seed always comes
    from the run, never the grid."""
    return frozenset(f.name for f in fields(source)) - {"seed", *excluded}


def _finite_array(value, name: str, ndim: int) -> np.ndarray:
    """The one reader of a file's parameter arrays: ``value`` as float64,
    or ValueError naming ``name`` unless it is a non-empty ``ndim``-D array
    (a number for 0) of finite numbers, none of them a string, a bool or
    null, which numpy would convert."""
    a = np.asarray(value, dtype=object)
    numeric = all(issubclass(t, numbers.Real) and t is not bool for t in set(map(type, a.flat)))
    a = a.astype(np.float64) if numeric else np.full(a.shape, np.nan)
    if a.ndim != ndim or 0 in a.shape or not np.isfinite(a).all():
        raise ValueError(f"{name} must be " + ("a finite number" if ndim == 0 else
                                               f"a non-empty {ndim}-D array of finite numbers"))
    return a


def _net_arrays(bank: TanhBank):
    """Each net of a bank, in order, as the arrays a file stores for it:
    (W (h, M), c (h,), plane W (p, h), plane b (p,))."""
    k = len(bank.plane_weights)
    return zip(np.split(bank.weights, k), np.split(bank.biases[:, 0], k), bank.plane_weights,
               bank.plane_biases[:, :, 0])


def _net_to_dict(w, c, pw, pb) -> dict:
    """A one-plane net (a twin side, rfnn) under its file keys."""
    return {"hidden_w": w.tolist(), "hidden_b": c.tolist(), "w": pw[0].tolist(),
            "b": float(pb[0])}


def _net_from_dict(d: dict) -> TanhBank:
    """A one-plane net read from its file keys, as a bank of one."""
    return TanhBank(_finite_array(d["hidden_w"], "hidden_w", 2),
                    _finite_array(d["hidden_b"], "hidden_b", 1),
                    _finite_array(d["w"], "w", 1)[None, None],
                    _finite_array(d["b"], "b", 0)[None, None])


def _check_sizes(bank: TanhBank, **sizes) -> None:
    """ValueError unless each size that a file gives for its bank of nets
    (field name -> value) is that of their weights, as ``have`` names them."""
    k, p, h = bank.plane_weights.shape
    have = {"K": k, "M": bank.n_features, "h": h, "hidden": h, "n": h,
            "subnet_features": h, "p": p, "planes": p}
    for name, value in sizes.items():
        if value != have[name]:
            raise ValueError(f"{name} is {value!r} but the weights have {have[name]}")


def _twin_to_dict(model: TwinNNModel) -> dict:
    plus, minus = _net_arrays(model.bank)
    return {
        "M": model.bank.n_features,
        "h": model.hyper.hidden,
        "hyper": asdict(model.hyper),
        "plus": _net_to_dict(*plus),
        "minus": _net_to_dict(*minus),
    }


def _twin_from_dict(d: dict) -> TwinNNModel:
    model = TwinNNModel(TanhBank.join([_net_from_dict(d["plus"]), _net_from_dict(d["minus"])]),
                        TwinHyper(**d["hyper"]))
    _check_sizes(model.bank, M=d["M"], h=d["h"], hidden=model.hyper.hidden)
    return model


def _rfnn_to_dict(model: RfnnModel) -> dict:
    (net,) = _net_arrays(model.bank)
    return {
        "M": model.bank.n_features,
        "h": model.hyper.hidden,
        "hyper": {name: getattr(model.hyper, name) for name in ("l2", "lr", "epochs", "seed")},
        **_net_to_dict(*net),
    }


def _rfnn_from_dict(d: dict) -> RfnnModel:
    model = RfnnModel(_net_from_dict(d), RfnnHyper(hidden=d["h"], **d["hyper"]))
    _check_sizes(model.bank, M=d["M"], h=d["h"])
    return model


def _mc_to_dict(model: MulticlassTwinModel) -> dict:
    return {
        "K": len(model.class_ids),
        "M": model.bank.n_features,
        "n": model.hyper.subnet_features,
        "p": model.hyper.planes,
        "hyper": asdict(model.hyper),
        "banks": [
            {
                "class_id": int(class_id),
                "subnet_w": w.tolist(),
                "subnet_b": c.tolist(),
                "planes": [{"w": w.tolist(), "b": float(b)} for w, b in zip(pw, pb)],
            }
            for class_id, (w, c, pw, pb) in zip(model.class_ids, _net_arrays(model.bank))
        ],
    }


def _mc_from_dict(d: dict) -> MulticlassTwinModel:
    nets = [TanhBank(_finite_array(net["subnet_w"], "subnet_w", 2),
                     _finite_array(net["subnet_b"], "subnet_b", 1),
                     _finite_array([plane["w"] for plane in net["planes"]], "plane w", 2)[None],
                     _finite_array([plane["b"] for plane in net["planes"]], "plane b", 1)[None])
            for net in d["banks"]]
    class_ids = [net["class_id"] for net in d["banks"]]
    for class_id in class_ids:
        # numpy would read true as 1
        if not isinstance(class_id, int) or isinstance(class_id, bool):
            raise ValueError(f"class_id must be an integer, got {class_id!r}")
    model = MulticlassTwinModel(class_ids, TanhBank.join(nets), MCHyper(**d["hyper"]))
    _check_sizes(model.bank, K=d["K"], M=d["M"], n=d["n"], p=d["p"],
                 subnet_features=model.hyper.subnet_features, planes=model.hyper.planes)
    return model


def _twsvm_to_dict(model: TwsvmModel) -> dict:
    return {
        "M": model.plus.n_features,
        "u": model.plus.u.tolist(),
        "v": model.minus.u.tolist(),
        "alpha": model.alpha.tolist(),
        "beta": model.beta.tolist(),
        "kernel": {"kind": model.plus.kernel.kind, "gamma": model.plus.kernel.gamma},
        "ridge_alpha": model.ridge_alpha,
        "ridge_beta": model.ridge_beta,
        "support": None if model.plus.support is None else model.plus.support.tolist(),
    }


def _twsvm_from_dict(d: dict) -> TwsvmModel:
    """The saved plane pair, checked so that it can always predict: u and v
    cover the M weights (linear) or the (n, M) support rows (RBF) plus a
    bias, and both plane norms are finite and non-zero."""
    kernel = KernelSpec(d["kernel"]["kind"], d["kernel"]["gamma"])
    u, v, alpha, beta = (_finite_array(d[key], key, 1) for key in ("u", "v", "alpha", "beta"))
    if kernel.kind == "linear":
        if d["support"] is not None:
            raise ValueError("a linear twin SVM has no support rows")
        support, width = None, d["M"]
    else:
        support = _finite_array(d["support"], "support", 2)
        if support.shape[1] != d["M"]:
            raise ValueError(f"M is {d['M']!r} but the support rows have "
                             f"{support.shape[1]} features")
        width = support.shape[0]
    if u.shape != (width + 1,) or v.shape != (width + 1,):
        raise ValueError(f"u and v must have {width + 1} entries, "
                         f"got {u.size} and {v.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = None if support is None else twsvm.kernel_matrix(kernel, support, support)
        plus, minus = (TwsvmPlane(w, kernel, support, gram) for w in (u, v))
    if not all(np.isfinite(plane.norm) and plane.norm > 0 for plane in (plus, minus)):
        raise ValueError("a plane has a zero or non-finite norm; distances are undefined")
    ridges = [float(_finite_array(d[key], key, 0)) for key in ("ridge_alpha", "ridge_beta")]
    if min(ridges) < 0:
        raise ValueError(f"ridge_alpha and ridge_beta must be >= 0, got {ridges}")
    return TwsvmModel(plus, minus, alpha, beta, *ridges)


def _twsvm_problem(kernel: str, rows, params: dict) -> TwsvmProblem:
    """The problem of one grid point over ``twin_nn.class_rows`` rows."""
    hyper = TwsvmHyper(**params)
    spec = KernelSpec(kernel, hyper.gamma if kernel == "rbf" else None)
    return TwsvmProblem(*rows, hyper.c1, hyper.c2, spec, hyper.ridge)


def _twsvm_grid(kernel: str, ds, points: list) -> list:
    """``ModelKind.fit_grid`` of a twin SVM kind: every point's problem over
    one pair of row arrays, solved by ``twsvm.solve_grid``.  The points
    share those rows and their values are checked, so a dataset that makes
    no problem fails every point alike."""
    try:
        rows = twin_nn.class_rows(ds)
        problems = [_twsvm_problem(kernel, rows, params) for params in points]
    except FIT_ERRORS as exc:
        return [exc] * len(points)
    return twsvm.solve_grid(problems)


def _twsvm_kind(name: str, kernel: str) -> ModelKind:
    # both kernels share one codec: the kernel is part of the saved model
    return ModelKind(
        name, "binary", TwsvmModel, "twsvm",
        fit=lambda ds, params, seed: twsvm.solve_dual(
            _twsvm_problem(kernel, twin_nn.class_rows(ds), params)),
        check=TwsvmHyper,
        predict=lambda model, x: twsvm.twsvm_predict(model, x),
        own_plane=OwnPlane(
            lambda ds, params, seed: twsvm.solve_plus(
                _twsvm_problem(kernel, twin_nn.class_rows(ds), params)),
            _twsvm_scorer),
        to_dict=_twsvm_to_dict, from_dict=_twsvm_from_dict,
        params=_names(TwsvmHyper, *(() if kernel == "rbf" else ("gamma",))),
        # a twin SVM fit draws no seed
        shared_fit=lambda ds, points, seeds: _twsvm_grid(kernel, ds, points),
    )


def _fit_rfnn(ds, params: dict, seed: int) -> RfnnModel:
    return twin_nn.train_rfnn_baseline(ds, seed=seed, **params)


MODELS: dict[str, ModelKind] = {kind.name: kind for kind in (
    ModelKind(
        "twin_nn", "binary", TwinNNModel, "twin_nn",
        fit=lambda ds, params, seed: twin_nn.train(ds, TwinHyper(seed=seed, **params)),
        check=TwinHyper,
        predict=lambda model, x: twin_nn.predict(model, x),
        # the plus side's net alone; TwinHyper still checks c_minus
        own_plane=OwnPlane(
            lambda ds, params, seed: twin_nn.train_side(ds, TwinHyper(seed=seed, **params),
                                                        "plus"),
            _side_scorer),
        to_dict=_twin_to_dict, from_dict=_twin_from_dict,
        params=_names(TwinHyper),
    ),
    ModelKind(
        "rfnn", "binary", RfnnModel, "rfnn",
        fit=_fit_rfnn,
        check=RfnnHyper,
        predict=lambda model, x: twin_nn.rfnn_predict(model, x),
        # one net, so the whole model
        own_plane=OwnPlane(_fit_rfnn, _rfnn_scorer),
        to_dict=_rfnn_to_dict, from_dict=_rfnn_from_dict,
        params=_names(RfnnHyper),
    ),
    _twsvm_kind("twsvm_linear", "linear"),
    _twsvm_kind("twsvm_rbf", "rbf"),
    ModelKind(
        "twin_nn_mc", "multiclass", MulticlassTwinModel, "twin_nn_mc",
        fit=lambda ds, params, seed: multiclass.mc_train(ds, MCHyper(seed=seed, **params)),
        check=MCHyper,
        predict=lambda model, x: multiclass.mc_predict(model, x),
        own_plane=None,
        to_dict=_mc_to_dict, from_dict=_mc_from_dict,
        params=_names(MCHyper),
    ),
)}

MODEL_KINDS = tuple(MODELS)
BINARY_MODELS = tuple(name for name, kind in MODELS.items() if kind.task == "binary")


def kind_of(model) -> ModelKind:
    """The table entry for a trained model (the first one of its type)."""
    for kind in MODELS.values():
        if type(model) is kind.model_type:
            return kind
    raise TypeError(f"cannot serialize {type(model).__name__}")
