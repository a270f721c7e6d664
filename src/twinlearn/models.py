"""The model-kind table: how each kind of model fits, predicts, measures
own-plane distance and is written to a model file.

A new model kind is one ``MODELS`` entry.  Entries call model functions
through their module at call time (``twin_nn.predict(...)``), never a
captured function object, so code that swaps module attributes, such as
a profiler, sees every call.  File schemas are the ``_*_to_dict`` codecs
below plus the ``version`` and ``kind`` fields added by ``serialize``.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Callable

import numpy as np

from . import multiclass, twin_nn, twsvm
from .multiclass import MCHyper, MulticlassTwinModel
from .twin_nn import RfnnModel, TanhNet, TwinHyper, TwinNNModel
from .twsvm import KernelSpec, TwsvmModel, TwsvmProblem

__all__ = ["ModelKind", "MODELS", "MODEL_KINDS", "BINARY_MODELS", "INT_PARAMS", "kind_of"]


# hyperparameters that count something; fits take them as ints
INT_PARAMS = frozenset({"hidden", "epochs", "subnet_features", "planes"})


@dataclass(frozen=True)
class ModelKind:
    """``fit(dataset, params, seed)`` takes typed hyperparameters (binary
    kinds: {+1,-1} labels); ``distance`` is the +1 class's own-plane
    distance (binary kinds only); ``codec`` is the kind saved in files."""

    name: str
    task: str  # "binary" or "multiclass"
    model_type: type
    codec: str
    fit: Callable
    predict: Callable
    distance: Callable | None
    to_dict: Callable
    from_dict: Callable
    params: frozenset  # the hyperparameter names fit takes; never "seed"

    def check_params(self, params: dict) -> None:
        """ValueError unless every name in ``params`` (name -> a value or a
        list of candidate values) is a hyperparameter of this kind and
        every value of an integer hyperparameter is integral."""
        unknown = sorted(set(params) - self.params)
        if unknown:
            raise ValueError(f"{self.name} takes no hyperparameter {unknown}; "
                             f"choose from {sorted(self.params)}")
        for name in sorted(INT_PARAMS & set(params)):
            values = params[name] if isinstance(params[name], (list, tuple)) else [params[name]]
            for value in values:
                if not float(value).is_integer():
                    raise ValueError(f"{self.name} hyperparameter {name!r} must be "
                                     f"an integer, got {value!r}")


def _names(source, *excluded: str) -> frozenset:
    """Field names of a dataclass or parameter names of a function, less
    ``excluded``; the seed always comes from the run, never the grid."""
    names = ([f.name for f in fields(source)] if isinstance(source, type)
             else list(inspect.signature(source).parameters))
    return frozenset(names) - {"seed", *excluded}


def _net_to_dict(net: TanhNet) -> dict:
    """A one-plane net (a twin side, rfnn) under its file keys."""
    return {
        "hidden_w": net.weights.tolist(),
        "hidden_b": net.biases.tolist(),
        "w": net.plane_weights[0].tolist(),
        "b": float(net.plane_biases[0]),
    }


def _net_from_dict(d: dict) -> TanhNet:
    return TanhNet(d["hidden_w"], d["hidden_b"], [d["w"]], [d["b"]])


def _check_width(n_features, nets) -> None:
    """ValueError unless every net takes the file's ``M`` features."""
    widths = sorted({net.n_features for net in nets})
    if widths != [n_features]:
        raise ValueError(f"M is {n_features!r} but the weights take {widths} features")


def _twin_to_dict(model: TwinNNModel) -> dict:
    return {
        "M": model.n_features,
        "h": model.hyper.hidden,
        "hyper": asdict(model.hyper),
        "plus": _net_to_dict(model.plus),
        "minus": _net_to_dict(model.minus),
    }


def _twin_from_dict(d: dict) -> TwinNNModel:
    plus, minus = _net_from_dict(d["plus"]), _net_from_dict(d["minus"])
    _check_width(d["M"], (plus, minus))
    return TwinNNModel(plus, minus, TwinHyper(**d["hyper"]), d["M"])


def _rfnn_to_dict(model: RfnnModel) -> dict:
    return {
        "M": model.n_features,
        "h": model.net.weights.shape[0],
        "hyper": {"l2": model.l2, "lr": model.lr,
                  "epochs": model.epochs, "seed": model.seed},
        **_net_to_dict(model.net),
    }


def _rfnn_from_dict(d: dict) -> RfnnModel:
    net = _net_from_dict(d)
    _check_width(d["M"], (net,))
    return RfnnModel(net, **d["hyper"])


def _mc_to_dict(model: MulticlassTwinModel) -> dict:
    return {
        "K": len(model.banks),
        "M": model.n_features,
        "n": model.hyper.subnet_features,
        "p": model.hyper.planes,
        "hyper": asdict(model.hyper),
        "banks": [
            {
                "class_id": int(class_id),
                "subnet_w": bank.weights.tolist(),
                "subnet_b": bank.biases.tolist(),
                "planes": [{"w": w.tolist(), "b": float(b)}
                           for w, b in zip(bank.plane_weights, bank.plane_biases)],
            }
            for class_id, bank in zip(model.class_ids, model.banks)
        ],
    }


def _mc_from_dict(d: dict) -> MulticlassTwinModel:
    banks = tuple(
        TanhNet(bank["subnet_w"], bank["subnet_b"],
                [plane["w"] for plane in bank["planes"]],
                [plane["b"] for plane in bank["planes"]])
        for bank in d["banks"]
    )
    _check_width(d["M"], banks)
    return MulticlassTwinModel([bank["class_id"] for bank in d["banks"]], banks,
                               MCHyper(**d["hyper"]), d["M"])


def _twsvm_to_dict(model: TwsvmModel) -> dict:
    return {
        "M": model.n_features,
        "u": model.u.tolist(),
        "v": model.v.tolist(),
        "alpha": model.alpha.tolist(),
        "beta": model.beta.tolist(),
        "kernel": {"kind": model.kernel.kind, "gamma": model.kernel.gamma},
        "ridge_alpha": model.ridge_alpha,
        "ridge_beta": model.ridge_beta,
        "support": None if model.support is None else model.support.tolist(),
    }


def _twsvm_from_dict(d: dict) -> TwsvmModel:
    kernel = KernelSpec(d["kernel"]["kind"], d["kernel"]["gamma"])
    support = None if d["support"] is None else np.asarray(d["support"])
    u = np.asarray(d["u"])
    v = np.asarray(d["v"])
    norm_plus, norm_minus = twsvm.plane_norms(kernel, support, u, v)
    return TwsvmModel(
        u=u, v=v, alpha=np.asarray(d["alpha"]), beta=np.asarray(d["beta"]),
        kernel=kernel, ridge_alpha=d["ridge_alpha"], ridge_beta=d["ridge_beta"],
        n_features=d["M"], support=support,
        norm_plus=norm_plus, norm_minus=norm_minus,
    )


def _fit_twsvm(kernel: str, ds, params: dict, seed: int) -> TwsvmModel:
    a, b = twin_nn.class_rows(ds)
    gamma = params.get("gamma", 1.0) if kernel == "rbf" else None
    problem = TwsvmProblem(
        a, b, c1=params.get("c1", 1.0), c2=params.get("c2", 1.0),
        kernel=KernelSpec(kernel, gamma), ridge=params.get("ridge"),
    )
    return twsvm.solve_dual(problem)


def _twsvm_kind(name: str, kernel: str) -> ModelKind:
    # both kernels share one codec: the kernel is part of the saved model
    return ModelKind(
        name, "binary", TwsvmModel, "twsvm",
        fit=partial(_fit_twsvm, kernel),
        predict=lambda model, x: twsvm.twsvm_predict(model, x),
        distance=lambda model, x: twsvm.twsvm_distances(model, x)[0],
        to_dict=_twsvm_to_dict, from_dict=_twsvm_from_dict,
        params=_names(TwsvmProblem, "a", "b", "kernel")
        | (_names(KernelSpec, "kind") if kernel == "rbf" else frozenset()),
    )


MODELS: dict[str, ModelKind] = {kind.name: kind for kind in (
    ModelKind(
        "twin_nn", "binary", TwinNNModel, "twin_nn",
        fit=lambda ds, params, seed: twin_nn.train(ds, TwinHyper(seed=seed, **params)),
        predict=lambda model, x: twin_nn.predict(model, x),
        distance=lambda model, x: twin_nn.decision_values(model, x)[0],
        to_dict=_twin_to_dict, from_dict=_twin_from_dict,
        params=_names(TwinHyper),
    ),
    ModelKind(
        "rfnn", "binary", RfnnModel, "rfnn",
        fit=lambda ds, params, seed: twin_nn.train_rfnn_baseline(ds, seed=seed, **params),
        predict=lambda model, x: twin_nn.rfnn_predict(model, x),
        # no plane: the negated output stands in (largest output = nearest)
        distance=lambda model, x: -twin_nn.rfnn_decision(model, x),
        to_dict=_rfnn_to_dict, from_dict=_rfnn_from_dict,
        params=_names(twin_nn.train_rfnn_baseline, "data"),
    ),
    _twsvm_kind("twsvm_linear", "linear"),
    _twsvm_kind("twsvm_rbf", "rbf"),
    ModelKind(
        "twin_nn_mc", "multiclass", MulticlassTwinModel, "twin_nn_mc",
        fit=lambda ds, params, seed: multiclass.mc_train(ds, MCHyper(seed=seed, **params)),
        predict=lambda model, x: multiclass.mc_predict(model, x),
        distance=None,
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
