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
from .multiclass import ClassBank, MCHyper, MulticlassTwinModel
from .twin_nn import HeadParams, HiddenLayer, RfnnModel, SideNet, TwinHyper, TwinNNModel
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


def _side_to_dict(side: SideNet) -> dict:
    return {
        "hidden_w": side.hidden.weights.tolist(),
        "hidden_b": side.hidden.biases.tolist(),
        "w": side.head.w.tolist(),
        "b": side.head.b,
    }


def _side_from_dict(d: dict) -> SideNet:
    return SideNet(
        HiddenLayer(np.asarray(d["hidden_w"]), np.asarray(d["hidden_b"])),
        HeadParams(np.asarray(d["w"]), d["b"]),
    )


def _twin_to_dict(model: TwinNNModel) -> dict:
    return {
        "M": model.n_features,
        "h": model.hyper.hidden,
        "hyper": asdict(model.hyper),
        "plus": _side_to_dict(model.plus),
        "minus": _side_to_dict(model.minus),
    }


def _twin_from_dict(d: dict) -> TwinNNModel:
    return TwinNNModel(
        plus=_side_from_dict(d["plus"]),
        minus=_side_from_dict(d["minus"]),
        hyper=TwinHyper(**d["hyper"]),
        n_features=d["M"],
    )


def _rfnn_to_dict(model: RfnnModel) -> dict:
    return {
        "M": model.n_features,
        "h": model.hidden.width,
        "hyper": {"l2": model.l2, "lr": model.lr,
                  "epochs": model.epochs, "seed": model.seed},
        "hidden_w": model.hidden.weights.tolist(),
        "hidden_b": model.hidden.biases.tolist(),
        "w": model.w.tolist(),
        "b": model.b,
    }


def _rfnn_from_dict(d: dict) -> RfnnModel:
    return RfnnModel(
        HiddenLayer(np.asarray(d["hidden_w"]), np.asarray(d["hidden_b"])),
        np.asarray(d["w"]), d["b"], **d["hyper"],
    )


def _mc_to_dict(model: MulticlassTwinModel) -> dict:
    return {
        "K": len(model.banks),
        "M": model.n_features,
        "n": model.hyper.subnet_features,
        "p": model.hyper.planes,
        "hyper": asdict(model.hyper),
        "banks": [
            {
                "class_id": bank.class_id,
                "subnet_w": bank.subnet.weights.tolist(),
                "subnet_b": bank.subnet.biases.tolist(),
                "planes": [{"w": w.tolist(), "b": float(b)}
                           for w, b in zip(bank.plane_weights, bank.plane_biases)],
            }
            for bank in model.banks
        ],
    }


def _mc_from_dict(d: dict) -> MulticlassTwinModel:
    banks = tuple(
        ClassBank(
            bank["class_id"],
            HiddenLayer(np.asarray(bank["subnet_w"]), np.asarray(bank["subnet_b"])),
            np.asarray([plane["w"] for plane in bank["planes"]]),
            np.asarray([plane["b"] for plane in bank["planes"]]),
        )
        for bank in d["banks"]
    )
    return MulticlassTwinModel(banks, MCHyper(**d["hyper"]), d["M"])


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
