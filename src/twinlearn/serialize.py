"""Versioned JSON serialization for every trained model kind.

Floats are emitted with Python's shortest round-trip repr, so a dump and
reload reproduces parameters bit for bit.  A file keeps what prediction
needs, and a twin SVM file also its duals and their ridges, so that they
can be checked; training losses are dropped and plane norms rebuilt on
load.  Each file carries ``version`` and ``kind``; the rest of
its schema is the kind's codec in the ``twinlearn.models`` table.  A file
that is not a valid model raises DataError naming it; none is ever saved.
"""

from __future__ import annotations

import json

from .data import DataError
from .models import MODELS, kind_of

__all__ = ["MODEL_SCHEMA_VERSION", "model_to_dict", "model_from_dict",
           "save_model", "load_model"]

MODEL_SCHEMA_VERSION = 1


def model_to_dict(model) -> dict:
    kind = kind_of(model)
    return {"version": MODEL_SCHEMA_VERSION, "kind": kind.codec, **kind.to_dict(model)}


def model_from_dict(d: dict):
    """The model ``d`` describes; DataError if it is not a valid model."""
    if not isinstance(d, dict):
        raise DataError(f"a model is a JSON object, got {type(d).__name__}")
    version = d.get("version")
    if version != MODEL_SCHEMA_VERSION:
        raise DataError(f"unsupported model schema version {version!r}")
    for kind in MODELS.values():
        if kind.codec == d.get("kind"):
            try:
                return kind.from_dict(d)
            except KeyError as exc:
                raise DataError(f"{kind.codec} model has no field {exc}") from None
            except (TypeError, ValueError, AttributeError, OverflowError) as exc:
                raise DataError(f"malformed {kind.codec} model: {exc}") from None
    raise DataError(f"unknown model kind {d.get('kind')!r}")


def save_model(model, path) -> None:
    """Write ``model`` to ``path`` as JSON; DataError naming the path, and
    no file, if ``model_from_dict`` would refuse the encoding."""
    d = model_to_dict(model)
    try:
        model_from_dict(d)
    except DataError as exc:
        raise DataError(f"cannot save a model to {path}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise DataError(f"model file {path} is not JSON: {exc}") from None
    try:
        return model_from_dict(d)
    except DataError as exc:
        raise DataError(f"model file {path}: {exc}") from None
