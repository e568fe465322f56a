"""JSON schemas and deterministic serialisation.

Matrix JSON: {"n": <row count>, "real": [[row-major floats]],
"imag": [[row-major floats]] (optional, defaults to zero)}.  Square
Hermitian operators and rectangular coupling blocks share the schema; "n"
is the row count and the column count is inferred from the rows.

Instance JSON: {"sigma0": [...], "sigma1": [...], "gap": [gl, gr],
"B": <matrix JSON>}.

Floats are written as Python's shortest round-trip text (``repr``), which
reads back as the same float64, so serialising and re-reading a report or
instance is lossless and byte-deterministic.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .disposition import PerturbationInstance, assemble_instance
from .errors import ParseError


def dumps(obj: Any, indent: int | None = None) -> str:
    """Deterministic JSON with insertion-ordered keys and shortest
    round-trip floats; a NaN or infinity raises ValueError."""
    return json.dumps(obj, indent=indent, allow_nan=False) + "\n"


def matrix_to_dict(m) -> dict:
    """Matrix JSON dict for a real or complex matrix."""
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    doc = {"n": int(a.shape[0]), "real": a.real.tolist()}
    if np.any(a.imag != 0.0):
        doc["imag"] = a.imag.tolist()
    return doc


def matrix_from_dict(doc: dict) -> np.ndarray:
    """Parse a Matrix JSON dict into a complex ndarray."""
    if not isinstance(doc, dict) or "real" not in doc:
        raise ParseError("matrix JSON requires a 'real' field")
    real = doc["real"]
    try:
        re = np.asarray(real, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed 'real' rows: {exc}") from exc
    if re.ndim != 2:
        raise ParseError(f"'real' must be a list of equal-length rows, got ndim {re.ndim}")
    if "n" in doc:
        n = doc["n"]
        if type(n) is not int:  # a JSON integer; bool and float are not
            raise ParseError(f"'n' must be an integer row count, got {n!r}")
        if n != re.shape[0]:
            raise ParseError(f"'n'={n} does not match {re.shape[0]} rows")
    a = re.astype(complex)
    if "imag" in doc and doc["imag"] is not None:
        try:
            im = np.asarray(doc["imag"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed 'imag' rows: {exc}") from exc
        if im.shape != re.shape:
            raise ParseError(f"'imag' shape {im.shape} does not match 'real' {re.shape}")
        a = a + 1j * im
    if not np.isfinite(a).all():
        raise ParseError("matrix entries must be finite")
    return a


def _finite_floats(doc: dict, key: str) -> np.ndarray:
    """The flat list of finite floats stored under ``key``."""
    try:
        vals = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed '{key}': {exc}") from exc
    if vals.ndim != 1 or not np.isfinite(vals).all():
        raise ParseError(f"'{key}' must be a flat list of finite numbers")
    return vals


def instance_to_dict(inst: PerturbationInstance) -> dict:
    """Instance JSON dict (spectra, gap and coupling block)."""
    return {
        "sigma0": np.diag(inst.A0).real.tolist(),
        "sigma1": np.diag(inst.A1).real.tolist(),
        "gap": [inst.split.gap_left, inst.split.gap_right],
        "B": matrix_to_dict(inst.B),
    }


def instance_from_dict(doc: dict) -> PerturbationInstance:
    """Parse an Instance JSON dict and assemble the block instance."""
    for key in ("sigma0", "sigma1", "gap", "B"):
        if key not in doc:
            raise ParseError(f"instance JSON requires a '{key}' field")
    gap = _finite_floats(doc, "gap")
    if gap.size != 2:
        raise ParseError("'gap' must be [gap_left, gap_right]")
    s0, s1 = _finite_floats(doc, "sigma0"), _finite_floats(doc, "sigma1")
    return assemble_instance(s0, s1, (float(gap[0]), float(gap[1])), matrix_from_dict(doc["B"]))


def is_instance_doc(doc: dict) -> bool:
    return isinstance(doc, dict) and {"sigma0", "sigma1", "gap", "B"} <= set(doc)


def is_matrix_doc(doc: dict) -> bool:
    return isinstance(doc, dict) and "real" in doc


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"top-level JSON in {path} must be an object")
    return doc
