"""JSON schemas and deterministic serialisation.

Matrix JSON: {"n": <row count>, "real": [[row-major floats]],
"imag": [[row-major floats]] (optional, defaults to zero)}.  Square
Hermitian operators and rectangular coupling blocks share the schema; "n"
is the row count and the column count is inferred from the rows.

Instance JSON: {"sigma0": [...], "sigma1": [...], "gap": [gl, gr],
"B": <matrix JSON>}.

All floats are emitted with 17 significant digits, which round-trips
float64 exactly, so serialising and re-reading a report or instance is
lossless and byte-deterministic.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .disposition import PerturbationInstance, assemble_instance
from .errors import ParseError


def format_float(x: float) -> str:
    """Render one float with 17 significant digits (round-trip exact)."""
    if isinstance(x, bool):
        raise TypeError("bool is not a float")
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} cannot be serialised")
    return format(float(x), ".17g")


def dumps(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with .17g floats and insertion-ordered keys."""
    return _Encoder(indent).encode(obj, 0) + "\n"


#: Encoders of the exact built-in scalar types.  Subclasses and numpy
#: scalars miss the table and take the isinstance chain of ``_Encoder``.
_SCALARS = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: str,
    float: format_float,
    str: json.dumps,
}


class _Encoder:
    """State of one ``dumps`` call: the encoded ``"key": `` prefix of every
    dict key seen, built once per key; nothing outlives the call."""

    def __init__(self, indent: int):
        self.indent = indent
        self.keys: dict[str, str] = {}

    def frame(self, level: int) -> tuple[str, str, str]:
        """(after-open, separator, before-close) of a container at ``level``."""
        if not self.indent:
            return "", ", ", ""
        pad = "\n" + " " * (self.indent * (level + 1))
        return pad, "," + pad, "\n" + " " * (self.indent * level)

    def encode(self, obj: Any, level: int) -> str:
        scalar = _SCALARS.get(type(obj))
        if scalar is not None:
            return scalar(obj)
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return format_float(float(obj))
        if isinstance(obj, str):
            return json.dumps(obj)
        if isinstance(obj, dict):
            return self.encode_dict(obj, level)
        if isinstance(obj, (list, tuple, np.ndarray)):
            return self.encode_items(list(obj), level)
        raise TypeError(f"cannot serialise {type(obj)}")

    def encode_dict(self, obj: dict, level: int) -> str:
        if not obj:
            return "{}"
        opener, sep, closer = self.frame(level)
        keys, encode, inner = self.keys, self.encode, level + 1
        parts = []
        for key, value in obj.items():
            prefix = keys.get(key)
            if prefix is None:
                if not isinstance(key, str):
                    raise TypeError(f"JSON keys must be strings, got {type(key)}")
                prefix = keys[key] = json.dumps(key) + ": "
            parts.append(prefix + encode(value, inner))
        return "{" + opener + sep.join(parts) + closer + "}"

    def encode_items(self, items: list, level: int) -> str:
        if not items:
            return "[]"
        opener, sep, closer = self.frame(level)
        encode, inner = self.encode, level + 1
        return "[" + opener + sep.join([encode(value, inner) for value in items]) + closer + "]"


def matrix_to_dict(m) -> dict:
    """Matrix JSON dict for a real or complex matrix."""
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    doc = {"n": int(a.shape[0]), "real": [[float(x) for x in row] for row in a.real]}
    if np.any(a.imag != 0.0):
        doc["imag"] = [[float(x) for x in row] for row in a.imag]
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
        "sigma0": [float(x) for x in np.diag(inst.A0).real],
        "sigma1": [float(x) for x in np.diag(inst.A1).real],
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
