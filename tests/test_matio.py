import collections
import json

import numpy as np
import pytest

import spl
from spl import matio


def recursive_dumps(obj, indent=0):
    """The former writer of ``matio.dumps``: one isinstance chain, appending pieces."""
    pieces = []
    _write(obj, pieces, indent, 0)
    pieces.append("\n")
    return "".join(pieces)


def _write(obj, out, indent, level):
    pad = " " * (indent * (level + 1)) if indent else ""
    close_pad = " " * (indent * level) if indent else ""
    sep = ",\n" if indent else ", "
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(matio.format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n" if indent else "{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key)}")
            if i:
                out.append(sep)
            out.append(pad + json.dumps(key) + ": ")
            _write(value, out, indent, level + 1)
        out.append(("\n" + close_pad + "}") if indent else "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n" if indent else "[")
        for i, value in enumerate(items):
            if i:
                out.append(sep)
            if indent:
                out.append(pad)
            _write(value, out, indent, level + 1)
        out.append(("\n" + close_pad + "]") if indent else "]")
    else:
        raise TypeError(f"cannot serialise {type(obj)}")


def analyze_reports():
    # acceptance shape, and n0 > n1, where |X| has a kernel
    mixed = spl.CampaignConfig(trials=12, seed=31, n0=(1, 20), n1=(2, 20), d=(0.05, 0.95))
    wide = spl.CampaignConfig(trials=8, seed=5150, n0=(4, 8), n1=(2, 3), d=(0.1, 0.9))
    reports = []
    for cfg in (mixed, wide):
        for i in range(cfg.trials):
            inst, _ = spl.trial_instance(cfg, i)
            try:
                reports.append((inst, spl.analyze(inst)))
            except spl.errors.SplError:
                continue
    assert any(inst.n0 > inst.n1 for inst, _ in reports)
    return [report for _, report in reports]


def edge_docs():
    rng = np.random.default_rng(17)
    return [
        {},
        [],
        (),
        {"empty": {}, "none": [], "pair": (), "nested": [[], {}, [[]]]},
        (1, (2.5, ("x", None)), [True, False]),
        {"rows": rng.standard_normal((3, 4)), "flat": rng.standard_normal(5)},
        {"int_rows": np.arange(6, dtype=np.int64).reshape(2, 3), "empty": np.zeros((0, 2))},
        {"f64": np.float64(1.0 / 3.0), "i64": np.int64(-7), "f32": np.float32(0.1),
         "i8": np.int8(3), "u64": np.uint64(2**63)},
        {"big": 2**80, "neg": -1, "zero": 0, "tiny": 5e-324, "negzero": -0.0,
         "max": 1.7976931348623157e308},
        {"esc": "quote \" backslash \\ newline \n tab \t", "uni": "σ0 ω0 ∥E∥", "ctl": "\x01"},
        {"ünïcode-key": 1, "": "empty key", "a": {"a": {"a": [1, {"b": [2, 3]}]}}},
        [[1.5, [2.5, [3.5, [4.5]]]]],
        collections.OrderedDict([("z", 1), ("a", (np.float64(2.5), []))]),
    ]


def assert_same_bytes(doc):
    for indent in (0, 1, 2, 4):
        assert matio.dumps(doc, indent=indent) == recursive_dumps(doc, indent=indent)


def test_dumps_matches_recursive_writer_on_campaign_report():
    cfg = spl.CampaignConfig(trials=30, seed=7, n0=(1, 20), n1=(2, 20), d=(0.05, 0.95))
    report = spl.run_campaign(cfg)
    assert report.aggregates["violations"]["total"] == 0
    assert report.to_json() == recursive_dumps(report.to_dict())
    assert matio.dumps(report.to_dict(), indent=2) == recursive_dumps(report.to_dict(), indent=2)


def test_dumps_matches_recursive_writer_on_analyze_reports():
    for report in analyze_reports():
        assert_same_bytes(report)


def test_dumps_matches_recursive_writer_on_sharpness_result():
    cfg = spl.SharpnessConfig(n0=2, n1=3, D=2.5, d=0.5, v=0.5, restarts=2, iters=20, seed=3)
    assert_same_bytes(spl.sharpness_search(cfg))


@pytest.mark.parametrize("doc", edge_docs())
def test_dumps_matches_recursive_writer_on_edge_cases(doc):
    assert_same_bytes(doc)


@pytest.mark.parametrize(
    "doc, error",
    [
        ({"x": float("nan")}, ValueError),
        ([float("inf")], ValueError),
        ({"x": [np.float64(-np.inf)]}, ValueError),
        ({1: 2}, TypeError),
        ({"a": 1, ("t",): 2}, TypeError),
        ({"a": float("nan"), 1: 2}, ValueError),  # first failure in insertion order
        ({1: float("nan")}, TypeError),
        ({"flag": np.bool_(True)}, TypeError),
        ({"x": {1, 2}}, TypeError),
        (np.array(1.0), TypeError),  # a 0-d array is not iterable
    ],
    ids=["nan", "inf", "np-inf", "int-key", "tuple-key", "nan-before-key",
         "key-before-nan", "np-bool", "set", "0d-array"],
)
def test_dumps_raises_like_recursive_writer(doc, error):
    for indent in (0, 2):
        with pytest.raises(error) as old:
            recursive_dumps(doc, indent=indent)
        with pytest.raises(error) as new:
            matio.dumps(doc, indent=indent)
        assert type(new.value) is type(old.value)
        assert str(new.value) == str(old.value)
