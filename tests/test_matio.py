import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spl
from spl import matio


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def same(a, b) -> bool:
    """``a == b`` with ints, floats and bools kept apart, floats compared
    bit for bit, keys in the same order and tuples read back as lists."""
    if isinstance(a, dict):
        return type(b) is dict and list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(b) is list and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float):
        return type(b) is float and bits(a) == bits(b)
    return type(a) is type(b) and a == b


def assert_round_trip(doc):
    for indent in (None, 2):
        assert same(doc, json.loads(matio.dumps(doc, indent=indent)))


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
def test_every_finite_float_reads_back_bit_exact(x):
    assert_round_trip({"x": [x, -x]})
    assert same(x, json.loads(matio.dumps(np.float64(x))))


@pytest.mark.parametrize(
    "doc",
    [{"x": float("nan")}, [float("inf")], {"x": [np.float64(-np.inf)]}],
    ids=["nan", "inf", "np-inf"],
)
def test_dumps_refuses_non_finite_floats(doc):
    for indent in (None, 2):
        with pytest.raises(ValueError):
            matio.dumps(doc, indent=indent)


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


def test_campaign_report_round_trips_to_an_equal_document():
    cfg = spl.CampaignConfig(trials=30, seed=7, n0=(1, 20), n1=(2, 20), d=(0.05, 0.95))
    report = spl.run_campaign(cfg)
    assert report.aggregates["violations"]["total"] == 0
    assert_round_trip(report.to_dict())


def test_analyze_reports_round_trip_to_equal_documents():
    for doc in analyze_reports():
        assert_round_trip(doc)


def test_sharpness_result_round_trips_to_an_equal_document():
    search = spl.SharpnessConfig(n0=2, n1=3, D=2.5, d=0.5, v=0.5, restarts=2, iters=20, seed=3)
    assert_round_trip(spl.sharpness_search(search))
