"""The public and the settable surface of ``spl``: growing either is a
deliberate edit of the lists here."""

import argparse
import dataclasses
import types

import spl
from spl import cli

PUBLIC_NAMES = [
    "BoundReport", "CampaignConfig", "CampaignReport", "EigenSystem",
    "GraphReport", "KappaValue",
    "PerturbationInstance", "PhiSup", "PolarParts", "RiccatiSolution",
    "SharpnessConfig", "SpectralSplit", "analyze",
    "assemble_instance", "bound_apriori", "bound_detailed", "eigh", "enclosure", "kappa",
    "make_bound_report", "op_norm",
    "phi", "phi_sup_analytic", "polar_decompose", "r_v", "random_instance",
    "riccati_residual", "run_campaign", "sharpness_search",
    "subspace_angle", "sweep_csv", "sweep_rows", "trial_instance", "trial_record_for_instance",
    "validate_disposition",
]

CAMPAIGN_FIELDS = [
    "trials", "seed", "n0", "n1", "gap", "d", "outer_radius", "regime", "v_fraction", "parallel",
]
SHARPNESS_FIELDS = ["n0", "n1", "D", "d", "v", "restarts", "iters", "seed"]
ANALYZE_OPTIONS = ["-h", "--help", "--in", "--gap-left", "--gap-right", "--out"]


def test_public_names():
    names = sorted(
        name for name, value in vars(spl).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_config_fields():
    assert [f.name for f in dataclasses.fields(spl.CampaignConfig)] == CAMPAIGN_FIELDS
    assert [f.name for f in dataclasses.fields(spl.SharpnessConfig)] == SHARPNESS_FIELDS


def test_analyze_options():
    sub = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = [opt for action in sub.choices["analyze"]._actions for opt in action.option_strings]
    assert options == ANALYZE_OPTIONS
