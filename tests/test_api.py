"""The public surface of ``spl``: growing it is a deliberate edit of this list."""

import types

import spl

PUBLIC_NAMES = [
    "BoundReport", "CampaignConfig", "CampaignReport", "EigenSystem",
    "GraphReport", "GridSpec", "IdentityReport", "InstanceParams", "KappaValue",
    "PerturbationInstance", "PerturbedSplit", "PhiSup", "PolarParts", "RiccatiSolution",
    "SharpnessConfig", "SpectralSplit", "Tolerances", "analyze", "angular_operator",
    "assemble_instance", "bound_apriori", "bound_detailed", "eigh", "enclosure", "kappa",
    "lemma22_check", "make_bound_report", "measured_rotation", "op_norm", "perturbed_split",
    "phi", "phi_sup_analytic", "phi_sup_oracle", "polar_decompose", "r_v", "random_instance",
    "random_unitary", "riccati_residual", "run_campaign", "sharpness_search",
    "subspace_angle", "sweep_csv", "sweep_rows", "trial_instance", "trial_record_for_instance",
    "validate_disposition", "verify_graph_props",
]


def test_public_names():
    names = sorted(
        name for name, value in vars(spl).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
