"""Verification laboratory for spectral subspace rotation bounds.

Builds Hermitian operators whose spectrum splits into a component confined
to a finite gap of the rest, applies off-diagonal perturbations, extracts
the angular operator of the rotated spectral subspace through its graph
representation, and checks every closed-form bound against measurements.
"""

from . import bounds, disposition, harness, linalg, matio, riccati
from .bounds import (
    BoundReport,
    KappaValue,
    PhiSup,
    bound_apriori,
    bound_detailed,
    enclosure,
    kappa,
    make_bound_report,
    phi,
    phi_sup_analytic,
    r_v,
)
from .disposition import (
    PerturbationInstance,
    SpectralSplit,
    assemble_instance,
    random_instance,
    validate_disposition,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    SharpnessConfig,
    analyze,
    run_campaign,
    sharpness_search,
    sweep_csv,
    sweep_rows,
    trial_instance,
    trial_record_for_instance,
)
from .linalg import (
    EigenSystem,
    PolarParts,
    eigh,
    op_norm,
    polar_decompose,
    subspace_angle,
)
from .riccati import GraphReport, RiccatiSolution, riccati_residual

__version__ = "0.1.0"
