"""Verification laboratory for spectral subspace rotation bounds.

Builds Hermitian operators whose spectrum splits into a component confined
to a finite gap of the rest, applies off-diagonal perturbations, extracts
the angular operator of the rotated spectral subspace through its graph
representation, and checks every closed-form bound against measurements.
"""

from . import bounds, cli, disposition, harness, linalg, matio, riccati
from .bounds import (
    BoundInputs,
    BoundReport,
    GridSpec,
    KappaValue,
    PhiSup,
    bound_apriori,
    bound_detailed,
    enclosure,
    kappa,
    kappa_max_over_D,
    make_bound_report,
    phi,
    phi_sup_analytic,
    phi_sup_oracle,
    r_v,
)
from .disposition import (
    InstanceParams,
    PerturbationInstance,
    SpectralSplit,
    assemble_instance,
    hide_block_structure,
    offdiag_project,
    random_instance,
    validate_disposition,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    SharpnessConfig,
    Tolerances,
    analyze,
    run_campaign,
    sharpness_search,
    sweep_csv,
    sweep_rows,
    trial_instance,
    trial_record_for_instance,
)
from .linalg import (
    AngleReport,
    EigenSystem,
    PolarParts,
    Projector,
    eigh,
    op_norm,
    polar_decompose,
    random_unitary,
    spectral_projector,
    subspace_angle,
)
from .riccati import (
    GraphReport,
    IdentityReport,
    PerturbedSplit,
    RiccatiSolution,
    angular_operator,
    lemma22_check,
    perturbed_split,
    riccati_residual,
    solve_instance,
    verify_graph_props,
)

__version__ = "0.1.0"
