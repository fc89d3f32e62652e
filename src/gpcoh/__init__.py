"""Exact cohomology of equivariant vector bundles on rational homogeneous
spaces, with Koszul restriction chases and rigidity audit reports.

All arithmetic is exact: arbitrary-precision integers throughout, no
floating point anywhere.
"""

from .root_system import (
    RootSystem,
    Weight,
    adjoint_dimension,
    build_root_system,
    dominantize,
    dual_weight,
    homogeneous_dimension,
    levi_dimension,
    weyl_dimension,
)
from .bott import (
    BWBResult,
    CohomologyTable,
    ParabolicSpace,
    bundle_cohomology,
    bwb,
    canonical_twist_weight,
    euler_characteristic,
    serre_dual_weight,
)
from .schur import (
    BundleLabel,
    BundleSum,
    Partition,
    dual_label,
    exterior_power,
    exterior_power_sum,
    format_label,
    format_sum,
    generator_power,
    gl_dimension,
    label_rank,
    label_to_weight,
    line_bundle,
    lr_coefficients,
    parse_bundle,
    parse_partition,
    schur_label,
    tangent_label,
    tensor,
)
from .koszul import (
    ChaseResult,
    KoszulComplex,
    RankHint,
    build_koszul,
    chase,
    restriction_sequence,
)
from .scenarios import (
    ExternalConstant,
    RigidityReport,
    Scenario,
    load_scenario,
    run_adjunction_audit,
    run_cayley,
    run_theorem1_audit,
    run_vmrt_audit,
)

__version__ = "0.1.0"
