"""Operator calculus and classification of almost quaternion-Hermitian
intrinsic torsion on R^(4n), n >= 2."""

from .exterior import (
    AltForm,
    DegreeError,
    MixedTorsion,
    alternate5,
    contract12,
    inner,
    interior,
    wedge,
    wedge1,
    wedge_power,
)
from .structure import (
    AXES,
    QuatStructure,
    StructureError,
    insert,
    random_rotation,
    rotate_adapted,
    standard_structure,
)
from .torsion import (
    MembershipError,
    extract_cA,
    from_nabla_omegas,
    random_W_element,
    w_dim,
)
from .threeform import (
    hat_dstar,
    proj3,
    torsion_embed,
    table1_residuals,
)
from .projectors import (
    COMPONENT_DIMS,
    ComponentLabel,
    ComponentProfile,
    components,
    profile,
)
from .classify import (
    ClassLabel,
    classification_report,
    perp_EH5_test,
    table2_rows,
    table3_rows,
    wedge_criteria,
)
from .liealg import (
    AlgebraError,
    MetricLieAlgebra,
    VerificationError,
    algebra_from_json,
    ce_d,
    classify_algebra,
    codiff_Omega,
    koszul,
    nabla_Omega,
    nabla_form,
    nabla_omegas,
    nijenhuis,
    two_step_nilpotent,
)

__version__ = "0.1.0"


def __getattr__(name):  # the identity suite is imported when it runs
    if name == "run_suite":
        from .verify import run_suite
        return run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
