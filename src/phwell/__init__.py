"""phwell: well-posedness checks for 1-D port-Hamiltonian PDE systems.

Decides whether the generator of dx/dt = sum_k P_k d^k/dz^k (H x) with
boundary condition WB_hat Phi(Hx) = 0 produces non-increasing (contraction)
or exactly conserved (unitary group) energy, by evaluating every equivalent
algebraic criterion independently and cross-checking them, with a
quadrature dissipativity oracle and an energy-monitoring simulator as
independent evidence.
"""

from .config import parse_config, system_from_dict, system_to_dict
from .errors import (
    BoundaryClosureSingular,
    CFLViolation,
    GridTooCoarse,
    HNotCoercive,
    NotHermitian,
    ParseError,
    PhwellError,
    ShapeError,
    SingularP1,
    SingularPN,
    SingularQ,
    StructureError,
    ValidationError,
)
from .halfline import (
    analyze_halfline,
    decompose_P1,
    factorize_boundary,
    solve_resolvent_halfline,
)
from .interval import analyze_interval, extract_v
from .model import (
    HALF_LINE,
    UNIT_INTERVAL,
    HamiltonianDensity,
    PortHamiltonianSystem,
    Tolerances,
    build_q,
    derive_boundary_operator,
    validate_system,
)
from .oracle import (
    SmoothFunction,
    boundary_interpolant,
    dissipativity_oracle,
    quadrature_rayleigh,
)
from .simulator import EnergyTrace, simulate, smooth_bump
from .verdict import ConditionResult, Verdict


def analyze(system: PortHamiltonianSystem) -> Verdict:
    """Dispatch to the interval or half-line checker."""
    if system.interval == HALF_LINE:
        return analyze_halfline(system)
    return analyze_interval(system)


__version__ = "0.1.0"

__all__ = [
    "analyze",
    "analyze_halfline",
    "analyze_interval",
    "boundary_interpolant",
    "build_q",
    "decompose_P1",
    "derive_boundary_operator",
    "dissipativity_oracle",
    "extract_v",
    "factorize_boundary",
    "parse_config",
    "quadrature_rayleigh",
    "simulate",
    "smooth_bump",
    "solve_resolvent_halfline",
    "system_from_dict",
    "system_to_dict",
    "validate_system",
    "ConditionResult",
    "EnergyTrace",
    "HamiltonianDensity",
    "PortHamiltonianSystem",
    "SmoothFunction",
    "Tolerances",
    "Verdict",
    "HALF_LINE",
    "UNIT_INTERVAL",
    "BoundaryClosureSingular",
    "CFLViolation",
    "GridTooCoarse",
    "HNotCoercive",
    "NotHermitian",
    "ParseError",
    "PhwellError",
    "ShapeError",
    "SingularP1",
    "SingularPN",
    "SingularQ",
    "StructureError",
    "ValidationError",
]
