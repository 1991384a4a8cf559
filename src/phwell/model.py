"""System data model, structural validation and derived boundary algebra.

A system is the tuple (field, interval, N, d, P_0..P_N, H, WB_hat) for

    dx/dt = sum_k P_k d^k/dz^k (H(z) x),    WB_hat * Phi(H x) = 0,

with P_k^* = (-1)^{k+1} P_k for k >= 1, P_N invertible, and H(z) Hermitian
positive definite with uniform bounds.  Everything is stored in complex
arithmetic; real-field systems are embedded (verdicts are field independent).

Boundary traces are stacked z=1 block first: Phi = [Phi_1; Phi_0].
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from . import numlin
from .errors import (
    HNotCoercive,
    NotHermitian,
    ShapeError,
    SingularP1,
    SingularPN,
    SingularQ,
    StructureError,
    ValidationError,
)

UNIT_INTERVAL = "unit_interval"
HALF_LINE = "half_line"

V_NORM_SLACK = 1e-8  # absolute slack for ||V|| <= 1 tests; shifts sit exactly at 1


def _tolerance_value(value, name: str) -> float:
    """value as a float; ValidationError naming name unless finite and >= 0."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) and x >= 0.0):
        raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}",
                              path=name)
    return x


def default_tolerance() -> float:
    """Base relative tolerance; the PHWELL_TOL env var overrides the default."""
    raw = os.environ.get("PHWELL_TOL")
    if raw is None:
        return 1e-10
    return _tolerance_value(raw, "PHWELL_TOL")


@dataclass(frozen=True)
class Tolerances:
    """Relative thresholds for structure, rank and definiteness decisions.

    tau_struct, tau_rank and tau_pd govern validation: the symmetry of the
    P_k and of H, the invertibility of P_N (no zero eigenvalue of P_1 on
    the half line) and Q, and the positivity of H.  check is the one
    threshold of every condition decision; v_norm_slack is the absolute
    slack of ||V|| <= 1.  Every value must be a finite number >= 0.
    """

    tau_struct: float = dc_field(default_factory=default_tolerance)
    tau_rank: float = dc_field(default_factory=default_tolerance)
    tau_pd: float = dc_field(default_factory=default_tolerance)
    check: float = dc_field(default_factory=default_tolerance)
    v_norm_slack: float = V_NORM_SLACK

    def __post_init__(self):
        for f in fields(self):
            value = _tolerance_value(getattr(self, f.name), f"tolerances.{f.name}")
            object.__setattr__(self, f.name, value)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HamiltonianDensity:
    """Hamiltonian density H(z): constant, piecewise-constant, or grid-sampled.

    kind 'constant'            -- one d x d matrix
    kind 'piecewise_constant'  -- strictly increasing interior breakpoints and
                                  len(breakpoints)+1 cell matrices
    kind 'grid'                -- uniform samples on [0, 1] incl. endpoints
    """

    kind: str
    matrices: np.ndarray  # (m, d, d)
    breakpoints: np.ndarray | None = None  # (m-1,) for piecewise_constant

    @staticmethod
    def constant(H) -> "HamiltonianDensity":
        H = np.asarray(H, dtype=complex)
        return HamiltonianDensity("constant", _freeze(H[None, :, :]))

    @staticmethod
    def piecewise(breakpoints, matrices) -> "HamiltonianDensity":
        b = np.asarray(breakpoints, dtype=float)
        m = np.asarray(matrices, dtype=complex)
        if m.shape[0] != b.size + 1:
            raise ShapeError("piecewise H needs len(breakpoints)+1 matrices", path="H")
        if b.size and not np.all(np.diff(b) > 0):
            raise ShapeError("H breakpoints must be strictly increasing", path="H")
        return HamiltonianDensity("piecewise_constant", _freeze(m), _freeze(b))

    @staticmethod
    def grid(matrices) -> "HamiltonianDensity":
        m = np.asarray(matrices, dtype=complex)
        if m.shape[0] < 2:
            raise ShapeError("grid H needs at least 2 samples", path="H")
        return HamiltonianDensity("grid", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def at(self, zeta: float) -> np.ndarray:
        """Evaluate H at a point (grid kind interpolates piecewise linearly)."""
        if self.kind == "constant":
            return self.matrices[0]
        if self.kind == "piecewise_constant":
            idx = int(np.searchsorted(self.breakpoints, zeta, side="right"))
            return self.matrices[idx]
        n = self.matrices.shape[0]
        t = np.clip(zeta, 0.0, 1.0) * (n - 1)
        i = min(int(t), n - 2)
        w = t - i
        return (1.0 - w) * self.matrices[i] + w * self.matrices[i + 1]

    def cell_values(self, centers) -> np.ndarray:
        """H evaluated at an array of cell centers, shape (len(centers), d, d)."""
        return np.stack([self.at(float(z)) for z in np.asarray(centers)])


@dataclass(frozen=True)
class PortHamiltonianSystem:
    """A validated system; construct through validate_system().

    P_k (k >= 1) is kept exactly (skew-)Hermitian, 0.5 (P_k + (-1)^{k+1} P_k^*),
    so no later symmetry check fails; exact input is kept bit for bit.
    """

    field: str  # 'real' | 'complex'
    interval: str  # UNIT_INTERVAL | HALF_LINE
    order_N: int
    dim_d: int
    P: tuple  # N+1 frozen (d, d) complex arrays
    H: HamiltonianDensity
    WB_hat: np.ndarray  # (k, 2Nd) or (k, d)
    tol: Tolerances
    h_min_eig: float  # measured m = min over samples of lambda_min(H)
    h_max_eig: float  # measured M

    @property
    def nd(self) -> int:
        return self.order_N * self.dim_d

    @property
    def n_conditions(self) -> int:
        return self.WB_hat.shape[0]

    @property
    def P0(self) -> np.ndarray:
        return self.P[0]

    def re_P0(self) -> np.ndarray:
        return numlin.hermitian_part(self.P0)


@dataclass(frozen=True)
class BoundaryTrace:
    """Traces of x and its derivatives up to order N-1; z=1 block first."""

    phi1: np.ndarray  # (N*d,)
    phi0: np.ndarray  # (N*d,)


@dataclass(frozen=True)
class PortVariables:
    """Boundary flow / effort pair (f, e) = (1/sqrt2) [Q -Q; I I] Phi."""

    f_boundary: np.ndarray
    e_boundary: np.ndarray


@dataclass(frozen=True)
class BoundaryOperator:
    """WB_hat together with Q and the split (W1, W2).

    The contraction factor V, when it exists, comes from interval.extract_v.
    """

    WB_hat: np.ndarray
    Q: np.ndarray
    W1: np.ndarray
    W2: np.ndarray


def validate_system(raw: dict) -> PortHamiltonianSystem:
    """Validate a raw description and return an immutable system.

    raw keys: field, interval, N, d (positive ints, bool excluded), P
    (list of N+1 matrices), H (HamiltonianDensity or matrix), WB_hat,
    optional tolerances (Tolerances or dict).  Every entry of P, H and
    WB_hat must be finite.  Raises ShapeError / StructureError /
    SingularPN / SingularP1 / SingularQ / HNotCoercive.
    """
    field = raw.get("field", "complex")
    if field not in ("real", "complex"):
        raise StructureError(f"field must be 'real' or 'complex', got {field!r}", path="field")
    interval = raw.get("interval", UNIT_INTERVAL)
    if interval not in (UNIT_INTERVAL, HALF_LINE):
        raise StructureError(f"unknown interval kind {interval!r}", path="interval")

    N, d = raw["N"], raw["d"]
    if not all(type(v) is int and v >= 1 for v in (N, d)):
        raise ShapeError(f"N and d must be positive integers, got N={N!r}, d={d!r}")

    tol = raw.get("tolerances") or Tolerances()
    if isinstance(tol, dict):
        tol = Tolerances(**tol)

    P_raw = raw["P"]
    if len(P_raw) != N + 1:
        raise ShapeError(f"P must list N+1 = {N + 1} matrices, got {len(P_raw)}", path="P")
    P = []
    for k, Pk in enumerate(P_raw):
        Pk = np.asarray(Pk, dtype=complex)
        if Pk.shape != (d, d):
            raise ShapeError(f"P[{k}] must be {d}x{d}, got {Pk.shape}", path=f"P[{k}]")
        _require_finite(Pk, f"P[{k}]")
        P.append(Pk)

    if field == "real":
        for k, Pk in enumerate(P):
            if np.any(np.abs(Pk.imag) > 0):
                raise StructureError(f"real-field system has complex P[{k}]", path=f"P[{k}]")

    # P_k^* = (-1)^{k+1} P_k, k = 1..N; i P_k is Hermitian iff P_k is skew.
    # The accepted P_k is kept as its exact (skew-)Hermitian part.
    for k in range(1, N + 1):
        kind = "Hermitian" if k % 2 == 1 else "skew-Hermitian"
        try:
            numlin.require_hermitian(P[k] if k % 2 == 1 else 1j * P[k], tol.tau_struct)
        except NotHermitian as exc:
            raise StructureError(f"P[{k}] must be {kind}: {exc}", path=f"P[{k}]") from None
        P[k] = 0.5 * (P[k] + (-1) ** (k + 1) * P[k].conj().T)

    if interval == HALF_LINE and N != 1:
        raise StructureError("half_line systems must have N = 1", path="N")

    # P_N invertible; a Hermitian P_1's singular values are its |eigenvalues|
    s = np.linalg.svd(P[N], compute_uv=False)
    if numlin.rank_from_singular_values(s, tol.tau_rank) < d:
        if interval == HALF_LINE:
            raise SingularP1(f"P[1] has an eigenvalue numerically at zero "
                             f"(s_min={s[-1]:.3e})", path="P[1]")
        raise SingularPN(f"P[{N}] is numerically singular (s_min={s[-1]:.3e})", path=f"P[{N}]")

    # H Hermitian positive definite at every sample
    H = raw["H"]
    if not isinstance(H, HamiltonianDensity):
        H = HamiltonianDensity.constant(np.asarray(H, dtype=complex))
    if H.dim != d:
        raise ShapeError(f"H samples must be {d}x{d}, got {H.dim}x{H.dim}", path="H")
    m_eig, M_eig = np.inf, -np.inf
    for i, Hs in enumerate(H.matrices):
        _require_finite(Hs, f"H sample {i}", path="H")
        try:
            numlin.require_hermitian(Hs, tol.tau_struct)
        except NotHermitian:
            raise StructureError(f"H sample {i} is not Hermitian", path="H") from None
        w = np.linalg.eigvalsh(numlin.hermitian_part(Hs))
        if w[0] <= tol.tau_pd * max(1.0, w[-1]):
            raise HNotCoercive(
                f"H sample {i} has min eigenvalue {w[0]:.3e}", path="H"
            )
        m_eig = min(m_eig, float(w[0]))
        M_eig = max(M_eig, float(w[-1]))

    # boundary operator width
    WB = np.asarray(raw["WB_hat"], dtype=complex)
    if WB.ndim != 2:
        raise ShapeError("WB_hat must be a matrix", path="WB_hat")
    width = 2 * N * d if interval == UNIT_INTERVAL else d
    if WB.shape[1] != width:
        raise ShapeError(
            f"WB_hat must have width {width} for this system, got {WB.shape[1]}",
            path="WB_hat",
        )
    _require_finite(WB, "WB_hat")
    if field == "real" and np.any(np.abs(WB.imag) > 0):
        raise StructureError("real-field system has complex WB_hat", path="WB_hat")

    if N > 1:  # unit interval; for N = 1, Q = P_1 = P_N, decided above
        _check_q(build_q(P[1:]), tol.tau_rank)

    return PortHamiltonianSystem(
        field=field,
        interval=interval,
        order_N=N,
        dim_d=d,
        P=tuple(_freeze(Pk) for Pk in P),
        H=H,
        WB_hat=_freeze(WB),
        tol=tol,
        h_min_eig=m_eig,
        h_max_eig=M_eig,
    )


def _require_finite(M, name: str, path: str = None) -> None:
    if not np.isfinite(M).all():
        raise StructureError(f"{name} has a non-finite entry", path=path or name)


def _check_q(Q, tau_rank: float) -> None:
    s = np.linalg.svd(Q, compute_uv=False)
    if numlin.rank_from_singular_values(s, tau_rank) < Q.shape[0]:
        raise SingularQ(f"Q is numerically singular (s_min={s[-1]:.3e})", path="P")


def build_q(P1N) -> np.ndarray:
    """Block matrix Q from [P_1, ..., P_N]: block (i, j) = (-1)^{i-1} P_{i+j-1}
    when i + j <= N + 1 and zero otherwise (1-based block indices).

    P_0 never enters.  The result is Hermitian and invertible
    (anti-triangular with +-P_N blocks on the anti-diagonal).
    """
    P1N = [np.asarray(Pk, dtype=complex) for Pk in P1N]
    N = len(P1N)
    d = P1N[-1].shape[0]
    Q = np.zeros((N * d, N * d), dtype=complex)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i + j <= N + 1:
                blk = ((-1.0) ** (i - 1)) * P1N[i + j - 2]
                Q[(i - 1) * d : i * d, (j - 1) * d : j * d] = blk
    return Q


def build_q_for_system(sys: PortHamiltonianSystem) -> np.ndarray:
    """Q of a validated system (uses P_1..P_N)."""
    return build_q(list(sys.P[1:]))


def split_boundary_operator(WB_hat, Q, tol: float | None = None):
    """Split WB_hat into (W1, W2) with [W1 W2] = WB_hat [Q -Q; I I]^{-1}.

    Using the closed-form inverse 0.5 [Q^{-1} I; -Q^{-1} I] this is
    W1 = 0.5 (Wh1 - Wh2) Q^{-1} and W2 = 0.5 (Wh1 + Wh2) for
    WB_hat = [Wh1 Wh2].  Reconstruction [W1 W2][Q -Q; I I] = WB_hat holds
    by construction.  Raises SingularQ for a numerically singular Q, which
    validate_system already rules out for validated systems.
    """
    WB_hat = np.asarray(WB_hat, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    n = Q.shape[0]
    if WB_hat.shape[1] != 2 * n:
        raise ShapeError(
            f"WB_hat width {WB_hat.shape[1]} does not match 2*{n}", path="WB_hat"
        )
    if tol is None:
        tol = default_tolerance()
    _check_q(Q, tol)
    return _split(WB_hat, Q)


def _split(WB_hat, Q):
    """(W1, W2) of split_boundary_operator for a Q already known invertible."""
    n = Q.shape[0]
    Wh1, Wh2 = WB_hat[:, :n], WB_hat[:, n:]
    Qi = np.linalg.inv(Q)
    W1 = 0.5 * (Wh1 - Wh2) @ Qi
    W2 = 0.5 * (Wh1 + Wh2)
    return W1, W2


def derive_boundary_operator(sys: PortHamiltonianSystem) -> BoundaryOperator:
    """Q and (W1, W2) for a unit-interval system.

    validate_system already decided that Q is invertible, with the same
    tau_rank, so Q is not checked again here.
    """
    Q = build_q_for_system(sys)
    W1, W2 = _split(sys.WB_hat, Q)
    return BoundaryOperator(WB_hat=sys.WB_hat, Q=_freeze(Q), W1=_freeze(W1),
                            W2=_freeze(W2))


def port_variables(trace: BoundaryTrace, Q) -> PortVariables:
    """f = (1/sqrt2) Q (Phi_1 - Phi_0), e = (1/sqrt2) (Phi_1 + Phi_0)."""
    Q = np.asarray(Q, dtype=complex)
    f = Q @ (trace.phi1 - trace.phi0) / np.sqrt(2.0)
    e = (trace.phi1 + trace.phi0) / np.sqrt(2.0)
    return PortVariables(f_boundary=_freeze(f), e_boundary=_freeze(e))
