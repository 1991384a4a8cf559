"""System data model, structural validation and derived boundary algebra.

A system is the tuple (field, interval, N, d, P_0..P_N, H, WB_hat) for

    dx/dt = sum_k P_k d^k/dz^k (H(z) x),    WB_hat * Phi(H x) = 0,

with P_k^* = (-1)^{k+1} P_k for k >= 1, P_N invertible, and H(z) Hermitian
positive definite with uniform bounds.  Everything is stored in complex
arithmetic; real-field systems are embedded (verdicts are field independent).

Boundary traces are stacked z=1 block first, Phi = [Phi_1; Phi_0], the
order of the energy form boundary_form(Q) on them.  validate_system decides
Q invertible; derive_boundary_operator is the one split of WB_hat.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field, fields
from numbers import Integral, Real

import numpy as np

from . import numlin
from .errors import (
    HNotCoercive,
    NotHermitian,
    PhwellError,
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


def is_real(value) -> bool:
    """A real number that is not a bool: an int, a float or a numpy one."""
    return isinstance(value, Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """An integer that is not a bool: an int or a numpy one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _tolerance_value(value, name: str) -> float:
    """value as a float; ValidationError naming name unless is_real, finite and >= 0."""
    try:
        x = float(value) if is_real(value) else math.nan
    except OverflowError:  # an int beyond the float range
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
    try:
        value = float(raw)
    except ValueError:
        value = raw  # refused, and shown as given
    return _tolerance_value(value, "PHWELL_TOL")


@dataclass(frozen=True)
class Tolerances:
    """Relative thresholds for structure, rank and definiteness decisions.

    tau_struct, tau_rank and tau_pd govern validation: the symmetry of the
    P_k and of H, the invertibility of P_N (no zero eigenvalue of P_1 on
    the half line) and Q, and the positivity of H.  check decides the
    conditions, except that v_norm_slack, an absolute slack PHWELL_TOL
    does not move, bounds ||V|| <= 1 and the isometry defect of V; see
    interval.BoundaryAlgebra.  Every value must be a finite real number >= 0.
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


def _samples(matrices) -> np.ndarray:
    """H samples as one complex (m, d, d') array; ShapeError unless they stack."""
    try:
        m = np.asarray(matrices, dtype=complex)
    except (TypeError, ValueError):
        m = None
    if m is None or m.ndim != 3:
        raise ShapeError("H samples must be matrices of one shape", path="H")
    return m


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HamiltonianDensity:
    """Hamiltonian density H(z): constant, piecewise-constant, or grid-sampled.

    kind 'constant'            -- one d x d matrix
    kind 'piecewise_constant'  -- strictly increasing finite breakpoints > 0
                                  and len(breakpoints)+1 cell matrices; on
                                  the unit interval validate_system also
                                  requires them < 1, so every cell applies
    kind 'grid'                -- uniform samples on [0, 1] incl. endpoints
    """

    kind: str
    matrices: np.ndarray  # (m, d, d)
    breakpoints: np.ndarray | None = None  # (m-1,) for piecewise_constant

    @staticmethod
    def constant(H) -> "HamiltonianDensity":
        return HamiltonianDensity("constant", _freeze(_samples([H])))

    @staticmethod
    def piecewise(breakpoints, matrices) -> "HamiltonianDensity":
        b = np.asarray(breakpoints, dtype=float)
        m = _samples(matrices)
        if b.ndim != 1:
            raise ShapeError("H breakpoints must be a list of numbers, "
                             f"got shape {b.shape}", path="H")
        if m.shape[0] != b.size + 1:
            raise ShapeError("piecewise H needs len(breakpoints)+1 matrices", path="H")
        if not (np.isfinite(b).all() and (b > 0).all()):
            raise ShapeError("H breakpoints must be finite and > 0", path="H")
        if not np.all(np.diff(b) > 0):
            raise ShapeError("H breakpoints must be strictly increasing", path="H")
        return HamiltonianDensity("piecewise_constant", _freeze(m), _freeze(b))

    @staticmethod
    def grid(matrices) -> "HamiltonianDensity":
        m = _samples(matrices)
        if m.shape[0] < 2:
            raise ShapeError("grid H needs at least 2 samples", path="H")
        return HamiltonianDensity("grid", _freeze(m))

    def at(self, zeta) -> np.ndarray:
        """H at a point or an array of points, shape zeta.shape + (d, d).

        Piecewise kind: the cell a point falls in, with a breakpoint
        belonging to the cell on its right.  Grid kind: linear interpolation
        between the samples, points outside [0, 1] taking the end values.
        Every point must be finite (PhwellError otherwise).
        """
        z = np.asarray(zeta, dtype=float)
        if not np.isfinite(z).all():
            raise PhwellError(f"H needs finite points, got {zeta}")
        if self.kind == "constant":
            return np.broadcast_to(self.matrices[0], z.shape + self.matrices.shape[1:])
        if self.kind == "piecewise_constant":
            return self.matrices[np.searchsorted(self.breakpoints, z, side="right")]
        n = self.matrices.shape[0]
        t = np.clip(z, 0.0, 1.0) * (n - 1)
        i = np.minimum(t.astype(np.intp), n - 2)
        w = (t - i)[..., None, None]
        return (1.0 - w) * self.matrices[i] + w * self.matrices[i + 1]


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
    Q: np.ndarray  # frozen build_q(P[1:]), the Q validate_system decided on
    # N = 1: validation's (S, delta), P_1 = S^* diag(delta) S with delta
    # descending (frozen); None for N > 1
    P1_split: tuple | None
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

    def re_P0(self) -> np.ndarray:
        return numlin.hermitian_part(self.P[0])


def validate_system(raw: dict) -> PortHamiltonianSystem:
    """Validate a raw description and return an immutable system.

    raw keys: field, interval, N, d (positive ints, numpy ones stored as
    int, bool excluded), P (list of N+1 matrices), H (HamiltonianDensity or
    matrix), WB_hat (an empty list is k = 0 rows of the system's width),
    optional tolerances (Tolerances or dict).  Every entry of P, H and
    WB_hat must be finite, and real when field is 'real'.  Raises
    ValidationError (a missing key, bad tolerances) or one of its subclasses
    ShapeError / StructureError / SingularPN / SingularP1 / SingularQ /
    HNotCoercive, with path naming the offending key.  This is the one place
    that decides the structure of a system; config.system_from_dict only
    reads the JSON numbers.
    """
    field = raw.get("field", "complex")
    if field not in ("real", "complex"):
        raise StructureError(f"field must be 'real' or 'complex', got {field!r}", path="field")
    interval = raw.get("interval", UNIT_INTERVAL)
    if interval not in (UNIT_INTERVAL, HALF_LINE):
        raise StructureError(f"unknown interval kind {interval!r}", path="interval")

    real = field == "real"
    N, d = _required(raw, "N"), _required(raw, "d")
    for key, v in (("N", N), ("d", d)):
        if not (is_integer(v) and v >= 1):
            raise ShapeError(f"N and d must be positive integers, got N={N!r}, d={d!r}",
                             path=key)
    N, d = int(N), int(d)

    tol = raw.get("tolerances")
    if tol is None:
        tol = Tolerances()
    if isinstance(tol, dict):
        unknown = set(tol) - {f.name for f in fields(Tolerances)}
        if unknown:
            raise ValidationError(f"unknown tolerance keys {sorted(unknown, key=str)}",
                                  path="tolerances")
        tol = Tolerances(**tol)
    if not isinstance(tol, Tolerances):
        raise ValidationError("tolerances must be a Tolerances or a dict, got "
                              f"{type(tol).__name__}", path="tolerances")

    P_raw = _required(raw, "P")
    # a string or a mapping has a length, but its items are no matrices
    if isinstance(P_raw, (str, bytes, Mapping)):
        count = type(P_raw).__name__
    else:
        try:
            count = len(P_raw)
        except TypeError:
            count = type(P_raw).__name__
    if count != N + 1:
        raise ShapeError(f"P must be a list of N+1 = {N + 1} matrices, got {count}",
                         path="P")
    P = []
    for k, Pk in enumerate(P_raw):
        Pk = _matrix(Pk, f"P[{k}]", real)
        if Pk.shape != (d, d):
            raise ShapeError(f"P[{k}] must be {d}x{d}, got {Pk.shape}", path=f"P[{k}]")
        P.append(Pk)

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

    # P_N invertible.  It is Hermitian (N odd) or i times a Hermitian matrix,
    # exactly so after the loop above, and its singular values are the
    # |eigenvalues| of that Hermitian matrix: decompose_P1's eigensolve and
    # rank rule.  For N = 1 the system keeps this split of P_1.
    split = numlin.descending_eigh(P[N] if N % 2 else 1j * P[N])
    s = np.sort(np.abs(split[1]))[::-1]
    if numlin.rank_from_singular_values(s, tol.tau_rank) < d:
        if interval == HALF_LINE:
            raise SingularP1(f"P[1] has an eigenvalue numerically at zero "
                             f"(s_min={s[-1]:.3e})", path="P[1]")
        raise SingularPN(f"P[{N}] is numerically singular (s_min={s[-1]:.3e})", path=f"P[{N}]")

    # H Hermitian positive definite at every sample
    H = _required(raw, "H")
    if not isinstance(H, HamiltonianDensity):
        H = HamiltonianDensity.constant(H)
    if H.matrices.shape[1:] != (d, d):
        got = "x".join(map(str, H.matrices.shape[1:]))
        raise ShapeError(f"H samples must be {d}x{d}, got {got}", path="H")
    if (H.kind == "piecewise_constant" and interval == UNIT_INTERVAL
            and H.breakpoints.size and H.breakpoints[-1] >= 1.0):
        raise ShapeError("H breakpoints on the unit interval must be < 1", path="H")
    m_eig, M_eig = np.inf, -np.inf
    for i, Hs in enumerate(H.matrices):
        _matrix(Hs, f"H sample {i}", real, path="H")
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
    WB = _required(raw, "WB_hat")
    width = 2 * N * d if interval == UNIT_INTERVAL else d
    if isinstance(WB, list) and not WB:  # k = 0 rows, as system_to_dict writes them
        WB = np.zeros((0, width), dtype=complex)
    WB = _matrix(WB, "WB_hat", real)
    if WB.shape[1] != width:
        raise ShapeError(
            f"WB_hat must have width {width} for this system, got {WB.shape[1]}",
            path="WB_hat",
        )

    Q = build_q(P[1:])
    if N > 1:  # unit interval; for N = 1, Q = P_1 = P_N, decided above
        _check_q(Q, tol.tau_rank)

    return PortHamiltonianSystem(
        field=field,
        interval=interval,
        order_N=N,
        dim_d=d,
        P=tuple(_freeze(Pk) for Pk in P),
        Q=_freeze(Q),
        P1_split=tuple(map(_freeze, split)) if N == 1 else None,
        H=H,
        WB_hat=_freeze(WB),
        tol=tol,
        h_min_eig=m_eig,
        h_max_eig=M_eig,
    )


def _required(raw: dict, key: str):
    """raw[key]; ValidationError naming key when raw lacks it."""
    if key not in raw:
        raise ValidationError(f"missing required key {key!r}", path=key)
    return raw[key]


def _matrix(value, name: str, real: bool, path: str = None) -> np.ndarray:
    """value as a complex 2-D array of finite entries, real ones if real.

    ShapeError unless value is a matrix; StructureError for a non-finite
    entry or, if real, naming the first complex one.  path defaults to name.
    """
    path = path or name
    try:
        M = np.asarray(value, dtype=complex)
    except (TypeError, ValueError):
        M = None
    if M is None or M.ndim != 2:
        raise ShapeError(f"{name} must be a matrix", path=path)
    if not np.isfinite(M).all():
        raise StructureError(f"{name} has a non-finite entry", path=path)
    if real and M.imag.any():
        i, j = np.argwhere(M.imag)[0]
        raise StructureError(f"real-field system has complex {name}[{i}][{j}]",
                             path=path)
    return M


def _check_q(Q, tau_rank: float) -> None:
    s = numlin.singular_values(Q)
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


def boundary_form(Q) -> np.ndarray:
    """blockdiag(Q, -Q): Phi^* B Phi = Phi_1^* Q Phi_1 - Phi_0^* Q Phi_0.

    Twice the boundary term of Re <A0 x, x> on the traces Phi = [Phi_1; Phi_0],
    read by T1.5/T3.5, the oracle's cross-check and simulate's boundary power.
    """
    Q = np.asarray(Q, dtype=complex)
    n = Q.shape[0]
    B = np.zeros((2 * n, 2 * n), dtype=complex)
    B[:n, :n] = Q
    B[n:, n:] = -Q
    return B


def derive_boundary_operator(sys: PortHamiltonianSystem) -> tuple[np.ndarray, np.ndarray]:
    """The split (W1, W2), [W1 W2] = WB_hat [Q -Q; I I]^{-1}, of a unit-interval system.

    By the closed-form inverse 0.5 [Q^{-1} I; -Q^{-1} I], W1 = 0.5 (Wh1 - Wh2) Q^{-1}
    and W2 = 0.5 (Wh1 + Wh2) for WB_hat = [Wh1 Wh2], so [W1 W2][Q -Q; I I] =
    WB_hat by construction.  validate_system decided Q invertible; nothing here does.
    """
    if sys.interval != UNIT_INTERVAL:
        raise ShapeError("derive_boundary_operator needs a unit_interval system")
    n = sys.nd
    Wh1, Wh2 = sys.WB_hat[:, :n], sys.WB_hat[:, n:]
    W1 = 0.5 * (Wh1 - Wh2) @ np.linalg.inv(sys.Q)
    W2 = 0.5 * (Wh1 + Wh2)
    return _freeze(W1), _freeze(W2)


def port_variables(phi1, phi0, Q):
    """Flow and effort (f, e) = (1/sqrt2) [Q -Q; I I] [phi1; phi0] of the traces.

    phi1, phi0: x and its derivatives up to order N-1 at z = 1 and z = 0.
    """
    Q = np.asarray(Q, dtype=complex)
    f = Q @ (phi1 - phi0) / np.sqrt(2.0)
    e = (phi1 + phi0) / np.sqrt(2.0)
    return f, e
