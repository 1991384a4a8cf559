"""Well-posedness checks on the half line [0, inf) for first-order systems.

P_1 is Hermitian and invertible, so P_1 = S^* diag(Lambda, Theta) S with S
unitary, Lambda > 0 (n1 x n1) and Theta < 0 (n2 x n2).  A boundary matrix
WB_hat (k x d, full row rank) admits a contraction verdict iff k = n2,
WB_hat = B [U I] S with B invertible, and Lambda + U^* Theta U >= 0; the
independent route tests y^* P_1 y >= 0 on ker WB_hat.  A unitary group
needs k = n1 = n2, both blocks of WB_hat S^* = [U1 U2] invertible and
Lambda + U^* Theta U = 0, read from the same factorization and decided
with the same threshold as TA.4.  Condition ids: TA.3 / TA.4
(contraction) and TA2.3 / TA2.4 (unitary group); HalfLineAlgebra
computes their shared inputs once, and verdict.decide combines them.

The Hamiltonian density never enters the verdicts (the weighted and
unweighted generators are similar); it is checked at validation only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from . import numlin
from .errors import GridTooCoarse, ShapeError, SingularP1
from .model import HALF_LINE, PortHamiltonianSystem
from .verdict import ConditionResult, Verdict, decide


@dataclass(frozen=True)
class HalfLineDecomposition:
    """P_1 = S^* diag(Lambda, Theta) S; positive block first."""

    S: np.ndarray
    Lambda: np.ndarray  # (n1, n1) positive diagonal
    Theta: np.ndarray  # (n2, n2) negative diagonal
    n1: int
    n2: int

    @property
    def delta(self) -> np.ndarray:
        d = self.n1 + self.n2
        out = np.zeros((d, d))
        out[: self.n1, : self.n1] = self.Lambda
        out[self.n1 :, self.n1 :] = self.Theta
        return out


@dataclass(frozen=True)
class BoundaryFactorization:
    """WB_hat = B [U I] S with B (k x k) invertible and U (n2 x n1).

    B and U1 are the trailing and leading blocks of WB_hat S^* (so
    U1 = B U up to rounding); smin_u2 is the smallest singular value of B.
    """

    B: np.ndarray
    U: np.ndarray
    residual: float
    U1: np.ndarray
    smin_u2: float


@dataclass(frozen=True)
class FactorizationFailure:
    """Why WB_hat admits no factorization B [U I] S.

    U1 is the leading block of WB_hat S^* when the split was made (a
    singular trailing block), None otherwise.
    """

    reason: str  # 'wrong_row_count' | 'singular_trailing_block'
    detail: str
    diagnostics: dict = field(default_factory=dict)
    U1: np.ndarray | None = None


def decompose_P1(P1, tol: float = numlin.DEFAULT_TOL) -> HalfLineDecomposition:
    """Unitary diagonalization of Hermitian P_1 with the positive block first.

    Raises SingularP1 when an eigenvalue sits numerically at zero, by the
    one rank rule on the |eigenvalues| (P_1's singular values).
    """
    P1 = np.asarray(P1, dtype=complex)
    S, w = numlin.hermitian_eigendecomposition(P1, tol)
    if numlin.rank_from_singular_values(np.sort(np.abs(w))[::-1], tol) < w.size:
        raise SingularP1("P_1 has an eigenvalue numerically at zero")
    n1 = int(np.sum(w > 0))
    n2 = w.size - n1
    lam = np.diag(w[:n1]) if n1 else np.zeros((0, 0))
    theta = np.diag(w[n1:]) if n2 else np.zeros((0, 0))
    return HalfLineDecomposition(S=S, Lambda=lam, Theta=theta, n1=n1, n2=n2)


def unit_decomposition(n1: int, n2: int) -> HalfLineDecomposition:
    """Decomposition with S = I, Lambda = I, Theta = -I (testing convenience)."""
    d = n1 + n2
    lam = np.eye(n1) if n1 else np.zeros((0, 0))
    theta = -np.eye(n2) if n2 else np.zeros((0, 0))
    return HalfLineDecomposition(S=np.eye(d, dtype=complex), Lambda=lam,
                                 Theta=theta, n1=n1, n2=n2)


def factorize_boundary(WB_hat, decomp: HalfLineDecomposition, tol: float = None):
    """Factor WB_hat as B [U I] S, or explain why that is impossible.

    Needs k = n2 and an invertible trailing block of WB_hat S^*, which
    also makes WB_hat full row rank (analyze_halfline reduces the rows
    first; a raw rank-deficient WB_hat fails on one of the two).  A
    singular trailing block always certifies failure of the kernel test
    as well: some (0, u) lies in the kernel and u^* Theta u < 0.
    """
    if tol is None:
        tol = numlin.DEFAULT_TOL
    WB_hat = np.asarray(WB_hat, dtype=complex)
    k, d = WB_hat.shape
    if d != decomp.n1 + decomp.n2:
        raise ShapeError(f"WB_hat width {d} does not match P_1 size")
    if k != decomp.n2:
        return FactorizationFailure(
            "wrong_row_count",
            f"need exactly n2 = {decomp.n2} independent conditions, got {k}",
            {"k": float(k), "n2": float(decomp.n2)})
    split = WB_hat @ decomp.S.conj().T
    U1, U2 = split[:, : decomp.n1], split[:, decomp.n1 :]
    smin_u2 = 0.0
    if k:
        s = np.linalg.svd(U2, compute_uv=False)
        smin_u2 = float(s[-1])
        if numlin.rank_from_singular_values(s, tol) < k:
            return FactorizationFailure(
                "singular_trailing_block",
                "the negative-block columns of WB_hat S^* are singular",
                {"smin_u2": smin_u2}, U1)
    U = np.linalg.solve(U2, U1) if k else np.zeros((0, decomp.n1), dtype=complex)
    eye = np.eye(decomp.n2, dtype=complex)
    recon = U2 @ np.hstack([U, eye]) @ decomp.S if k else WB_hat
    residual = numlin.operator_norm(recon - WB_hat)
    return BoundaryFactorization(B=U2, U=U, residual=residual, U1=U1, smin_u2=smin_u2)


@dataclass(frozen=True)
class HalfLineAlgebra:
    """Every input the half-line conditions share, each computed once.

    One SVD of WB_hat gives its rank, its kernel basis and its extreme
    singular values; dependent rows are replaced by the orthonormal rows
    of the same SVD that span the row space (same kernel).  One split
    WB_eff S^* = [U1 U2] feeds the factorization and both block tests, and
    M = Lambda + U^* Theta U is classified once.  The equivalent criteria
    stay separate entries -- the kernel form (TA.3, TA2.3) against the
    factorization (TA.4, TA2.4) -- so their agreement still detects a bug.
    Every decision uses the one threshold Tolerances.check.
    """

    decomp: HalfLineDecomposition
    k: int  # rank of WB_hat, the row count of WB_eff
    re_p0: numlin.DefinitenessReport
    kernel: numlin.DefinitenessReport  # y^* P_1 y on ker WB_hat
    kernel_dim: int
    smin_wb_hat: float | None  # None when WB_hat has no rows
    smax_wb_hat: float | None
    fact: BoundaryFactorization | FactorizationFailure | None  # None when k > n2
    lambda_utu: numlin.DefinitenessReport | None  # when the factorization exists
    smin_u1: float | None  # this and the next two only when k = n1 = n2
    smin_u2: float | None
    blocks_invertible: bool | None  # both U1 and U2

    @classmethod
    def of(cls, sys: PortHamiltonianSystem) -> "HalfLineAlgebra":
        tol = sys.tol.check
        decomp = decompose_P1(sys.P[1], sys.tol.tau_rank)
        n1, n2 = decomp.n1, decomp.n2
        WB = np.asarray(sys.WB_hat, dtype=complex)
        K, WB_eff, smin, smax = np.eye(WB.shape[1], dtype=complex), WB, None, None
        if WB.shape[0]:
            _, s, vh = np.linalg.svd(WB)
            smin, smax = float(s[-1]), float(s[0])
            rank = numlin.rank_from_singular_values(s, tol)
            K = vh[rank:].conj().T
            if rank < WB.shape[0]:
                WB_eff = vh[:rank]  # orthonormal rows with the same kernel
        k = WB_eff.shape[0]
        fact = lam = smin_u1 = smin_u2 = invertible = None
        if k <= n2:
            fact = factorize_boundary(WB_eff, decomp, tol)
            factored = isinstance(fact, BoundaryFactorization)
            if factored:
                lam = numlin.definiteness(
                    decomp.Lambda + fact.U.conj().T @ decomp.Theta @ fact.U, tol)
            if k == n1 == n2:
                s1 = np.linalg.svd(fact.U1, compute_uv=False)
                smin_u1 = float(s1[-1])
                smin_u2 = fact.smin_u2 if factored else fact.diagnostics["smin_u2"]
                invertible = factored and numlin.rank_from_singular_values(s1, tol) == k
        return cls(
            decomp=decomp,
            k=k,
            re_p0=numlin.definiteness(sys.re_P0(), tol),
            kernel=numlin.definiteness(
                K.conj().T @ np.asarray(sys.P[1], dtype=complex) @ K, tol),
            kernel_dim=K.shape[1],
            smin_wb_hat=smin,
            smax_wb_hat=smax,
            fact=fact,
            lambda_utu=lam,
            smin_u1=smin_u1,
            smin_u2=smin_u2,
            blocks_invertible=invertible,
        )


def _contraction_conditions(alg: HalfLineAlgebra):
    """TA.3 from the kernel form, TA.4 from the factorization."""
    p0, fact, n2 = alg.re_p0, alg.fact, alg.decomp.n2
    ta3 = ConditionResult(
        "TA.3", True, alg.kernel.is_psd and p0.is_nsd,
        {
            "kernel_dim": float(alg.kernel_dim),
            "min_eig_kernel_form": alg.kernel.min_eig,
            "re_p0_max_eig": p0.max_eig,
        },
    )
    counts = {"k": float(alg.k), "n2": float(n2)}
    if fact is None:
        ta4 = ConditionResult("TA.4", False, None, counts,
                              reason=f"needs k <= n2 = {n2}, got k = {alg.k}")
    elif isinstance(fact, FactorizationFailure):
        ta4 = ConditionResult("TA.4", True, False, {**counts, **fact.diagnostics},
                              reason=fact.detail)
    else:
        ta4 = ConditionResult(
            "TA.4", True, alg.lambda_utu.is_psd and p0.is_nsd,
            {
                "min_eig_lambda_utu": alg.lambda_utu.min_eig,
                "factorization_residual": fact.residual,
                "re_p0_max_eig": p0.max_eig,
            },
        )
    return ta3, ta4


def _unitary_conditions(alg: HalfLineAlgebra):
    """TA2.3 from the kernel form, TA2.4 from TA.4's factorization."""
    p0, k, n1, n2 = alg.re_p0, alg.k, alg.decomp.n1, alg.decomp.n2
    ta23 = ConditionResult(
        "TA2.3", True, alg.kernel.is_zero and p0.is_zero,
        {
            "kernel_dim": float(alg.kernel_dim),
            "norm_kernel_form": alg.kernel.norm,
            "re_p0_norm": p0.norm,
        },
    )
    counts = {"k": float(k), "n1": float(n1), "n2": float(n2)}
    if k > min(n1, n2):
        ta24 = ConditionResult(
            "TA2.4", False, None, counts,
            reason=f"needs k <= min(n1, n2) = {min(n1, n2)}, got k = {k}")
    elif not k == n1 == n2:
        ta24 = ConditionResult("TA2.4", True, False, counts,
                               reason="unitary generation needs k = n1 = n2")
    elif not alg.blocks_invertible:
        ta24 = ConditionResult(
            "TA2.4", True, False, {"smin_u1": alg.smin_u1, "smin_u2": alg.smin_u2},
            reason="both blocks of WB_hat S^* must be invertible")
    else:
        ta24 = ConditionResult(
            "TA2.4", True, alg.lambda_utu.is_zero and p0.is_zero,
            {
                "norm_lambda_utu": alg.lambda_utu.norm,
                "smin_u1": alg.smin_u1,
                "smin_u2": alg.smin_u2,
                "re_p0_norm": p0.norm,
            },
        )
    return ta23, ta24


def analyze_halfline(sys: PortHamiltonianSystem) -> Verdict:
    """Run both contraction routes and both unitary routes, cross-checked.

    Row-rank-deficient WB_hat is reduced to an orthonormal-row
    representative (same kernel) with a warning before any row counting.
    """
    if sys.interval != HALF_LINE:
        raise ShapeError("analyze_halfline needs a half_line system")
    alg = HalfLineAlgebra.of(sys)
    warnings = []
    if alg.k < sys.n_conditions:
        warnings.append(
            f"WB_hat rows are linearly dependent; reduced {sys.n_conditions} rows "
            f"to {alg.k} with the same kernel")
    ta3, ta4 = _contraction_conditions(alg)
    ta23, ta24 = _unitary_conditions(alg)
    consensus, unitary, discrepancy = decide(
        [ta3, ta4], [ta23, ta24], ta3, ta23, ta4.applicable, ta24.applicable)
    return Verdict((ta3, ta4, ta23, ta24), consensus, unitary, discrepancy,
                   tuple(warnings))


class CubicSpline:
    """Not-a-knot cubic spline through samples on a uniform grid.

    The call shape of scipy.interpolate.CubicSpline(x, y, axis) with its
    default end condition, for uniform x only (importing scipy.interpolate
    for this one use would double the import time of phwell).  The knot
    slopes s solve scipy's uniform-grid rows in one tridiagonal solve,
    s[i-1] + 4 s[i] + s[i+1] = 3 (m[i-1] + m[i]) inside with m the secant
    slopes, s[0] + 2 s[1] = (5 m[0] + m[1]) / 2 first and the mirror row
    last.  Each cell is the cubic Hermite form of its end values and
    slopes; points beyond the grid continue the end cells.
    """

    def __init__(self, x, y, axis: int = 0):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        n = x.size
        if x.ndim != 1 or n < 4 or y.ndim == 0 or y.shape[axis] != n:
            raise ShapeError(f"spline needs at least 4 points, the same in x and "
                             f"along axis {axis} of y; got {x.shape} and {y.shape}")
        self.axis = axis % y.ndim
        y = np.moveaxis(y, axis, 0)
        h = (x[-1] - x[0]) / (n - 1)
        if not (np.isfinite(h) and h > 0 and
                np.max(np.abs(np.diff(x) - h)) <= 1e-9 * h):
            raise ShapeError("spline grid must be uniform and increasing")
        self.x, self.h, self.trailing = x, h, y.shape[1:]
        self.y = y.reshape(n, -1)
        m = np.diff(self.y, axis=0) / h
        rhs = np.empty((n, m.shape[1]), dtype=m.dtype)
        rhs[1:-1] = 3.0 * (m[:-1] + m[1:])
        rhs[0] = 0.5 * (5.0 * m[0] + m[1])
        rhs[-1] = 0.5 * (m[-2] + 5.0 * m[-1])
        ab = np.ones((3, n))
        ab[1, 1:-1] = 4.0
        ab[0, 1] = ab[2, -2] = 2.0
        self.s = solve_banded((1, 1), ab, rhs, check_finite=False)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xq = x.ravel()
        i = np.clip(np.floor((xq - self.x[0]) / self.h).astype(int),
                    0, self.x.size - 2)
        u = ((xq - self.x[i]) / self.h)[:, None]
        y0, dy = self.y[i], self.y[i + 1] - self.y[i]
        s0, s1 = self.h * self.s[i], self.h * self.s[i + 1]
        out = y0 + u * (s0 + u * (3.0 * dy - 2.0 * s0 - s1
                                  + u * (s0 + s1 - 2.0 * dy)))
        out = out.reshape(x.shape + self.trailing)
        return np.moveaxis(out, range(x.ndim),
                           range(self.axis, self.axis + x.ndim))


def solve_resolvent_halfline(decomp: HalfLineDecomposition, U, y,
                             L: float = None, n_cells: int = 3000,
                             residual_threshold: float = None):
    """Solve v - diag(Lambda, Theta) v' = y with the coupling U v1(0) + v2(0) = 0.

    y: either an array (n1+n2, n+1) of samples on the uniform grid over
    [0, L], or a callable t -> vector, sampled on the default grid
    (L = 30 * max Lambda, step L / n_cells).  The data should be
    negligible near L (the half-line tail is truncated).  U must be
    (n2, n1) when n2 > 0 (ShapeError otherwise).

    Each block is one bidiagonal banded solve over all its components.
    The positive block evaluates the decaying-kernel integral by a
    composite trapezoid rule, the exact backward recurrence
    x_j = a x_{j+1} + f_j with a = exp(-h / lambda) and x_n = 0: an
    upper-bidiagonal system.  The negative block integrates the stable
    ODE v' = Theta^{-1}(v - y) forward with classical fourth-order steps;
    Theta is diagonal, so each step is affine, w_{j+1} = R(h / theta) w_j
    + g_j, with R the RK4 stability polynomial and g_j one step from
    w = 0: a lower-bidiagonal system started from v2(0) = -U v1(0).  The
    half-step samples of y come from this module's not-a-knot CubicSpline,
    built once per call with one tridiagonal solve.  Returns (v, residual)
    with the residual measured as the max over interior nodes of
    |v - Delta v' - y| using fourth-order central differences; raises
    GridTooCoarse above residual_threshold.
    """
    n1, n2 = decomp.n1, decomp.n2
    d = n1 + n2
    if n2:
        U = np.asarray(U, dtype=complex)
        if U.shape != (n2, n1):
            raise ShapeError(f"U must be ({n2}, {n1}), got {U.shape}")
    if L is None:
        lam_max = float(np.max(np.diag(decomp.Lambda))) if n1 else 1.0
        L = 30.0 * lam_max
    if callable(y):
        grid = np.linspace(0.0, L, n_cells + 1)
        y = np.stack([np.asarray(y(float(tt)), dtype=complex).reshape(d)
                      for tt in grid], axis=1)
    y = np.asarray(y, dtype=complex)
    if y.ndim != 2 or y.shape[0] != d:
        raise ShapeError(f"y must be ({d}, n+1), got {y.shape}")
    npts = y.shape[1]
    if npts < 6:
        raise GridTooCoarse("need at least 6 grid points", residual=np.inf)
    h = L / (npts - 1)
    t = np.linspace(0.0, L, npts)
    v = np.zeros((d, npts), dtype=complex)

    lam = np.diag(decomp.Lambda).real
    if n1:
        # rows j < n-1: x_j - a x_{j+1} = f_j; row n-1: x_{n-1} = 0
        decay = np.exp(-h / lam)[:, None]
        yl = y[:n1] / lam[:, None]
        rhs = np.zeros((n1, npts), dtype=complex)
        rhs[:, :-1] = 0.5 * h * (yl[:, :-1] + decay * yl[:, 1:])
        ab = np.ones((2, n1, npts))
        ab[0, :, 0] = 0.0  # no coupling into a component's first row
        ab[0, :, 1:] = -decay
        v[:n1] = solve_banded((0, 1), ab.reshape(2, -1), rhs.reshape(-1),
                              check_finite=False).reshape(n1, npts)

    theta = np.diag(decomp.Theta).real
    if n2:
        v[n1:, 0] = -U @ v[:n1, 0]
        th = theta[:, None]
        z = h / theta
        R = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
        y0, y1 = y[n1:, :-1], y[n1:, 1:]
        ym = CubicSpline(t, y[n1:], axis=1)(t[:-1] + 0.5 * h)
        k1 = -y0 / th
        k2 = (0.5 * h * k1 - ym) / th
        k3 = (0.5 * h * k2 - ym) / th
        k4 = (h * k3 - y1) / th
        g = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        # rows j = 1..n-1: w_j - R w_{j-1} = g_{j-1}, with R w_0 moved right
        g[:, 0] += R * v[n1:, 0]
        ab = np.ones((2, n2, npts - 1))
        ab[1, :, :-1] = -R[:, None]
        ab[1, :, -1] = 0.0  # no coupling out of a component's last row
        v[n1:, 1:] = solve_banded((1, 0), ab.reshape(2, -1), g.reshape(-1),
                                  check_finite=False).reshape(n2, npts - 1)

    # residual with 4th-order central differences on interior nodes
    delta = np.concatenate([lam, theta])
    dv = (v[:, :-4] - 8 * v[:, 1:-3] + 8 * v[:, 3:-1] - v[:, 4:]) / (12.0 * h)
    mid = v[:, 2:-2]
    res = mid - delta[:, None] * dv - y[:, 2:-2]
    residual = float(np.max(np.abs(res))) if res.size else 0.0
    if residual_threshold is not None and residual > residual_threshold:
        raise GridTooCoarse(
            f"resolvent residual {residual:.3e} above {residual_threshold:.3e}; "
            "refine the grid", residual=residual)
    return v, residual
