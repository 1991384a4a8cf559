"""Well-posedness checks on the half line [0, inf) for first-order systems.

P_1 is Hermitian and invertible, so P_1 = S^* diag(Lambda, Theta) S with S
unitary, Lambda > 0 (n1 eigenvalues) and Theta < 0 (n2).  A boundary matrix
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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import numlin
from .errors import GridTooCoarse, PhwellError, ShapeError, SingularP1
from .model import HALF_LINE, PortHamiltonianSystem, is_real
from .verdict import ConditionResult, Verdict, decide


@dataclass(frozen=True)
class HalfLineDecomposition:
    """P_1 = S^* diag(Lambda, Theta) S; positive block first.

    Lambda (n1 entries, > 0) and Theta (n2 entries, < 0) are eigenvalue vectors.
    """

    S: np.ndarray
    Lambda: np.ndarray
    Theta: np.ndarray

    @property
    def n1(self) -> int:
        return self.Lambda.size

    @property
    def n2(self) -> int:
        return self.Theta.size


@dataclass(frozen=True)
class BoundaryFactorization:
    """WB_hat = B [U I] S with B (k x k) invertible and U (n2 x n1), or why not.

    U1 and B are the leading and trailing blocks of WB_hat S^* (so
    U1 = B U up to rounding); smin_u2 is the smallest singular value of B.
    On failure U and residual are None and reason says why, with detail;
    U1 and smin_u2 are then set only when the split was made (a singular
    trailing block).  On success reason and detail are None.
    """

    U: np.ndarray | None
    residual: float | None
    U1: np.ndarray | None
    smin_u2: float | None
    reason: str | None = None  # 'wrong_row_count' | 'singular_trailing_block'
    detail: str | None = None


def decompose_P1(P1, tol: float = numlin.DEFAULT_TOL) -> HalfLineDecomposition:
    """Unitary diagonalization of Hermitian P_1 with the positive block first.

    P1 is a matrix, or a validated N = 1 system, whose split validation
    has already made (sys.P1_split): it is read, not solved again, and tol
    is not used.  A matrix raises SingularP1 when an eigenvalue sits
    numerically at zero, by the one rank rule on the |eigenvalues| (P_1's
    singular values), as validation refuses such a system.
    """
    if isinstance(P1, PortHamiltonianSystem):
        if P1.P1_split is None:
            raise ShapeError(f"decompose_P1 needs an N = 1 system, got N = {P1.order_N}")
        S, w = P1.P1_split
    else:
        S, w = numlin.hermitian_eigendecomposition(np.asarray(P1, dtype=complex), tol)
        if numlin.rank_from_singular_values(np.sort(np.abs(w))[::-1], tol) < w.size:
            raise SingularP1("P_1 has an eigenvalue numerically at zero")
    n1 = int(np.sum(w > 0))
    return HalfLineDecomposition(S=S, Lambda=w[:n1], Theta=w[n1:])


def unit_decomposition(n1: int, n2: int) -> HalfLineDecomposition:
    """Decomposition with S = I, Lambda = 1, Theta = -1 (testing convenience)."""
    return HalfLineDecomposition(S=np.eye(n1 + n2, dtype=complex),
                                 Lambda=np.ones(n1), Theta=-np.ones(n2))


def factorize_boundary(WB_hat, decomp: HalfLineDecomposition,
                       tol: float = numlin.DEFAULT_TOL) -> BoundaryFactorization:
    """Factor WB_hat as B [U I] S, or explain why that is impossible.

    Needs k = n2 and an invertible trailing block of WB_hat S^*, which
    also makes WB_hat full row rank (analyze_halfline reduces the rows
    first; a raw rank-deficient WB_hat fails on one of the two).  A
    singular trailing block always certifies failure of the kernel test
    as well: some (0, u) lies in the kernel and u^* Theta u < 0.  Every
    path returns a BoundaryFactorization; when none exists, its U is None
    and its reason says which requirement failed.
    """
    WB_hat = np.asarray(WB_hat, dtype=complex)
    k, d = WB_hat.shape
    if d != decomp.n1 + decomp.n2:
        raise ShapeError(f"WB_hat width {d} does not match P_1 size")
    if k != decomp.n2:
        return BoundaryFactorization(
            None, None, None, None, "wrong_row_count",
            f"need exactly n2 = {decomp.n2} independent conditions, got {k}")
    split = WB_hat @ decomp.S.conj().T
    U1, U2 = split[:, : decomp.n1], split[:, decomp.n1 :]
    s = numlin.singular_values(U2)
    smin_u2 = float(s[-1])
    if numlin.rank_from_singular_values(s, tol) < k:
        return BoundaryFactorization(
            None, None, U1, smin_u2, "singular_trailing_block",
            "the negative-block columns of WB_hat S^* are singular")
    U = np.linalg.solve(U2, U1)
    recon = U2 @ np.hstack([U, np.eye(k, dtype=complex)]) @ decomp.S
    residual = numlin.operator_norm(recon - WB_hat)
    return BoundaryFactorization(U=U, residual=residual, U1=U1, smin_u2=smin_u2)


@dataclass(frozen=True)
class HalfLineAlgebra:
    """Every input the half-line conditions share, each computed once.

    of(sys) reads the system alone, as interval.BoundaryAlgebra.of does.
    One SVD of WB_hat gives its rank, its kernel basis and its extreme
    singular values; dependent rows are replaced by the orthonormal rows
    of the same SVD that span the row space (same kernel).  One split
    WB_eff S^* = [U1 U2] feeds the factorization and both block tests, and
    M = Lambda + U^* Theta U is classified once.  The equivalent criteria
    stay separate entries -- the kernel form (TA.3, TA2.3) against the
    factorization (TA.4, TA2.4) -- so their agreement still detects a bug.
    Every condition decision uses Tolerances.check; the sign split of P_1
    that they all start from is validation's (decompose_P1 of the system),
    whose zero eigenvalues were counted with Tolerances.tau_rank.
    """

    decomp: HalfLineDecomposition
    k: int  # rank of WB_hat, the row count of WB_eff
    re_p0: numlin.DefinitenessReport
    kernel: numlin.DefinitenessReport  # y^* P_1 y on ker WB_hat
    kernel_dim: int
    smin_wb_hat: float  # 0.0 when WB_hat has no rows, as on the interval
    smax_wb_hat: float
    fact: BoundaryFactorization
    lambda_utu: numlin.DefinitenessReport | None  # when the factorization exists
    smin_u1: float | None  # this and the next only when k = n1 = n2
    blocks_invertible: bool | None  # both U1 and U2

    @classmethod
    def of(cls, sys: PortHamiltonianSystem) -> "HalfLineAlgebra":
        tol = sys.tol.check
        decomp = decompose_P1(sys)
        n1, n2 = decomp.n1, decomp.n2
        WB = np.asarray(sys.WB_hat, dtype=complex)
        s, rank, vh = numlin.svd_rank(WB, tol)
        K = vh[rank:].conj().T
        # dependent rows give way to orthonormal rows with the same kernel
        WB_eff = vh[:rank] if rank < WB.shape[0] else WB
        k = WB_eff.shape[0]
        fact = factorize_boundary(WB_eff, decomp, tol)
        factored = fact.U is not None
        lam = smin_u1 = invertible = None
        if factored:
            lam = numlin.definiteness(np.diag(decomp.Lambda) + fact.U.conj().T
                                      @ np.diag(decomp.Theta) @ fact.U, tol)
        if k == n1 == n2:
            s1 = numlin.singular_values(fact.U1)
            smin_u1 = float(s1[-1])
            invertible = factored and numlin.rank_from_singular_values(s1, tol) == k
        return cls(
            decomp=decomp,
            k=k,
            re_p0=numlin.definiteness(sys.re_P0(), tol),
            kernel=numlin.definiteness(
                K.conj().T @ np.asarray(sys.P[1], dtype=complex) @ K, tol),
            kernel_dim=K.shape[1],
            smin_wb_hat=float(s[-1]),
            smax_wb_hat=float(s[0]),
            fact=fact,
            lambda_utu=lam,
            smin_u1=smin_u1,
            blocks_invertible=invertible,
        )


def _contraction_conditions(alg: HalfLineAlgebra):
    """TA.3 from the kernel form, TA.4 from the factorization."""
    p0, fact, n2 = alg.re_p0, alg.fact, alg.decomp.n2
    ta3 = ConditionResult(
        "TA.3", alg.kernel.is_psd and p0.is_nsd,
        {
            "kernel_dim": float(alg.kernel_dim),
            "min_eig_kernel_form": alg.kernel.min_eig,
            "re_p0_max_eig": p0.max_eig,
        },
    )
    counts = {"k": float(alg.k), "n2": float(n2)}
    if alg.k > n2:
        ta4 = ConditionResult("TA.4", None, counts,
                              reason=f"needs k <= n2 = {n2}, got k = {alg.k}")
    elif fact.U is None:
        if fact.smin_u2 is not None:
            counts["smin_u2"] = fact.smin_u2
        ta4 = ConditionResult("TA.4", False, counts, reason=fact.detail)
    else:
        ta4 = ConditionResult(
            "TA.4", alg.lambda_utu.is_psd and p0.is_nsd,
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
        "TA2.3", alg.kernel.is_zero and p0.is_zero,
        {
            "kernel_dim": float(alg.kernel_dim),
            "norm_kernel_form": alg.kernel.norm,
            "re_p0_norm": p0.norm,
        },
    )
    counts = {"k": float(k), "n1": float(n1), "n2": float(n2)}
    if k > min(n1, n2):
        ta24 = ConditionResult(
            "TA2.4", None, counts,
            reason=f"needs k <= min(n1, n2) = {min(n1, n2)}, got k = {k}")
    elif not k == n1 == n2:
        ta24 = ConditionResult("TA2.4", False, counts,
                               reason="unitary generation needs k = n1 = n2")
    elif not alg.blocks_invertible:
        ta24 = ConditionResult(
            "TA2.4", False, {"smin_u1": alg.smin_u1, "smin_u2": alg.fact.smin_u2},
            reason="both blocks of WB_hat S^* must be invertible")
    else:
        ta24 = ConditionResult(
            "TA2.4", alg.lambda_utu.is_zero and p0.is_zero,
            {
                "norm_lambda_utu": alg.lambda_utu.norm,
                "smin_u1": alg.smin_u1,
                "smin_u2": alg.fact.smin_u2,
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
    consensus, unitary, discrepancy = decide([ta3, ta4], [ta23, ta24])
    return Verdict((ta3, ta4, ta23, ta24), consensus, unitary, discrepancy,
                   tuple(warnings))


@lru_cache(maxsize=8)
def _spline_factor(n: int):
    """Read-only ?pttrf factor (d, e) of CubicSpline's n x n slope matrix, per process.

    The matrix depends on n alone.  LAPACK's ?ptsv is ?pttrf followed by
    ?pttrs, so solving with this factor gives ?ptsv's slopes bit for bit.
    """
    from scipy.linalg import get_lapack_funcs

    diag = np.full(n, 4.0)
    diag[0] = diag[-1] = 0.5
    d, e, _ = get_lapack_funcs("pttrf", dtype=float)(diag, np.ones(n - 1))
    d.flags.writeable = e.flags.writeable = False
    return d, e


class CubicSpline:
    """Not-a-knot cubic spline through samples y[..., j] at step h, midpoints only.

    The interpolant of scipy.interpolate.CubicSpline with its default end
    condition on a uniform grid along the last axis of y (importing
    scipy.interpolate for this one use would double the import time of
    phwell).  The knot slopes s solve scipy's uniform-grid rows,
    s[i-1] + 4 s[i] + s[i+1] = 3 (m[i-1] + m[i]) inside with m the secant
    slopes, s[0] + 2 s[1] = (5 m[0] + m[1]) / 2 first and the mirror row
    last.  With the two end rows halved the matrix is symmetric positive
    definite (diagonal 0.5, 4, ..., 4, 0.5, off-diagonal 1; its LDL^T
    pivots are at least 0.21 for n >= 4), so s comes from one LAPACK ?pttrs
    solve in float64, complex samples as their float view, with the ?pttrf
    factor of _spline_factor(n).  Needs n >= 4 samples; h is taken as
    given.  scipy.linalg loads at the first build, not when phwell is
    imported.  A build takes the secants as one slice difference (np.diff
    costs three times as much on a short grid), forms the right-hand side
    and makes the one solve; midpoints() is five array operations.
    """

    def __init__(self, y, h: float):
        from scipy.linalg import get_lapack_funcs

        y = np.asarray(y)
        n = y.shape[-1] if y.ndim else 0
        if n < 4:
            raise ShapeError(f"spline needs at least 4 samples along the last "
                             f"axis, got shape {y.shape}")
        self.h, self.lead = h, y.shape[:-1]
        self.y = y.reshape(-1, n).T
        dy = self.y[1:] - self.y[:-1]
        rhs = np.empty((n, dy.shape[1]), dtype=np.result_type(dy, float))
        np.add(dy[:-1], dy[1:], out=rhs[1:-1])
        rhs[1:-1] *= 3.0 / h
        rhs[0] = (5.0 * dy[0] + dy[1]) / (4.0 * h)
        rhs[-1] = (dy[-2] + 5.0 * dy[-1]) / (4.0 * h)
        pttrs = get_lapack_funcs("pttrs", dtype=float)
        s = pttrs(*_spline_factor(n), rhs.view(float), overwrite_b=1)[0]
        self.s = np.ascontiguousarray(s).view(rhs.dtype)

    def midpoints(self) -> np.ndarray:
        """The spline at the n - 1 cell midpoints, shaped like y[..., :-1].

        At u = 1/2 the Hermite form is (y_j + y_j+1) / 2 + h (s_j - s_j+1) / 8.
        """
        ym = np.add(self.y[:-1], self.y[1:], dtype=self.s.dtype)
        ym *= 0.5
        ds = np.subtract(self.s[:-1], self.s[1:])
        ds *= 0.125 * self.h
        ym += ds
        return ym.T.reshape(self.lead + (-1,))


def _numbers(name: str, a) -> np.ndarray:
    """a as an array; PhwellError unless it holds integers, floats or complex numbers."""
    a = np.asarray(a)
    if a.dtype.kind not in "iufc":
        raise PhwellError(f"{name} must hold numbers, got dtype {a.dtype}")
    return a


def solve_resolvent_halfline(decomp: HalfLineDecomposition, U, y, L: float,
                             residual_threshold: float = None):
    """Solve v - diag(Lambda, Theta) v' = y with the coupling U v1(0) + v2(0) = 0.

    y: an array (n1+n2, n+1) of samples on the uniform grid over [0, L].
    The data should be negligible near L (the half-line tail is
    truncated).  Lambda must be finite and > 0 and Theta finite and < 0,
    L a finite real number > 0 and residual_threshold None or a finite real
    number >= 0, a bool being no number, and y and U (when n2 > 0) must hold
    integers, floats or complex numbers (PhwellError otherwise); U must be
    (n2, n1) when n2 > 0 (ShapeError otherwise).

    Each block is one unit-triangular band sweep (BLAS ?tbsv, k = 1)
    over all its components, done in place in v.  The positive block
    evaluates the decaying-kernel integral by a composite trapezoid rule,
    the exact backward recurrence x_j = a x_{j+1} + f_j with
    a = exp(-h / lambda) and x_n = 0: an upper-bidiagonal system.  The
    negative block integrates the stable ODE v' = Theta^{-1}(v - y)
    forward with classical fourth-order steps; Theta acts componentwise, so each
    step is affine, w_{j+1} = R(h / theta) w_j + g_j, with R the RK4
    stability polynomial and g_j one step from w = 0: a lower-bidiagonal
    system started from v2(0) = -U v1(0).  The step term is linear in the
    cell's samples, g_j = a y_j + b ym_j + c y_{j+1} with z = h / theta,
    a = -h/(6 theta) (1 + z + z^2/2 + z^3/4), b = -h/(6 theta)
    (4 + 2 z + z^2/2) and c = -h/(6 theta).  The half-step samples ym are
    the midpoints of this module's not-a-knot CubicSpline, built from the
    negative block's samples and the step h, and read off its knot slopes
    as (y_j + y_{j+1}) / 2 + h (s_j - s_{j+1}) / 8; the spline costs one
    ?pttrs solve per call with the ?pttrf factor kept for the grid size.
    The work is done in float64 unless y or U is complex, then in
    complex128; v is returned as complex128 either way.  A real run
    allocates that result first and uses its float view as the scratch of
    the band sweeps and the residual.  Returns (v, residual) with the residual
    measured as the max over interior nodes of |v - Delta v' - y| using
    fourth-order central differences; raises GridTooCoarse when it is not
    <= residual_threshold (a NaN residual included).

    Per call, the fixed work is O(d) Python steps: Lambda and Theta are
    checked as Python floats, and each component's scalars (0.5 h / lambda,
    R, a, b, c and the residual scale Delta / 12h) are computed once as
    Python floats, the same IEEE operations in the same order as on arrays;
    exp(-h / lambda) stays numpy's, which can differ from libm's.  v comes
    from np.empty: the sweeps write every entry but the positive block's
    last column, which is set to 0.
    """
    from scipy.linalg import get_blas_funcs

    n1, n2 = decomp.n1, decomp.n2
    d = n1 + n2
    lam, theta = decomp.Lambda.tolist(), decomp.Theta.tolist()
    if not (all(0.0 < x < math.inf for x in lam)
            and all(-math.inf < x < 0.0 for x in theta)):
        raise PhwellError("Lambda must be finite and > 0 and Theta finite and < 0, "
                          f"got {decomp.Lambda} and {decomp.Theta}")
    if n2:
        U = _numbers("U", U)
        if U.shape != (n2, n1):
            raise ShapeError(f"U must be ({n2}, {n1}), got {U.shape}")
        if U.dtype.kind in "iu":  # -U would wrap for an unsigned or int8 U
            U = U.astype(float)
    if not (is_real(L) and 0.0 < L < math.inf):
        raise PhwellError(f"L must be a finite number > 0, got {L}")
    if residual_threshold is not None and not (
            is_real(residual_threshold) and 0.0 <= residual_threshold < math.inf):
        raise PhwellError("residual_threshold must be None or a finite number >= 0, "
                          f"got {residual_threshold!r}")
    y = _numbers("y", y)
    dtype = complex if y.dtype.kind == "c" or (n2 and U.dtype.kind == "c") else float
    y = y.astype(dtype, copy=False)
    if y.ndim != 2 or y.shape[0] != d:
        raise ShapeError(f"y must be ({d}, n+1), got {y.shape}")
    npts = y.shape[1]
    if npts < 6:
        raise GridTooCoarse("need at least 6 grid points", residual=math.inf)
    h = L / (npts - 1)
    # every entry of v is written below but the positive block's last column
    v = np.empty((d, npts), dtype=dtype)
    # work holds each block's bands, then the residual: in a real run it is
    # the float view of the complex128 result, which gets v at the end
    out = np.empty((d, npts), dtype=complex) if dtype is float else v
    work = out.view(float) if dtype is float else np.empty((d, 2 * npts), dtype)
    # ?tbsv reads a column-major (2, n) band, band.reshape(-1, 2).T here;
    # with diag=1 it reads only the off-diagonal: band[..., 0] above the
    # unit diagonal (lower=0), band[..., 1] below it (lower=1).  Each
    # block's rows of v are contiguous, so the sweep overwrites them.
    tbsv = get_blas_funcs("tbsv", dtype=dtype)

    if n1:
        # rows j < n-1: x_j - a x_{j+1} = f_j; row n-1: x_{n-1} = 0
        band = work[:n1].reshape(n1, npts, 2)
        band[:, 0, 0] = 0.0  # no coupling into a component's first row
        v[:n1, -1] = 0.0  # row n-1's right-hand side
        # numpy's exp, which can differ from libm's in the last bit
        decay = np.exp(-h / decomp.Lambda).tolist()
        for i, (lam_i, a) in enumerate(zip(lam, decay)):
            f = v[i, :-1]
            np.multiply(y[i, 1:], a, out=f)
            f += y[i, :-1]
            f *= 0.5 * h / lam_i
            band[i, 1:, 0] = -a
        tbsv(1, band.reshape(-1, 2).T, v[:n1].reshape(-1), lower=0, diag=1,
             overwrite_x=1)

    if n2:
        # row 0: w_0 = -U v1(0); rows j >= 1: w_j - R w_{j-1} = g_{j-1}
        v[n1:, 0] = -U @ v[:n1, 0]
        ym = CubicSpline(y[n1:], h).midpoints()
        band = work[n1:].reshape(n2, npts, 2)
        band[:, -1, 1] = 0.0  # no coupling out of a component's last row
        for i, theta_i in enumerate(theta, start=n1):
            z = h / theta_i
            R = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
            c = -h / (6.0 * theta_i)
            a = c * (1.0 + z * (1.0 + z * (0.5 + 0.25 * z)))
            b = c * (4.0 + z * (2.0 + 0.5 * z))
            g = v[i, 1:]
            np.multiply(ym[i - n1], b, out=g)
            g += a * y[i, :-1]
            g += c * y[i, 1:]
            band[i - n1, :-1, 1] = -R
        tbsv(1, band.reshape(-1, 2).T, v[n1:].reshape(-1), lower=1, diag=1,
             overwrite_x=1)

    # residual with 4th-order central differences on interior nodes:
    # Delta v' - v + y, the stencil 8 (v3 - v1) + v0 - v4 scaled by Delta / 12h
    res = np.subtract(v[:, 3:-1], v[:, 1:-3], out=work[:, :npts - 4])
    res *= 8.0
    res += v[:, :-4]
    res -= v[:, 4:]
    for i, delta in enumerate(lam + theta):
        res[i] *= delta / (12.0 * h)
    res -= v[:, 2:-2]
    res += y[:, 2:-2]
    np.abs(res, out=res)  # a complex run's moduli land in the real parts
    residual = float(res.real.max()) if res.size else 0.0
    if residual_threshold is not None and not residual <= residual_threshold:
        raise GridTooCoarse(
            f"resolvent residual {residual:.3e} above {residual_threshold:.3e}; "
            "refine the grid", residual=residual)
    if dtype is float:
        out[...] = v  # imaginary parts 0.0
    return out, residual
