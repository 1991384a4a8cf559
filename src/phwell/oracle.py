"""Quadrature dissipativity oracle: independent evidence for T1.5 and TA.3.

boundary_interpolant / quadrature_rayleigh / dissipativity_oracle build
smooth states with prescribed boundary traces and integrate Re <A0 x, x>
by composite Gauss-Legendre quadrature, once per family of states as a
Gram matrix of its scalar basis (_rayleigh_split).  That basis depends
only on the order N and the layer width, so its Gram stack is integrated
once per (order, width) per process and shared by every system
(_oracle_gram); a system's M = sum_k S_k kron P_k is one broadcast product
of that stack with P, equal entry for entry to np.kron.  The oracle
decides the largest value over all traces in ker WB_hat, and over
interior bumps, as two eigenvalue problems, and cross-checks the first
against half of model.boundary_form(sys.Q).  It imports no checker and
never reads their kernel form; oracle_contradiction says when its report
contradicts analyze, which only a bug can make happen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np
from numpy.polynomial import polynomial as poly

from . import numlin
from .errors import ShapeError
from .model import HALF_LINE, PortHamiltonianSystem, boundary_form, is_integer, is_real

__all__ = ["ORACLE_CROSS_CHECK_LIMIT", "ORACLE_TOL", "OracleReport", "SmoothFunction",
           "boundary_form_value", "boundary_interpolant", "dissipativity_oracle",
           "interior_probe", "oracle_contradiction", "quadrature_rayleigh"]

_SIGMA_FLOOR = 1.0 / 500.0  # below this, exp(-1/t) * poly(1/t) is flat zero


def _leibniz(f, g) -> np.ndarray:
    """Derivative stack 0..n of the product f g from the stacks of f and g."""
    return np.stack([sum(comb(n, j) * f[j] * g[n - j] for j in range(n + 1))
                     for n in range(len(f))])


def _sigma_derivs(t: np.ndarray, max_order: int) -> np.ndarray:
    """Derivatives 0..max_order of sigma(t) = exp(-1/t) (t <= 0 gives 0).

    sigma^{(n)}(t) = exp(-1/t) R_n(1/t) with R_0 = 1 and
    R_{n+1}(s) = s^2 (R_n(s) - R_n'(s)).
    """
    out = np.zeros((max_order + 1,) + t.shape)
    mask = t > _SIGMA_FLOOR
    s = 1.0 / t[mask]
    base = np.exp(-s)
    R = np.ones(1)
    for n in range(max_order + 1):
        out[n][mask] = base * poly.polyval(s, R)
        R = np.concatenate([[0.0, 0.0], poly.polysub(R, poly.polyder(R))])
    return out


def _step_derivs(r: np.ndarray, max_order: int) -> np.ndarray:
    """Derivatives 0..max_order of step(r) = sigma(r) / (sigma(r)+sigma(1-r)).

    step is 0 for r <= 0 and 1 for r >= 1 (there sigma(1-r) is exactly 0),
    smooth throughout.  Quotient derivatives via
    N^{(n)} = sum C(n,k) f^{(k)} D^{(n-k)}; the denominator is at least
    exp(-2) everywhere, as r or 1-r is at least 1/2.
    """
    num = _sigma_derivs(r, max_order)
    sign = (-1.0) ** np.arange(max_order + 1)[:, None]
    den = num + sign * _sigma_derivs(1.0 - r, max_order)
    out = np.empty_like(num)
    for n in range(max_order + 1):
        acc = num[n].copy()
        for k in range(n):
            acc -= comb(n, k) * out[k] * den[n - k]
        out[n] = acc / den[0]
    return out


def _cutoff_derivs(kind: tuple, zeta: np.ndarray, max_order: int):
    """Derivative stack 0..max_order of one cutoff factor at the 1-D points zeta.

    kinds: ('rise', a, b)      0 left of a, 1 right of b
           ('fall', a, b)      1 left of a, 0 right of b
           ('bump', a, b)      supported on (a, b), peak value 1 at (a+b)/2
    rise and fall are the smooth step of (zeta-a)/(b-a) and (b-zeta)/(b-a);
    bump is the product of a rise over [a, mid] and a fall over [mid, b].
    """
    tag = kind[0]
    if tag not in ("rise", "fall", "bump"):
        raise ValueError(f"unknown cutoff kind {kind!r}")
    a, b = kind[1], kind[2]
    if tag == "bump":
        mid = 0.5 * (a + b)
        return _leibniz(_cutoff_derivs(("rise", a, mid), zeta, max_order),
                        _cutoff_derivs(("fall", mid, b), zeta, max_order))
    width = b - a
    if tag == "rise":
        r, scale = (zeta - a) / width, 1.0 / width
    else:
        r, scale = (b - zeta) / width, -1.0 / width
    return _step_derivs(r, max_order) * scale ** np.arange(max_order + 1)[:, None]


def _cutoff_junctions(kind: tuple):
    if kind[0] == "bump":
        return (kind[1], 0.5 * (kind[1] + kind[2]), kind[2])
    return (kind[1], kind[2])


@dataclass(frozen=True)
class SmoothFunction:
    """x(z) = sum over terms of cutoff(z) * polynomial(z), values in C^d.

    Each term is (cutoff_kind, coeffs, center), the cutoff a rise, fall or
    bump as described in _cutoff_derivs (a constant term is a rise that is
    saturated on [0, 1]).  coeffs has shape (m, d) and encodes the polynomial
    sum_i coeffs[i] (z-center)^i.  Derivatives of any order are available
    analytically (Leibniz over exact cutoff and polynomial derivatives).
    """

    terms: tuple
    dim: int

    def junctions(self):
        """Points where some cutoff stops being analytic (panel breaks)."""
        pts = set()
        for kind, _, _ in self.terms:
            pts.update(_cutoff_junctions(kind))
        return tuple(sorted(p for p in pts if 0.0 < p < 1.0))

    def narrowest_transition(self) -> float:
        """Width of the steepest cutoff transition; 1.0 for a state without terms."""
        return float(min((np.diff(_cutoff_junctions(kind)).min()
                          for kind, _, _ in self.terms), default=1.0))

    def derivatives(self, zeta, max_order: int) -> np.ndarray:
        """Array (max_order+1, len(zeta), d) of x^{(n)} at the given points."""
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        out = np.zeros((max_order + 1, zeta.size, self.dim), dtype=complex)
        for kind, coeffs, center in self.terms:
            dpoly = np.stack([poly.polyval(zeta - center, poly.polyder(coeffs, n)).T
                              for n in range(max_order + 1)])
            cut = _cutoff_derivs(kind, zeta, max_order)
            out += _leibniz(cut[:, :, None], dpoly)
        return out

    def value(self, zeta) -> np.ndarray:
        return self.derivatives(zeta, 0)[0]


def boundary_interpolant(u, v, eps: float = 0.25, d: int = None) -> SmoothFunction:
    """Smooth x on [0,1] with derivative traces exactly u at z=1 and v at z=0.

    u, v are stacked trace targets of length N*d (order blocks of size d).
    The construction multiplies the Taylor polynomials sum u_{i+1}/i! (z-1)^i
    and sum v_{i+1}/i! z^i by plateau cutoffs that equal 1 on [1-eps, 1]
    (resp. [0, eps]) and vanish past twice that distance, so every trace up
    to order N-1 is matched exactly.  Small eps concentrates the state in
    boundary layers of width ~2 eps.  An eps that is not a real number in
    (0, 1/4], or a d that is not a positive integer, raises ShapeError (a
    bool is neither), and so do empty targets.
    """
    if not (is_real(eps) and 0.0 < eps <= 0.25):
        raise ShapeError(f"eps must be a real number in (0, 1/4], got {eps!r}")
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if u.size != v.size:
        raise ShapeError("trace targets must have equal length")
    if not u.size:
        raise ShapeError("trace targets must not be empty")
    if d is None:
        d = u.size  # N = 1 by default
    if not (is_integer(d) and d >= 1):
        raise ShapeError(f"trace dimension d must be an integer >= 1, got {d!r}")
    if u.size % d:
        raise ShapeError(f"trace length {u.size} is not a multiple of d={d}")
    N = u.size // d
    fact = np.array([[factorial(i)] for i in range(N)], dtype=float)
    return SmoothFunction(
        terms=((("rise", 1.0 - 2.0 * eps, 1.0 - eps), u.reshape(N, d) / fact, 1.0),
               (("fall", eps, 2.0 * eps), v.reshape(N, d) / fact, 0.0)),
        dim=d,
    )


def interior_probe(z) -> SmoothFunction:
    """Compactly supported state bump(z) * z on (0.35, 0.65); no boundary traces.

    Such states lie in the domain for every boundary condition, and for
    the structured coefficient chain the Rayleigh value reduces exactly to
    ||bump||^2 z^* (Re P0) z, so these probes witness indefinite Re P0.
    """
    z = np.asarray(z, dtype=complex).reshape(1, -1)
    return SmoothFunction(terms=((("bump", 0.35, 0.65), z, 0.0),), dim=z.shape[1])


_LEGGAUSS16 = np.polynomial.legendre.leggauss(16)


def _gauss_panels(junctions, n_quad: int):
    """Composite Gauss-Legendre rule on [0,1] split at the given junctions.

    Every subinterval gets the same number of panels: accuracy at the
    plateau joints is limited by analyticity breakdown, not interval
    length, so narrow transition regions need panels as much as long ones.
    """
    nodes16, weights16 = _LEGGAUSS16
    edges = np.concatenate([[0.0], np.asarray(junctions, dtype=float), [1.0]])
    nsub = max(1, edges.size - 1)
    per = max(3, int(np.ceil(n_quad / (16.0 * nsub))))
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sub = np.linspace(a, b, per + 1)
        lo, hi = sub[:-1, None], sub[1:, None]  # one row per panel
        half = 0.5 * (hi - lo)
        nodes.append((0.5 * (lo + hi) + half * nodes16).ravel())
        weights.append((half * weights16).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def _require_state_dim(sys: PortHamiltonianSystem, x: SmoothFunction) -> None:
    if x.dim != sys.dim_d:
        raise ShapeError(f"the state has values in C^{x.dim}, but the system has "
                         f"d = {sys.dim_d}")


def quadrature_rayleigh(sys: PortHamiltonianSystem, x: SmoothFunction) -> float:
    """Re <A0 x, x> = Re integral of x^* sum_k P_k x^{(k)} over [0, 1].

    Derivatives of x are analytic; the quadrature is composite
    Gauss-Legendre split at the cutoff plateau junctions.  The Hamiltonian
    density plays no role here (the value concerns the unweighted
    generator).  A half-line state needs zero traces at z = 1 (ShapeError
    otherwise); it extends by zero, so its [0, 1] value is the half-line one.
    A state whose values are not in C^d raises ShapeError.
    """
    _require_state_dim(sys, x)
    if sys.interval == HALF_LINE and x.derivatives([1.0], sys.order_N - 1).any():
        raise ShapeError("a half-line state needs zero traces at z = 1, so that it "
                         "extends by zero")
    S = _rayleigh_split(sys.order_N, x)
    return float(np.real(np.sum(np.asarray(sys.P) * S)))


def _rayleigh_split(N: int, basis: SmoothFunction) -> np.ndarray:
    """Gram stack S[k, a, b] = integral of conj(phi_a) phi_b^{(k)}, k = 0..N.

    The phi_a are the components of basis.  This is the one quadrature of
    the module: a state x = sum_a phi_a c_a with c_a in C^d has
    Re <A0 x, x> = Re c^* (sum_k S_k kron P_k) c for c = [c_0; c_1; ...],
    and for basis = x itself Re <A0 x, x> = Re sum_k <P_k, S_k>.

    The one node rule: 256 nodes, doubled per derivative order above the
    first and again for transitions of width <= 0.05 and <= 0.01, because
    narrow layers raise cutoff-derivative magnitudes like width^{1-N}.
    """
    width = basis.narrowest_transition()
    n_quad = 256 * 2 ** (N - 1 + (width <= 0.05) + (width <= 0.01))
    nodes, weights = _gauss_panels(basis.junctions(), n_quad)
    derivs = basis.derivatives(nodes, N)  # (N+1, npts, dim)
    return (weights[:, None] * derivs[0].conj()).T @ derivs


@lru_cache(maxsize=None)
def _oracle_gram(N: int, eps: float | None) -> np.ndarray:
    """Read-only Gram stack of one oracle family's scalar basis, per process.

    eps selects the boundary interpolants of the 2N unit traces at that
    layer width; None selects the scalar interior bump.  Neither depends on
    the system, so every system of order N shares these stacks.
    """
    if eps is None:
        basis = interior_probe([1.0])
    else:
        eye = np.eye(2 * N)
        basis = boundary_interpolant(eye[:N].ravel(), eye[N:].ravel(), eps=eps,
                                     d=2 * N)
    S = _rayleigh_split(N, basis)
    S.flags.writeable = False
    return S


def _forms(M, Z) -> np.ndarray:
    """Re z^* M z for every column z of Z."""
    return np.real(np.sum(Z.conj() * (M @ Z), axis=0))


def boundary_form_value(sys: PortHamiltonianSystem, u, v,
                        x: SmoothFunction = None) -> float:
    """0.5 (u^* Q u - v^* Q v) + Re <P0 x, x> for trace targets (u, v).

    This is the integrated-by-parts value of Re <A0 x, x>, half of
    model.boundary_form on [u; v] plus the zeroth order term, which needs
    the state itself, interpolated when not supplied.  A half-line system
    needs u = 0, a state that extends by zero past z = 1.  A u or v without
    N*d entries, a nonzero u on the half line, or a state x whose values
    are not in C^d raises ShapeError.
    """
    if x is not None:
        _require_state_dim(sys, x)
    u, v = (np.asarray(t, dtype=complex).reshape(-1) for t in (u, v))
    if u.size != sys.nd or v.size != sys.nd:
        raise ShapeError(f"u and v need N*d = {sys.nd} entries each, "
                         f"got {u.size} and {v.size}")
    if sys.interval == HALF_LINE and u.any():
        raise ShapeError("a half-line system needs u = 0, the traces at z = 1 of a "
                         "state that extends by zero")
    bval = float(_forms(0.5 * boundary_form(sys.Q), np.concatenate([u, v])[:, None])[0])
    if np.any(np.abs(sys.P[0]) > 0):
        if x is None:
            x = boundary_interpolant(u, v, d=sys.dim_d)
        S0 = _rayleigh_split(sys.order_N, x)[0]
        bval += float(np.real(np.sum(sys.P[0] * S0)))
    return bval


@dataclass(frozen=True)
class OracleReport:
    """The largest Rayleigh value per unit trace over domain states, and the verdict."""

    holds: bool
    kernel_dim: int
    max_value: float
    cross_check_max_diff: float
    witness: SmoothFunction | None  # a state whose value exceeds ORACLE_TOL, if any

    @property
    def vacuous(self) -> bool:
        return self.kernel_dim == 0


ORACLE_WIDTH = 0.25  # the one boundary-layer width the decision integrates
ORACLE_WITNESS_WIDTHS = (ORACLE_WIDTH, 0.05, 0.01, 0.002)  # widest first
ORACLE_TOL = 1e-8  # a value above this is a witness of growth
ORACLE_CROSS_CHECK_LIMIT = 1e-8  # quadrature vs boundary form; beyond it, a bug


def _kron_stack(S, P) -> np.ndarray:
    """S_k kron P_k for every k in one broadcast product, entry for entry np.kron."""
    n = S.shape[1] * P.shape[1]
    return (S[:, :, None, :, None] * P[:, None, :, None, :]).reshape(len(P), n, n)


def _boundary_witness(P, T, z) -> SmoothFunction | None:
    """Interpolant of traces z at the widest width whose full value is > ORACLE_TOL.

    T is the stack at ORACLE_WIDTH, the first width, as the decision built it.
    """
    N, d = len(P) - 1, P.shape[1]
    for eps in ORACLE_WITNESS_WIDTHS:
        if eps != ORACLE_WIDTH:
            T = _kron_stack(_oracle_gram(N, eps), P)
        M = T.sum(axis=0)
        if _forms(M, z[:, None])[0] > ORACLE_TOL:
            return boundary_interpolant(z[:N * d], z[N * d:], eps=eps, d=d)
    return None


def dissipativity_oracle(sys: PortHamiltonianSystem, n_samples=None,
                         seed=None) -> OracleReport:
    """Decide Re <A0 x, x> <= 0 on smooth domain states by two eigenvalue problems.

    A state's value is Re z^* M z in its traces z (or bump direction), with
    M = sum_k S_k kron P_k over the shared Gram stack S (_oracle_gram).
    Two families are decided exactly, each per unit z:
      * interpolants of width ORACLE_WIDTH with traces z = K c, K an
        orthonormal basis of ker WB_hat (on the half line [0; ker WB_hat],
        so the traces at z = 1 vanish).  Integration by parts makes the
        k >= 1 terms the boundary form at every width, and the P0 term
        vanishes with the width, so the decisive number is the limit
        lambda_max(K^* Herm(sum_{k>=1} S_k kron P_k) K);
      * the trace-free bump of interior_probe (skipped when P0 = 0), with
        lambda_max of its full form, ||bump||^2 lambda_max(Re P0).
    The report holds when neither number exceeds ORACLE_TOL; max_value is
    the larger.  cross_check_max_diff is the spectral norm of the k >= 1
    form less its integrated-by-parts value, half of boundary_form(Q) on
    the kernel and 0 for the bump; a gap means a quadrature bug.  The
    witness comes from the decisive family's top eigenvector: the bump, or
    the interpolant at the widest ORACLE_WITNESS_WIDTHS width whose full
    value, P0 included, exceeds ORACLE_TOL (None if none does).  The
    checkers' kernel form is never read, so the oracle checks T1.5 / TA.3.
    n_samples and seed are ignored (no sample is drawn); the benchmark's
    oracle workload still passes them.
    """
    N = sys.order_N
    P = np.asarray(sys.P)
    K = numlin.kernel_basis(sys.WB_hat, sys.tol.check)
    if sys.interval == HALF_LINE:
        K = np.vstack([np.zeros_like(K), K])
    # families: (decisive value, top eigenvector, maker of a state from it)
    families, gaps = [], [0.0]
    if K.shape[1]:
        T = _kron_stack(_oracle_gram(N, ORACLE_WIDTH), P)
        G = K.conj().T @ numlin.hermitian_part(T[1:].sum(axis=0)) @ K
        B = K.conj().T @ (0.5 * boundary_form(sys.Q)) @ K
        gaps.append(np.abs(np.linalg.eigvalsh(G - B)).max())
        w, C = np.linalg.eigh(G)
        families.append((w[-1], K @ C[:, -1], lambda z, T=T: _boundary_witness(P, T, z)))
    if P[0].any():
        T = _kron_stack(_oracle_gram(N, None), P)
        gaps.append(np.abs(np.linalg.eigvalsh(
            numlin.hermitian_part(T[1:].sum(axis=0)))).max())
        w, C = np.linalg.eigh(numlin.hermitian_part(T.sum(axis=0)))
        families.append((w[-1], C[:, -1], interior_probe))
    value, top, make = max(families, key=lambda f: f[0], default=(0.0, None, None))
    return OracleReport(
        holds=bool(value <= ORACLE_TOL),
        kernel_dim=K.shape[1],
        max_value=float(value),
        cross_check_max_diff=float(max(gaps)),
        witness=make(top) if value > ORACLE_TOL else None,
    )


def oracle_contradiction(sys, report: OracleReport, verdict) -> str | None:
    """Why report contradicts sys's analyze verdict, or None if it does not.

    The oracle decides what T1.5 (unit interval) and TA.3 (half line) state
    algebraically: a different holds is a bug, and so is a
    cross_check_max_diff above ORACLE_CROSS_CHECK_LIMIT.
    """
    reference = "TA.3" if sys.interval == HALF_LINE else "T1.5"
    algebra = verdict[reference].holds
    if report.holds != algebra:
        return f"the oracle says holds={report.holds}, but {reference} says holds={algebra}"
    if report.cross_check_max_diff > ORACLE_CROSS_CHECK_LIMIT:
        return (f"the quadrature differs from the boundary form by "
                f"{report.cross_check_max_diff:.3e}, above {ORACLE_CROSS_CHECK_LIMIT:g}")
    return None
