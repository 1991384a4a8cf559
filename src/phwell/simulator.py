"""Quadrature dissipativity oracle and a first-order energy-monitoring solver.

Two independent sources of evidence about a system, deliberately separate
from the matrix checkers:

* boundary_interpolant / quadrature_rayleigh / dissipativity_oracle sample
  smooth states with prescribed boundary traces drawn from ker WB_hat and
  integrate Re <A0 x, x> by composite Gauss-Legendre quadrature;
* simulate evolves first-order (N = 1) systems with an upwind
  finite-volume method in characteristic variables and records the
  discrete energy <x, H x> together with boundary / interior power.  The
  scheme and its ghost-trace boundary closure are linear in the state, so
  _semidiscrete_operator assembles them once as a sparse matrix A_h and
  every Runge-Kutta stage is one product with it.

The upwind scheme only ever adds numerical dissipation, so it can confirm
an energy inequality but never fake energy growth.  For the assembled
operator this is checked, not assumed: tests/test_simulation.py asserts
lambda_max(Herm(h Hb A_h)) <= 0 on dissipative systems and > 0 on the
antidamped control.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve

from . import numlin
from .errors import (
    BoundaryClosureSingular,
    CFLViolation,
    ShapeError,
)
from .interval import kernel_energy_form
from .model import (
    HALF_LINE,
    UNIT_INTERVAL,
    BoundaryTrace,
    PortHamiltonianSystem,
    build_q_for_system,
    port_variables,
)

_SIGMA_FLOOR = 1.0 / 500.0  # below this, exp(-1/t) * poly(1/t) is flat zero
_SIGMA_POLYS = [np.polynomial.Polynomial([1.0])]


def _sigma_poly(n: int):
    """Polynomials R_n with d^n/dt^n exp(-1/t) = exp(-1/t) R_n(1/t) (memoized)."""
    s = np.polynomial.Polynomial([0.0, 0.0, 1.0])  # s^2 in the variable s = 1/t
    while len(_SIGMA_POLYS) <= n:
        last = _SIGMA_POLYS[-1]
        _SIGMA_POLYS.append(s * (last - last.deriv()))
    return _SIGMA_POLYS[: n + 1]


def _sigma_derivs(t: np.ndarray, max_order: int) -> np.ndarray:
    """Derivatives 0..max_order of sigma(t) = exp(-1/t) (t <= 0 gives 0)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((max_order + 1,) + t.shape)
    mask = t > _SIGMA_FLOOR
    if np.any(mask):
        tm = t[mask]
        base = np.exp(-1.0 / tm)
        polys = _sigma_poly(max_order)
        s = 1.0 / tm
        for n in range(max_order + 1):
            out[n][mask] = base * polys[n](s)
    return out


def _step_derivs(r: np.ndarray, max_order: int) -> np.ndarray:
    """Derivatives 0..max_order of step(r) = sigma(r) / (sigma(r)+sigma(1-r)).

    step is 0 for r <= 0 and 1 for r >= 1, smooth throughout.  Quotient
    derivatives via N^{(n)} = sum C(n,k) f^{(k)} D^{(n-k)}.
    """
    r = np.asarray(r, dtype=float)
    num = _sigma_derivs(r, max_order)
    mirror = _sigma_derivs(1.0 - r, max_order)
    den = np.empty_like(num)
    for n in range(max_order + 1):
        den[n] = num[n] + ((-1.0) ** n) * mirror[n]
    out = np.zeros_like(num)
    safe = den[0] > 0.0
    f0 = np.zeros_like(r)
    f0[safe] = num[0][safe] / den[0][safe]
    f0[r >= 1.0] = 1.0
    out[0] = f0
    for n in range(1, max_order + 1):
        acc = num[n].copy()
        for k in range(n):
            acc -= comb(n, k) * out[k] * den[n - k]
        val = np.zeros_like(r)
        val[safe] = acc[safe] / den[0][safe]
        out[n] = val
    return out


def _scaled_step_derivs(zeta, a: float, b: float, max_order: int, falling=False):
    """Derivatives of the smooth step rescaled to transition over [a, b]."""
    width = b - a
    if falling:
        r = (b - zeta) / width
    else:
        r = (zeta - a) / width
    base = _step_derivs(r, max_order)
    scale = (-1.0 / width) if falling else (1.0 / width)
    for n in range(1, max_order + 1):
        base[n] *= scale**n
    return base


def _cutoff_derivs(kind: tuple, zeta: np.ndarray, max_order: int):
    """Derivative stack 0..max_order of one cutoff factor.

    kinds: ('one',)            constant 1
           ('rise', a, b)      0 left of a, 1 right of b
           ('fall', a, b)      1 left of a, 0 right of b
           ('bump', a, b)      supported on (a, b), peak value 1 at (a+b)/2
    """
    tag = kind[0]
    if tag == "one":
        out = np.zeros((max_order + 1,) + zeta.shape)
        out[0] = 1.0
        return out
    if tag == "rise":
        return _scaled_step_derivs(zeta, kind[1], kind[2], max_order)
    if tag == "fall":
        return _scaled_step_derivs(zeta, kind[1], kind[2], max_order, falling=True)
    if tag == "bump":
        a, b = kind[1], kind[2]
        mid = 0.5 * (a + b)
        up = _scaled_step_derivs(zeta, a, mid, max_order)
        down = _scaled_step_derivs(zeta, mid, b, max_order, falling=True)
        out = np.zeros_like(up)
        for n in range(max_order + 1):
            for j in range(n + 1):
                out[n] += comb(n, j) * up[j] * down[n - j]
        return out
    raise ValueError(f"unknown cutoff kind {kind!r}")


def _cutoff_junctions(kind: tuple):
    tag = kind[0]
    if tag == "one":
        return ()
    if tag == "bump":
        return (kind[1], 0.5 * (kind[1] + kind[2]), kind[2])
    return (kind[1], kind[2])


@dataclass(frozen=True)
class SmoothFunction:
    """x(z) = sum over terms of cutoff(z) * polynomial(z), values in C^d.

    Each term is (cutoff_kind, coeffs, center); cutoff kinds are described
    in _cutoff_derivs.  coeffs has shape (m, d) and encodes the polynomial
    sum_i coeffs[i] (z-center)^i.  Derivatives of any order are available
    analytically (Leibniz over exact cutoff and polynomial derivatives).
    """

    terms: tuple
    dim: int

    @property
    def max_order(self):
        return None  # unlimited

    def junctions(self):
        """Points where some cutoff stops being analytic (panel breaks)."""
        pts = set()
        for kind, _, _ in self.terms:
            pts.update(_cutoff_junctions(kind))
        return tuple(sorted(p for p in pts if 0.0 < p < 1.0))

    def derivatives(self, zeta, max_order: int) -> np.ndarray:
        """Array (max_order+1, len(zeta), d) of x^{(n)} at the given points."""
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        out = np.zeros((max_order + 1, zeta.size, self.dim), dtype=complex)
        for kind, coeffs, center in self.terms:
            coeffs = np.asarray(coeffs, dtype=complex)
            m = coeffs.shape[0]
            poly = np.zeros((max_order + 1, zeta.size, self.dim), dtype=complex)
            dz = (zeta - center)[:, None]
            for n in range(max_order + 1):
                acc = np.zeros((zeta.size, self.dim), dtype=complex)
                for i in range(n, m):
                    fac = 1.0
                    for j in range(i, i - n, -1):
                        fac *= j
                    acc += fac * coeffs[i] * dz ** (i - n)
                poly[n] = acc
            cut = _cutoff_derivs(kind, zeta, max_order)
            for n in range(max_order + 1):
                term = np.zeros((zeta.size, self.dim), dtype=complex)
                for j in range(n + 1):
                    term += comb(n, j) * cut[j][:, None] * poly[n - j]
                out[n] += term
        return out

    def value(self, zeta) -> np.ndarray:
        return self.derivatives(zeta, 0)[0]

    def derivative_at(self, zeta: float, order: int) -> np.ndarray:
        return self.derivatives(np.array([zeta]), order)[order][0]


def from_polynomial(coeffs, center: float = 0.0) -> SmoothFunction:
    """Plain vector polynomial sum_i coeffs[i] (z-center)^i as a SmoothFunction."""
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    return SmoothFunction(terms=((("one",), coeffs, center),), dim=coeffs.shape[1])


def boundary_interpolant(u, v, eps: float = 0.25, d: int = None) -> SmoothFunction:
    """Smooth x on [0,1] with derivative traces exactly u at z=1 and v at z=0.

    u, v are stacked trace targets of length N*d (order blocks of size d).
    The construction multiplies the Taylor polynomials sum u_{i+1}/i! (z-1)^i
    and sum v_{i+1}/i! z^i by plateau cutoffs that equal 1 on [1-eps, 1]
    (resp. [0, eps]) and vanish past twice that distance, so every trace up
    to order N-1 is matched exactly.  Small eps concentrates the state in
    boundary layers of width ~2 eps.  Requires 0 < eps <= 1/4.
    """
    if not 0.0 < eps <= 0.25:
        raise ValueError("eps must lie in (0, 1/4]")
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if u.size != v.size:
        raise ShapeError("trace targets must have equal length")
    if d is None:
        d = u.size  # N = 1 by default
    if u.size % d:
        raise ShapeError(f"trace length {u.size} is not a multiple of d={d}")
    N = u.size // d
    fact = 1.0
    cu = np.zeros((N, d), dtype=complex)
    cv = np.zeros((N, d), dtype=complex)
    for i in range(N):
        if i:
            fact *= i
        cu[i] = u[i * d : (i + 1) * d] / fact
        cv[i] = v[i * d : (i + 1) * d] / fact
    return SmoothFunction(
        terms=((("rise", 1.0 - 2.0 * eps, 1.0 - eps), cu, 1.0),
               (("fall", eps, 2.0 * eps), cv, 0.0)),
        dim=d,
    )


def interior_probe(z, a: float = 0.35, b: float = 0.65) -> SmoothFunction:
    """Compactly supported state bump(z) * z; all boundary traces vanish.

    Such states lie in the domain for every boundary condition, and for
    the structured coefficient chain the Rayleigh value reduces exactly to
    ||bump||^2 z^* (Re P0) z, so these probes witness indefinite Re P0.
    """
    z = np.asarray(z, dtype=complex).reshape(1, -1)
    return SmoothFunction(terms=((("bump", a, b), z, 0.0),), dim=z.shape[1])


_LEGGAUSS16 = None


def _leggauss16():
    global _LEGGAUSS16
    if _LEGGAUSS16 is None:
        _LEGGAUSS16 = np.polynomial.legendre.leggauss(16)
    return _LEGGAUSS16


def _gauss_panels(junctions, n_quad: int):
    """Composite Gauss-Legendre rule on [0,1] split at the given junctions.

    Every subinterval gets the same number of panels: accuracy at the
    plateau joints is limited by analyticity breakdown, not interval
    length, so narrow transition regions need panels as much as long ones.
    """
    nodes16, weights16 = _leggauss16()
    edges = np.concatenate([[0.0], np.asarray(junctions, dtype=float), [1.0]])
    nsub = max(1, edges.size - 1)
    per = max(3, int(np.ceil(n_quad / (16.0 * nsub))))
    pieces = []
    for i in range(edges.size - 1):
        a, b = edges[i], edges[i + 1]
        if b - a <= 0:
            continue
        sub = np.linspace(a, b, per + 1)
        for j in range(per):
            lo, hi = sub[j], sub[j + 1]
            half = 0.5 * (hi - lo)
            pieces.append((0.5 * (lo + hi) + half * nodes16, half * weights16))
    nodes = np.concatenate([p[0] for p in pieces])
    weights = np.concatenate([p[1] for p in pieces])
    return nodes, weights


def quadrature_rayleigh(sys: PortHamiltonianSystem, x: SmoothFunction,
                        n_quad: int = 256) -> float:
    """Re <A0 x, x> = Re integral of x^* sum_k P_k x^{(k)} over [0, 1].

    Derivatives of x are analytic; the quadrature is composite
    Gauss-Legendre split at the cutoff plateau junctions.  The Hamiltonian
    density plays no role here (the value concerns the unweighted
    generator).
    """
    if sys.interval != UNIT_INTERVAL:
        raise ShapeError("quadrature_rayleigh needs a unit_interval system")
    return _rayleigh_split(sys, x, n_quad)[0]


def _rayleigh_split(sys, x: SmoothFunction, n_quad: int = 256):
    """(Re <A0 x, x>, Re <P0 x, x>) from one derivative pass."""
    N = sys.order_N
    n_quad = max(n_quad, 4 * max(1, 2 * (N - 1)))
    nodes, weights = _gauss_panels(x.junctions(), n_quad)
    derivs = x.derivatives(nodes, N)  # (N+1, npts, d)
    x0 = derivs[0]
    integrand = np.zeros(nodes.size, dtype=complex)
    p0_part = np.einsum("pi,pi->p", x0.conj(), x0 @ sys.P[0].T)
    integrand += p0_part
    for k in range(1, N + 1):
        integrand += np.einsum("pi,pi->p", x0.conj(), derivs[k] @ sys.P[k].T)
    return (float(np.real(np.sum(weights * integrand))),
            float(np.real(np.sum(weights * p0_part))))


def _p0_quadrature(sys, x: SmoothFunction, n_quad: int = 256) -> float:
    """Re <P0 x, x> by the same quadrature (no derivatives involved)."""
    nodes, weights = _gauss_panels(x.junctions(), n_quad)
    x0 = x.derivatives(nodes, 0)[0]
    vals = np.einsum("pi,pi->p", x0.conj(), x0 @ sys.P[0].T)
    return float(np.real(np.sum(weights * vals)))


def boundary_form_value(sys: PortHamiltonianSystem, u, v,
                        x: SmoothFunction = None, n_quad: int = 256,
                        p0_term: float = None) -> float:
    """0.5 (u^* Q u - v^* Q v) + Re <P0 x, x> for trace targets (u, v).

    This is the integrated-by-parts value of Re <A0 x, x>; the zeroth
    order term needs the state itself, interpolated when not supplied
    (or passed precomputed as p0_term).
    """
    Q = build_q_for_system(sys)
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    bval = 0.5 * float(np.real(u.conj() @ Q @ u - v.conj() @ Q @ v))
    if p0_term is not None:
        return bval + p0_term
    if np.any(np.abs(sys.P[0]) > 0):
        if x is None:
            x = boundary_interpolant(u, v, d=sys.dim_d)
        bval += _p0_quadrature(sys, x, n_quad)
    return bval


@dataclass(frozen=True)
class OracleReport:
    """Sampled Rayleigh values over states in the domain, and the verdict."""

    holds: bool
    n_samples: int
    kernel_dim: int
    max_value: float
    values: np.ndarray
    cross_check_max_diff: float
    witness: SmoothFunction | None  # state achieving a positive value, if any
    tolerance: float

    @property
    def vacuous(self) -> bool:
        return self.kernel_dim == 0


ORACLE_LAYER_WIDTHS = (0.25, 0.05, 0.01)


def dissipativity_oracle(sys: PortHamiltonianSystem, n_samples: int = 64,
                         seed: int = 0, n_quad: int = 256,
                         tol: float = 1e-8) -> OracleReport:
    """Sample smooth domain states and test Re <A0 x, x> <= 0 by quadrature.

    Three families of states are probed:
      * interpolants with traces drawn randomly from ker WB_hat, at a
        ladder of boundary-layer widths (narrow layers shrink the zeroth
        order term, exposing the boundary contribution);
      * the interpolant whose trace maximizes the boundary energy form
        (importance direction; the value is still computed by quadrature);
      * compactly supported bumps along eigen-directions of Re P0, which
        have zero traces and witness interior growth.
    Every interpolant value is cross-checked against the integrated-by-
    parts boundary form; a mismatch there means a quadrature/interpolant
    bug, not a property of the system.  Values are normalized per sample
    by max(1, ||traces||^2) resp. max(1, ||z||^2).
    """
    if sys.interval != UNIT_INTERVAL:
        raise ShapeError("dissipativity_oracle needs a unit_interval system")
    K = numlin.kernel_basis(sys.WB_hat, sys.tol.check)
    r = K.shape[1]
    nd = sys.nd
    d = sys.dim_d
    rng = np.random.default_rng(seed)
    p0_nonzero = bool(np.any(np.abs(sys.P[0]) > 0))
    widths = ORACLE_LAYER_WIDTHS if p0_nonzero else ORACLE_LAYER_WIDTHS[:1]

    vals = []
    cross = 0.0
    witness = None
    witness_val = tol

    def rung_nodes(eps):
        # Narrow layers raise cutoff-derivative magnitudes like eps^{1-N};
        # panel counts must grow with both to keep the absolute error tiny.
        factor = 2 ** (sys.order_N - 1)
        if eps <= 0.05:
            factor *= 2
        if eps <= 0.01:
            factor *= 2
        return n_quad * factor

    def probe_traces(z):
        nonlocal cross, witness, witness_val
        u, v = z[:nd], z[nd:]
        scale = max(1.0, float(np.vdot(z, z).real))
        for eps in widths:
            x = boundary_interpolant(u, v, eps=eps, d=d)
            val, p0_term = _rayleigh_split(sys, x, rung_nodes(eps))
            bform = boundary_form_value(sys, u, v, p0_term=p0_term)
            cross = max(cross, abs(val - bform) / scale)
            vals.append(val / scale)
            if vals[-1] > witness_val:
                witness_val = vals[-1]
                witness = x

    if r:
        for _ in range(n_samples):
            c = rng.normal(size=r)
            if sys.field == "complex":
                c = c + 1j * rng.normal(size=r)
            probe_traces(K @ c)
        # importance direction: trace vector maximizing the boundary form
        G, _ = kernel_energy_form(sys.WB_hat, build_q_for_system(sys),
                                  sys.tol.check)
        w, vecs = np.linalg.eigh(numlin.hermitian_part(G))
        probe_traces(K @ vecs[:, -1])

    if p0_nonzero:
        _, evecs = np.linalg.eigh(sys.re_P0())
        for i in range(d):
            z = evecs[:, i]
            x = interior_probe(z)
            val, p0_term = _rayleigh_split(sys, x, n_quad)
            bform = boundary_form_value(sys, np.zeros(nd), np.zeros(nd),
                                        p0_term=p0_term)
            cross = max(cross, abs(val - bform))
            vals.append(val)
            if vals[-1] > witness_val:
                witness_val = vals[-1]
                witness = x

    if not vals:
        return OracleReport(True, 0, r, 0.0, np.zeros(0), 0.0, None, tol)
    arr = np.asarray(vals)
    return OracleReport(
        holds=bool(np.max(arr) <= tol),
        n_samples=n_samples,
        kernel_dim=r,
        max_value=float(np.max(arr)),
        values=arr,
        cross_check_max_diff=float(cross),
        witness=witness,
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# time-domain simulation


@dataclass
class EnergyTrace:
    """Discrete energy <x, Hx> and power terms along a simulation run."""

    times: np.ndarray
    energy: np.ndarray
    boundary_power: np.ndarray
    interior_power: np.ndarray
    max_violation: float
    notes: tuple = ()
    snapshots: tuple = ()  # (time, state (d, nx)) pairs
    cell_centers: np.ndarray | None = None
    final_state: np.ndarray | None = None  # (d, nx)

    def to_csv(self, path):
        rows = np.column_stack([self.times, self.energy,
                                self.boundary_power, self.interior_power])
        header = "t,energy,boundary_power,interior_power"
        np.savetxt(path, rows, delimiter=",", header=header, comments="")


def smooth_bump(center: float, width: float, d: int, component: int = 0,
                amplitude: float = 1.0):
    """Compactly supported C-infinity bump in one state component."""

    def x0(zeta):
        r = (zeta - center) / width
        out = np.zeros(d)
        if abs(r) < 1.0:
            out[component] = amplitude * np.exp(1.0 - 1.0 / (1.0 - r * r))
        return out

    return x0


def _initial_state(x0, centers, d) -> np.ndarray:
    if callable(x0):
        cols = [np.asarray(x0(float(z)), dtype=complex).reshape(d) for z in centers]
        return np.stack(cols, axis=1)
    arr = np.asarray(x0, dtype=complex)
    if arr.shape == (centers.size, d):
        return arr.T.copy()
    if arr.shape == (d, centers.size):
        return arr.copy()
    raise ShapeError(f"x0 must be callable or ({centers.size}, {d}) array")


class _BoundaryClosure:
    """Ghost traces as one linear map of the first and last cells.

    Unit interval: unknown z = [w_hat(1); w_hat(0)] with rows WB_hat plus
    one characteristic extrapolation row per outgoing component at each
    end.  Half line: unknown w_hat(0) only; the truncation end is closed
    by outgoing extrapolation with zero incoming characteristics.  Either
    way [w_left; w_right] = G [w_first; w_last], solved once for all
    columns.
    """

    def __init__(self, sys, S, delta):
        self.delta = delta
        self.pos = np.where(delta > 0)[0]  # moving left; outgoing at z=0
        self.neg = np.where(delta < 0)[0]  # moving right; outgoing at z=1
        d = S.shape[0]
        self.d = d
        WB = np.asarray(sys.WB_hat, dtype=complex)
        k = WB.shape[0]
        n_out = self.neg.size + self.pos.size
        if sys.interval == UNIT_INTERVAL:
            if k + n_out != 2 * d:
                raise BoundaryClosureSingular(
                    f"boundary closure needs k = d = {d} conditions for the "
                    f"upwind scheme, got k = {k}")
            # columns of R act on [w_first; w_last]
            M = np.zeros((2 * d, 2 * d), dtype=complex)
            R = np.zeros((2 * d, 2 * d), dtype=complex)
            M[:k, :] = WB
            rows = k + np.arange(n_out)
            out_right, out_left = rows[:self.neg.size], rows[self.neg.size:]
            M[out_right, :d] = S[self.neg]  # outgoing at the right end
            R[out_right, d:] = S[self.neg]
            M[out_left, d:] = S[self.pos]  # outgoing at the left end
            R[out_left, :d] = S[self.pos]
        else:
            if k + self.pos.size != d:
                raise BoundaryClosureSingular(
                    f"half-line closure needs k = n2 = {self.neg.size} "
                    f"conditions, got k = {k}")
            M = np.zeros((d, d), dtype=complex)
            R = np.zeros((d, 2 * d), dtype=complex)
            M[:k, :] = WB
            M[k:, :] = S[self.pos]
            R[k:, :d] = S[self.pos]
        try:
            cond_s = np.linalg.svd(M, compute_uv=False)
            if cond_s[0] == 0.0 or cond_s[-1] < 1e-12 * cond_s[0]:
                raise BoundaryClosureSingular(
                    "ghost-state system is singular: the boundary conditions "
                    "constrain outgoing characteristics inconsistently",
                    matrix=M)
            Z = lu_solve(lu_factor(M), R)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise BoundaryClosureSingular(str(exc), matrix=M)
        if sys.interval == UNIT_INTERVAL:
            self.G = np.vstack([Z[d:], Z[:d]])  # z lists w_hat(1) first
        else:
            # outgoing leaves freely, incoming set to zero (absorbing)
            Sn = S[self.neg]
            far = np.hstack([np.zeros((d, d)), Sn.conj().T @ Sn])
            self.G = np.vstack([Z, far])

    def traces(self, w):
        """(w_hat_left, w_hat_right) ghost traces of the cell-major w = Hx."""
        d = self.d
        g = self.G @ np.concatenate([w[:d], w[-d:]])
        return g[:d], g[d:]


def _semidiscrete_operator(sys: PortHamiltonianSystem, nx: int, L: float = 10.0):
    """The upwind scheme with its boundary closure as one sparse matrix.

    Returns (A_h, Hb, h, closure): dx/dt = A_h x on the cell-major state
    (cell c holds entries c*d .. c*d+d-1), Hb = blockdiag(H_c) and the cell
    width h.  With w = Hb x, Bp = S* Pi+ S and Bn = S* Pi- S, an interior
    cell sees -P1 Bn/h on its left neighbour, P1 (Bn - Bp)/h + P0 on itself
    and P1 Bp/h on its right neighbour; the ghost traces G fold into the
    blocks of cells 0 and nx-1.  The discrete energy is h x* Hb x, so
    Herm(h Hb A_h) <= 0 certifies that the semi-discrete scheme dissipates.
    """
    d = sys.dim_d
    h = (1.0 if sys.interval == UNIT_INTERVAL else float(L)) / nx
    P1 = np.asarray(sys.P[1], dtype=complex)
    P0 = np.asarray(sys.P[0], dtype=complex)
    S, delta = numlin.hermitian_eigendecomposition(P1)
    closure = _BoundaryClosure(sys, S, delta)
    Sp, Sn = S[closure.pos], S[closure.neg]
    Bp = Sp.conj().T @ Sp
    Bn = Sn.conj().T @ Sn

    # cells 0 and nx-1: own upwind half plus the ghost traces
    ends = np.zeros((2 * d, 2 * d), dtype=complex)
    ends[:d, :d] = P1 @ Bn / h + P0
    ends[d:, d:] = P0 - P1 @ Bp / h
    ends[:d] -= P1 @ closure.G[:d] / h
    ends[d:] += P1 @ closure.G[d:] / h
    idx = np.concatenate([np.arange(d), (nx - 1) * d + np.arange(d)])
    rows, cols = np.meshgrid(idx, idx, indexing="ij")
    dn = d * nx
    interior = sparse.coo_array(
        (np.ones(nx - 2), (np.arange(1, nx - 1),) * 2), shape=(nx, nx))
    A_w = (sparse.kron(sparse.eye_array(nx, k=-1), sparse.csr_array(-P1 @ Bn / h))
           + sparse.kron(interior, sparse.csr_array(P1 @ (Bn - Bp) / h + P0))
           + sparse.kron(sparse.eye_array(nx, k=1), sparse.csr_array(P1 @ Bp / h))
           + sparse.coo_array((ends.ravel(), (rows.ravel(), cols.ravel())),
                              shape=(dn, dn)))

    # H frozen per cell; piecewise representations extend flat beyond the
    # last breakpoint, which covers the truncated half line as well.
    if sys.H.kind == "constant":
        Hb = sparse.kron(sparse.eye_array(nx), sparse.csr_array(sys.H.matrices[0]),
                         format="csr")
    else:
        Hc = sys.H.cell_values((np.arange(nx) + 0.5) * h)
        base = (np.arange(nx) * d)[:, None, None]
        r = np.broadcast_to(base + np.arange(d)[:, None], Hc.shape)
        c = np.broadcast_to(base + np.arange(d), Hc.shape)
        Hb = sparse.coo_array((Hc.ravel(), (r.ravel(), c.ravel())),
                              shape=(dn, dn)).tocsr()
        Hb.eliminate_zeros()
    A_h = (A_w.tocsr() @ Hb).tocsr()
    A_h.eliminate_zeros()
    return A_h, Hb, h, closure


def simulate(sys: PortHamiltonianSystem, x0, t_final: float, nx: int,
             cfl: float = 0.8, L: float = 10.0,
             snapshot_times=()) -> EnergyTrace:
    """Method-of-lines upwind solve of dx/dt = P1 d(Hx)/dz + P0 Hx.

    First order in space (characteristic upwinding of w = Hx with H frozen
    per cell), classical four-stage explicit stepping in time with
    dt = cfl * h / lambda_max.  The boundary ghost traces solve
    {WB_hat traces = 0} + {outgoing characteristic extrapolation}; they are
    linear in the end cells, so the whole scheme is assembled once as the
    sparse matrix A_h of _semidiscrete_operator and each stage is one
    product A_h x (tests/test_simulation.py checks that Herm(h Hb A_h) is
    negative semidefinite for dissipative systems).  Half-line systems are
    truncated to [0, L] with an absorbing characteristic closure at the far
    end (adds artificial dissipation, noted on the trace).

    Records the discrete energy sum_c h x_c^* H_c x_c per step along with
    the boundary port power 2 Re <f, e> and interior power 2 Re <P0 w, w>.
    """
    if sys.order_N != 1:
        raise ShapeError("simulate supports first-order (N = 1) systems only")
    if nx < 16:
        raise ShapeError("nx must be at least 16")
    if not 0.0 < cfl <= 0.9:
        raise CFLViolation(f"cfl must lie in (0, 0.9], got {cfl}")

    d = sys.dim_d
    A, Hb, h, closure = _semidiscrete_operator(sys, nx, L)
    centers = (np.arange(nx) + 0.5) * h
    notes = []
    if sys.interval == HALF_LINE:
        notes.append(
            f"half-line run truncated to [0, {float(L):g}]; the absorbing "
            "closure adds artificial dissipation")
    P0b = sparse.kron(sparse.eye_array(nx), sparse.csr_array(sys.P[0]), format="csr")
    Q = build_q_for_system(sys)

    lam_max = float(np.max(np.abs(closure.delta))) * sys.h_max_eig
    dt = cfl * h / lam_max
    n_steps = max(1, int(np.ceil(t_final / dt - 1e-12)))
    dt = t_final / n_steps

    times = np.zeros(n_steps + 1)
    energies = np.zeros(n_steps + 1)
    bpow = np.zeros(n_steps + 1)
    ipow = np.zeros(n_steps + 1)

    def record(i, x):
        w = Hb @ x
        energies[i] = h * np.vdot(x, w).real
        w_left, w_right = closure.traces(w)
        bpow[i] = port_variables(BoundaryTrace(phi1=w_right, phi0=w_left), Q).pairing()
        ipow[i] = 2.0 * h * np.vdot(w, P0b @ w).real

    def as_cells(x):
        return x.reshape(nx, d).T.copy()

    x = _initial_state(x0, centers, d).T.ravel()  # cell-major
    record(0, x)

    snap_list = []
    snap_times = sorted(float(t) for t in snapshot_times)
    snap_idx = 0

    for step in range(n_steps):
        k1 = A @ x
        k2 = A @ (x + 0.5 * dt * k1)
        k3 = A @ (x + 0.5 * dt * k2)
        k4 = A @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = (step + 1) * dt
        times[step + 1] = t
        record(step + 1, x)
        while snap_idx < len(snap_times) and snap_times[snap_idx] <= t + 1e-12:
            snap_list.append((t, as_cells(x)))
            snap_idx += 1

    violation = float(max(0.0, np.max(np.diff(energies)))) if n_steps else 0.0
    return EnergyTrace(
        times=times,
        energy=energies,
        boundary_power=bpow,
        interior_power=ipow,
        max_violation=violation,
        notes=tuple(notes),
        snapshots=tuple(snap_list),
        cell_centers=centers,
        final_state=as_cells(x),
    )
