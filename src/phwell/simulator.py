"""Quadrature dissipativity oracle and a first-order energy-monitoring solver.

Two independent sources of evidence about a system, deliberately separate
from the matrix checkers:

* boundary_interpolant / quadrature_rayleigh / dissipativity_oracle sample
  smooth states with prescribed boundary traces drawn from ker WB_hat and
  integrate Re <A0 x, x> by composite Gauss-Legendre quadrature, once per
  family of states as a Gram matrix of its scalar basis (_rayleigh_split).
  That basis depends only on the order N and the layer width, so its Gram
  stack is integrated once per (order, width) per process and shared by
  every system (_oracle_gram);
* simulate evolves first-order (N = 1) systems with an upwind
  finite-volume method in characteristic variables and records the
  discrete energy <x, H x> together with boundary / interior power.  The
  scheme and its ghost-trace boundary closure are linear in the state, so
  _semidiscrete_operator assembles them once as a sparse matrix A_h, and
  a classical Runge-Kutta step with it is one fixed sparse matrix R
  (_rk4_matrix).  Stacked under the record rows [Hb; P0b Hb], R makes
  each step one product that also records the state it starts from, in
  real arithmetic when the system and the start state are real.

The upwind scheme only ever adds numerical dissipation, so it can confirm
an energy inequality but never fake energy growth.  For the assembled
operator this is checked, not assumed: tests/test_simulation.py asserts
lambda_max(Herm(h Hb A_h)) <= 0 on dissipative systems and > 0 on the
antidamped control, and the same of R* W R - W with W = h Hb for the
fully discrete step, which RK4 does not guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve

from . import numlin
from .errors import (
    BoundaryClosureSingular,
    CFLViolation,
    PhwellError,
    ShapeError,
)
from .interval import kernel_energy_form
from .model import HALF_LINE, UNIT_INTERVAL, PortHamiltonianSystem, build_q_for_system

# simulate's step limit.  Its per-step records take 24 + 32 d bytes a step
# (56 MB at d = 1); every run of the tests and the benchmark takes fewer
# than 1,000 steps.
MAX_STEPS = 1_000_000
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

    def junctions(self):
        """Points where some cutoff stops being analytic (panel breaks)."""
        pts = set()
        for kind, _, _ in self.terms:
            pts.update(_cutoff_junctions(kind))
        return tuple(sorted(p for p in pts if 0.0 < p < 1.0))

    def narrowest_transition(self) -> float:
        """Width of the steepest cutoff transition; 1.0 when there is none."""
        widths = [np.diff(_cutoff_junctions(kind)) for kind, _, _ in self.terms]
        return float(min((w.min() for w in widths if w.size), default=1.0))

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
        if b - a <= 0:
            continue
        sub = np.linspace(a, b, per + 1)
        lo, hi = sub[:-1, None], sub[1:, None]  # one row per panel
        half = 0.5 * (hi - lo)
        nodes.append((0.5 * (lo + hi) + half * nodes16).ravel())
        weights.append((half * weights16).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def quadrature_rayleigh(sys: PortHamiltonianSystem, x: SmoothFunction) -> float:
    """Re <A0 x, x> = Re integral of x^* sum_k P_k x^{(k)} over [0, 1].

    Derivatives of x are analytic; the quadrature is composite
    Gauss-Legendre split at the cutoff plateau junctions.  The Hamiltonian
    density plays no role here (the value concerns the unweighted
    generator).
    """
    if sys.interval != UNIT_INTERVAL:
        raise ShapeError("quadrature_rayleigh needs a unit_interval system")
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


def _boundary_form(Q) -> np.ndarray:
    """B with z^* B z = 0.5 (u^* Q u - v^* Q v) for traces z = [u; v]."""
    n = Q.shape[0]
    B = np.zeros((2 * n, 2 * n), dtype=Q.dtype)
    B[:n, :n] = Q
    B[n:, n:] = -Q
    return 0.5 * B


def _forms(M, Z) -> np.ndarray:
    """Re z^* M z for every column z of Z."""
    return np.real(np.sum(Z.conj() * (M @ Z), axis=0))


def boundary_form_value(sys: PortHamiltonianSystem, u, v,
                        x: SmoothFunction = None) -> float:
    """0.5 (u^* Q u - v^* Q v) + Re <P0 x, x> for trace targets (u, v).

    This is the integrated-by-parts value of Re <A0 x, x>; the zeroth
    order term needs the state itself, interpolated when not supplied.
    """
    z = np.concatenate([np.asarray(u, dtype=complex).reshape(-1),
                        np.asarray(v, dtype=complex).reshape(-1)])
    bval = float(_forms(_boundary_form(build_q_for_system(sys)), z[:, None])[0])
    if np.any(np.abs(sys.P[0]) > 0):
        if x is None:
            x = boundary_interpolant(z[:sys.nd], z[sys.nd:], d=sys.dim_d)
        S0 = _rayleigh_split(sys.order_N, x)[0]
        bval += float(np.real(np.sum(sys.P[0] * S0)))
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
ORACLE_TOL = 1e-8  # a probe value above this is a witness of growth


def dissipativity_oracle(sys: PortHamiltonianSystem, n_samples: int = 64,
                         seed: int = 0) -> OracleReport:
    """Sample smooth domain states and test Re <A0 x, x> <= 0 by quadrature.

    Three families of states are probed:
      * interpolants with traces drawn randomly from ker WB_hat, at a
        ladder of boundary-layer widths (narrow layers shrink the zeroth
        order term, exposing the boundary contribution);
      * the interpolant whose trace maximizes the boundary energy form
        (importance direction; the value is still computed by quadrature);
      * compactly supported bumps along eigen-directions of Re P0, which
        have zero traces and witness interior growth.
    Every state is linear in its trace (resp. bump direction) z, so the
    Gram stack S of the scalar basis at each layer width (resp. of the
    bump) gives the Gram matrix M = sum_k S_k kron P_k, and each value is
    Re z^* M z.  S depends on the order and the width alone: it is
    integrated once per (order, width) per process and shared by every
    system (_oracle_gram).  Every interpolant value is cross-checked
    against the integrated-by-parts boundary form; a mismatch there means
    a quadrature/interpolant bug, not a property of the system.  Values
    are normalized per sample by max(1, ||traces||^2); the bump directions
    have unit norm.  The report holds when no value exceeds ORACLE_TOL.
    n_samples must be >= 0.
    """
    if sys.interval != UNIT_INTERVAL:
        raise ShapeError("dissipativity_oracle needs a unit_interval system")
    if n_samples < 0:
        raise PhwellError(f"n_samples must be >= 0, got {n_samples}")
    K = numlin.kernel_basis(sys.WB_hat, sys.tol.check)
    r = K.shape[1]
    N, nd, d = sys.order_N, sys.nd, sys.dim_d
    P = np.asarray(sys.P)
    rng = np.random.default_rng(seed)
    p0_nonzero = bool(np.any(np.abs(P[0]) > 0))
    widths = ORACLE_LAYER_WIDTHS if p0_nonzero else ORACLE_LAYER_WIDTHS[:1]

    def family(eps, Z, bform, scale):
        """Values of the probe columns Z and their cross-check gaps."""
        S = _oracle_gram(N, eps)
        terms = [np.kron(S[k], P[k]) for k in range(N + 1)]
        val = _forms(sum(terms), Z)
        gap = np.abs(val - bform - _forms(terms[0], Z))
        return val / scale, gap / scale

    vals, diffs = [], []  # per family, in report order
    Z = np.zeros((2 * nd, 0))
    if r:
        # sample by sample, the same stream as one draw (or a real and an
        # imaginary draw) per sample
        if sys.field == "complex":
            D = rng.normal(size=(n_samples, 2, r))
            draws = D[:, 0] + 1j * D[:, 1]
        else:
            draws = rng.normal(size=(n_samples, r))
        # importance direction: trace vector maximizing the boundary form
        Q = build_q_for_system(sys)
        G = kernel_energy_form(K, Q)
        top = np.linalg.eigh(numlin.hermitian_part(G))[1][:, -1]
        Z = K @ np.vstack([draws, top]).T  # one trace vector per column
        scale = np.maximum(1.0, np.sum(np.abs(Z) ** 2, axis=0))
        bform = _forms(_boundary_form(Q), Z)
        v, g = zip(*(family(eps, Z, bform, scale) for eps in widths))
        vals.append(np.column_stack(v).ravel())  # sample-major, width-minor
        diffs.append(np.column_stack(g).ravel())

    if p0_nonzero:
        _, evecs = np.linalg.eigh(sys.re_P0())
        v, g = family(None, evecs, 0.0, 1.0)
        vals.append(v)
        diffs.append(g)

    if not vals:
        return OracleReport(True, 0, r, 0.0, np.zeros(0), 0.0, None, ORACLE_TOL)
    arr = np.concatenate(vals)
    best = int(np.argmax(arr))  # the first probe reaching the maximum
    witness = None
    if arr[best] > ORACLE_TOL:
        if best < Z.shape[1] * len(widths):
            i, j = divmod(best, len(widths))
            witness = boundary_interpolant(Z[:nd, i], Z[nd:, i], eps=widths[j], d=d)
        else:
            witness = interior_probe(evecs[:, best - Z.shape[1] * len(widths)])
    return OracleReport(
        holds=bool(arr[best] <= ORACLE_TOL),
        n_samples=n_samples,
        kernel_dim=r,
        max_value=float(arr[best]),
        values=arr,
        cross_check_max_diff=float(np.max(np.concatenate(diffs))),
        witness=witness,
        tolerance=ORACLE_TOL,
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
    """Compactly supported C-infinity bump in one state component.

    center must be finite, width a finite number > 0 and component an
    index below d.
    """
    if not (np.isfinite(center) and 0.0 < width < np.inf):
        raise PhwellError(f"bump center must be finite and width a finite "
                          f"number > 0, got center {center} and width {width}")
    if not 0 <= component < d:
        raise PhwellError(f"bump component must lie in [0, {d}), got {component}")

    def x0(zeta):
        r = (zeta - center) / width
        out = np.zeros(d)
        if abs(r) < 1.0:
            out[component] = amplitude * np.exp(1.0 - 1.0 / (1.0 - r * r))
        return out

    return x0


def _initial_state(x0, centers, d) -> np.ndarray:
    """x0 on the cells as a (d, nx) array, the layout of EnergyTrace states."""
    if callable(x0):
        cols = [np.asarray(x0(float(z)), dtype=complex).reshape(d) for z in centers]
        return np.stack(cols, axis=1)
    arr = np.asarray(x0, dtype=complex)
    if arr.shape != (d, centers.size):
        raise ShapeError(f"x0 must be callable or a ({d}, {centers.size}) array")
    return arr


class _BoundaryClosure:
    """Ghost traces as one linear map of the first and last cells.

    Unknown z = [w_hat(1); w_hat(0)] with the boundary rows plus one
    characteristic extrapolation row per outgoing component at each end,
    so [w_left; w_right] = G [w_first; w_last], solved once for all
    columns.  Unit interval: the boundary rows are WB_hat.  Half line: the
    truncation end takes the z = 1 slot with rows [[S[pos], 0], [0, WB_hat]],
    which set its incoming characteristics to zero (absorbing).
    """

    def __init__(self, sys, S, delta):
        self.delta = delta
        self.pos = np.where(delta > 0)[0]  # moving left; outgoing at z=0
        self.neg = np.where(delta < 0)[0]  # moving right; outgoing at z=1
        d = S.shape[0]
        self.d = d
        WB = np.asarray(sys.WB_hat, dtype=complex)
        k = WB.shape[0]
        need = d
        if sys.interval != UNIT_INTERVAL:
            need = self.neg.size
            WB = np.block([[S[self.pos], np.zeros((self.pos.size, d))],
                           [np.zeros((k, d)), WB]])
        if k != need:
            raise BoundaryClosureSingular(
                f"boundary closure needs k = {need} conditions for the "
                f"upwind scheme, got k = {k}")
        # columns of R act on [w_first; w_last]; every component is outgoing
        # at one end, so the d boundary rows and d outgoing rows fill M
        M = np.zeros((2 * d, 2 * d), dtype=complex)
        R = np.zeros((2 * d, 2 * d), dtype=complex)
        M[:d, :] = WB
        out_right = d + np.arange(self.neg.size)
        out_left = d + self.neg.size + np.arange(self.pos.size)
        M[out_right, :d] = S[self.neg]  # outgoing at the right end
        R[out_right, d:] = S[self.neg]
        M[out_left, d:] = S[self.pos]  # outgoing at the left end
        R[out_left, :d] = S[self.pos]
        try:
            cond_s = np.linalg.svd(M, compute_uv=False)
            if numlin.rank_from_singular_values(cond_s, 1e-12) < 2 * d:
                raise BoundaryClosureSingular(
                    "ghost-state system is singular: the boundary conditions "
                    "constrain outgoing characteristics inconsistently",
                    matrix=M)
            Z = lu_solve(lu_factor(M), R)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise BoundaryClosureSingular(str(exc), matrix=M)
        self.G = np.vstack([Z[d:], Z[:d]])  # z lists w_hat(1) first

    def traces(self, ends):
        """(w_hat_left, w_hat_right) ghost traces from [w_first; w_last].

        ends stacks the first and last cells' values of w = Hx, (2d,) for
        one state or (2d, n) for n states, one product for all of them.
        """
        g = self.G @ ends
        return g[:self.d], g[self.d:]


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


def _rk4_matrix(A, dt: float):
    """One classical RK4 step of dx/dt = A x as a sparse matrix.

    R = I + Z + Z^2/2 + Z^3/6 + Z^4/24 with Z = dt A, built in Horner form
    I + Z (I + Z/2 (I + Z/3 (I + Z/4))): each level is one sparse product
    with A, its entries scaled in place and 1 added on the diagonal, so no
    identity or scaled copy is kept beside it.
    """
    R = sparse.eye_array(A.shape[0], format="csr")
    for j in (4, 3, 2, 1):
        R = A @ R
        R.data *= dt / j
        R.setdiag(R.diagonal() + 1.0)
    return R


def simulate(sys: PortHamiltonianSystem, x0, t_final: float, nx: int,
             cfl: float = 0.8, L: float = 10.0,
             snapshot_times=()) -> EnergyTrace:
    """Method-of-lines upwind solve of dx/dt = P1 d(Hx)/dz + P0 Hx.

    x0 is a callable z -> d-vector or a (d, nx) array of cell values, the
    layout of final_state and the snapshots, so a run can restart from
    another's final_state.  t_final and L must be finite numbers > 0, and
    each snapshot time a finite number in [0, t_final]; a run needing more
    than MAX_STEPS steps is refused before anything is allocated.  A
    snapshot is x0 for a time within 1e-12 of 0, otherwise the state after
    the first step that reaches its time.

    First order in space (characteristic upwinding of w = Hx with H frozen
    per cell), classical four-stage explicit stepping in time with
    dt = cfl * h / lambda_max.  The boundary ghost traces solve
    {WB_hat traces = 0} + {outgoing characteristic extrapolation}; they are
    linear in the end cells, so the whole scheme is assembled once as the
    sparse matrix A_h of _semidiscrete_operator.  An RK4 step of a linear
    system is one fixed matrix, R = _rk4_matrix(A_h, dt), assembled once
    per run.  tests/test_simulation.py checks that Herm(h Hb A_h) is
    negative semidefinite and that R does not increase the discrete energy
    norm for dissipative systems.  Half-line systems are truncated to
    [0, L] with an absorbing characteristic closure at the far end (adds
    artificial dissipation, noted on the trace).

    Records the discrete energy sum_c h x_c^* H_c x_c per step along with
    the boundary port power 2 Re <f, e> and interior power 2 Re <P0 w, w>.
    Each step is one sparse product with the stacked M = [Hb; P0b Hb; R]:
    y = M x_n holds w_n = Hb x_n, P0 w_n and the next state R x_n, so a
    step and the record of the state it starts from cost one product.
    When M and x0 are real (every imaginary part exactly zero), the run
    steps in float64; a complex product of such factors equals the real
    one bit for bit, so only the energies' dot products round differently.
    final_state and the snapshots are complex either way.
    """
    if sys.order_N != 1:
        raise ShapeError("simulate supports first-order (N = 1) systems only")
    if nx < 16:
        raise ShapeError("nx must be at least 16")
    if not 0.0 < cfl <= 0.9:
        raise CFLViolation(f"cfl must lie in (0, 0.9], got {cfl}")
    if not 0.0 < t_final < np.inf:
        raise PhwellError(f"t_final must be a finite number > 0, got {t_final}")
    if not 0.0 < L < np.inf:
        raise PhwellError(f"L must be a finite number > 0, got {L}")
    snap_times = sorted(float(t) for t in snapshot_times)
    bad = [t for t in snap_times if not 0.0 <= t <= t_final]
    if bad:
        raise PhwellError(f"snapshot times must lie in [0, t_final = {t_final:g}], "
                          f"got {bad}")

    d = sys.dim_d
    dn = d * nx
    A, Hb, h, closure = _semidiscrete_operator(sys, nx, L)
    centers = (np.arange(nx) + 0.5) * h
    notes = []
    if sys.interval == HALF_LINE:
        notes.append(
            f"half-line run truncated to [0, {float(L):g}]; the absorbing "
            "closure adds artificial dissipation")

    lam_max = float(np.max(np.abs(closure.delta))) * sys.h_max_eig
    dt = cfl * h / lam_max
    n_steps = max(1, int(np.ceil(t_final / dt - 1e-12)))
    if n_steps > MAX_STEPS:
        raise PhwellError(f"t_final = {t_final:g} at nx = {nx} needs {n_steps} steps, "
                          f"more than the limit of {MAX_STEPS}")
    dt = t_final / n_steps

    P0b = sparse.kron(sparse.eye_array(nx), sparse.csr_array(sys.P[0]), format="csr")
    blocks = [Hb, P0b @ Hb, _rk4_matrix(A, dt)]
    x = _initial_state(x0, centers, d).T.ravel()  # cell-major
    if not (x.imag.any() or any(b.data.imag.any() for b in blocks)):
        # contiguous real copies: a strided .real view is copied per product
        blocks = [sparse.csr_array((b.data.real.copy(), b.indices, b.indptr),
                                   shape=b.shape) for b in blocks]
        x = x.real.copy()
    M = sparse.vstack(blocks, format="csr")
    M.eliminate_zeros()
    del A, Hb, P0b, blocks  # freed before the loop: only M is needed
    # the record rows [Hb; P0b Hb] of M as a view, for the last state
    k = M.indptr[2 * dn]
    M_record = sparse.csr_array((M.data[:k], M.indices[:k], M.indptr[:2 * dn + 1]),
                                shape=(2 * dn, dn))

    times = np.zeros(n_steps + 1)
    energies = np.zeros(n_steps + 1)
    ipow = np.zeros(n_steps + 1)
    ends = np.zeros((2 * d, n_steps + 1), dtype=complex)  # first, last cell of w

    def record(i, x, y):
        """Step i's energy, interior power and end cells from y = M x."""
        w = y[:dn]
        energies[i] = h * np.vdot(x, w).real
        ipow[i] = 2.0 * h * np.vdot(w, y[dn:2 * dn]).real
        ends[:d, i], ends[d:, i] = w[:d], w[-d:]

    def as_cells(x):
        return x.reshape(nx, d).T.astype(complex)

    snap_list = []
    snap_idx = 0
    while snap_idx < len(snap_times) and snap_times[snap_idx] <= 1e-12:
        snap_list.append((0.0, as_cells(x)))
        snap_idx += 1

    for step in range(n_steps):
        y = M @ x
        record(step, x, y)
        x = y[2 * dn:]
        t = (step + 1) * dt
        times[step + 1] = t
        while snap_idx < len(snap_times) and snap_times[snap_idx] <= t + 1e-12:
            snap_list.append((t, as_cells(x)))
            snap_idx += 1
    record(n_steps, x, M_record @ x)

    # port power 2 Re <f, e> with f = Q (w_r - w_l) / sqrt2, e = (w_r + w_l) / sqrt2
    w_left, w_right = closure.traces(ends)
    f = build_q_for_system(sys) @ (w_right - w_left)
    bpow = np.real(np.sum(f.conj() * (w_right + w_left), axis=0))
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
