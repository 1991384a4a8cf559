"""Quadrature dissipativity oracle and a first-order energy-monitoring solver.

Two independent sources of evidence about a system, deliberately separate
from the matrix checkers:

* boundary_interpolant / quadrature_rayleigh / dissipativity_oracle build
  smooth states with prescribed boundary traces and integrate
  Re <A0 x, x> by composite Gauss-Legendre quadrature, once per family of
  states as a Gram matrix of its scalar basis (_rayleigh_split).  That
  basis depends only on the order N and the layer width, so its Gram
  stack is integrated once per (order, width) per process and shared by
  every system (_oracle_gram); a system's M = sum_k S_k kron P_k is one
  broadcast product of that stack with P, equal entry for entry to
  np.kron.  The oracle decides the largest value over all traces in
  ker WB_hat, and over interior bumps, as two eigenvalue problems, and
  cross-checks the first against half of model.boundary_form(sys.Q); it
  contradicts T1.5 (unit interval) or TA.3 (half line) only on a bug;
* simulate evolves first-order (N = 1) systems with an upwind
  finite-volume method in characteristic variables and records the
  discrete energy <x, H x>, the interior power and the boundary power
  model.boundary_form(sys.Q) on the ghost traces.  The scheme and its
  ghost-trace boundary closure are linear in the state, so
  _semidiscrete_operator assembles them once as a sparse matrix A_h from
  their d x d blocks (_block_csr), and a classical Runge-Kutta step with
  it is one fixed sparse matrix R (_rk4_matrix).  Stacked under the
  record rows Hb, and P0b Hb when P0 != 0, R makes each step one product
  that also records the state it starts from, made by the CSR kernel into
  two reused buffers.  A run is assembled and stepped in float64 exactly
  when its blocks and its start state are real, else in complex128.
  scipy.sparse loads at the first simulate call, not at import.

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
from math import comb, factorial

import numpy as np
from numpy.polynomial import polynomial as poly

from . import numlin
from .errors import (
    BoundaryClosureSingular,
    CFLViolation,
    PhwellError,
    ShapeError,
)
from .interval import kernel_energy_form
from .model import HALF_LINE, UNIT_INTERVAL, PortHamiltonianSystem, boundary_form, is_real

# kernel_energy_form is bound here for the benchmark's tracer
# (perfbench/tracer.py), which counts calls to it by this name; the
# oracle never calls it, so that count reads 0.
__all__ = ["MAX_STEPS", "ORACLE_TOL", "EnergyTrace", "OracleReport", "SmoothFunction",
           "boundary_form_value", "boundary_interpolant", "dissipativity_oracle",
           "interior_probe", "kernel_energy_form", "quadrature_rayleigh", "simulate",
           "smooth_bump"]

# simulate's step limit.  Its per-step records take 24 + 32 d bytes a step
# (56 MB at d = 1); every run of the tests and the benchmark takes fewer
# than 1,000 steps.
MAX_STEPS = 1_000_000
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
    bool is neither).
    """
    if not (is_real(eps) and 0.0 < eps <= 0.25):
        raise ShapeError(f"eps must be a real number in (0, 1/4], got {eps!r}")
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if u.size != v.size:
        raise ShapeError("trace targets must have equal length")
    if d is None:
        d = u.size  # N = 1 by default
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
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
    generator).  A half-line state needs zero traces at z = 1 (ShapeError
    otherwise); it extends by zero, so its [0, 1] value is the half-line one.
    """
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
    N*d entries, or a nonzero u on the half line, raises ShapeError.
    """
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


def _kron_stack(S, P) -> np.ndarray:
    """S_k kron P_k for every k in one broadcast product, entry for entry np.kron."""
    n = S.shape[1] * P.shape[1]
    return (S[:, :, None, :, None] * P[:, None, :, None, :]).reshape(len(P), n, n)


def _boundary_witness(P, z) -> SmoothFunction | None:
    """Interpolant of traces z at the widest width whose full value is > ORACLE_TOL."""
    N, d = len(P) - 1, P.shape[1]
    for eps in ORACLE_WITNESS_WIDTHS:
        M = _kron_stack(_oracle_gram(N, eps), P).sum(axis=0)
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
        families.append((w[-1], K @ C[:, -1], lambda z: _boundary_witness(P, z)))
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


# ---------------------------------------------------------------------------
# time-domain simulation


@dataclass
class EnergyTrace:
    """Discrete energy <x, Hx> and power terms along a simulation run."""

    times: np.ndarray
    energy: np.ndarray
    boundary_power: np.ndarray
    interior_power: np.ndarray
    max_violation: float  # largest step rise of energy; inf if one is not finite
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

    center, width and amplitude must be finite real numbers and width > 0,
    d a positive integer and component an integer in [0, d), none of them
    a bool; anything else raises PhwellError naming the argument.  The bump
    is a callable z -> d-vector whose on_cells(centers) gives all cells at
    once, the path simulate takes; a call is on_cells on one centre.
    """
    for name, value, low in (("center", center, -np.inf), ("width", width, 0.0),
                             ("amplitude", amplitude, -np.inf)):
        if not (is_real(value) and low < value < np.inf):
            raise PhwellError(f"bump {name} must be a finite real number"
                              f"{' > 0' if low == 0.0 else ''}, got {value!r}")
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise PhwellError(f"bump dimension d must be an integer >= 1, got {d!r}")
    if (isinstance(component, bool) or not isinstance(component, (int, np.integer))
            or not 0 <= component < d):
        raise PhwellError(f"bump component must be an integer in [0, {d}), "
                          f"got {component!r}")
    return _Bump(center, width, d, component, amplitude)


@dataclass(frozen=True)
class _Bump:
    """smooth_bump's state: amplitude exp(1 - 1/(1 - r^2)), r = (z - center)/width."""

    center: float
    width: float
    d: int
    component: int
    amplitude: float

    def __call__(self, zeta):
        return self.on_cells([zeta])[:, 0].real

    def on_cells(self, centers) -> np.ndarray:
        """The bump at every centre as a complex (d, len(centers)) array."""
        r = (np.asarray(centers, dtype=float) - self.center) / self.width
        inside = np.abs(r) < 1.0
        r = r[inside]
        out = np.zeros((self.d, inside.size), dtype=complex)
        out[self.component, inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - r * r))
        return out


def _initial_state(x0, centers, d) -> np.ndarray:
    """x0 on the cells as a (d, nx) array, the layout of EnergyTrace states.

    A smooth_bump is sampled on all cells at once; any other callable is
    called once per cell centre.
    """
    if isinstance(x0, _Bump) and x0.d == d:
        x0 = x0.on_cells(centers)
    elif callable(x0):
        cells = []
        for z in centers.tolist():
            value = x0(z)
            try:
                arr = np.asarray(value, dtype=complex)
                got = arr.size
            except (TypeError, ValueError):
                got = f"{type(value).__name__} {value!r:.40}"
            if got != d:
                raise ShapeError(f"x0 at cell centre z = {z:g} must give {d} numbers, "
                                 f"got {got}")
            cells.append(arr.reshape(d))
        x0 = np.array(cells).T
    arr = np.asarray(x0, dtype=complex)
    if arr.shape != (d, centers.size):
        raise ShapeError(f"x0 must be callable or a ({d}, {centers.size}) array")
    # a NaN energy would pass the step-rise check: max(0.0, nan) is 0.0
    if not np.isfinite(arr).all():
        raise PhwellError("x0 must be finite in every cell")
    return arr


class _BoundaryClosure:
    """P1's characteristics, and the ghost traces as one linear map of the end cells.

    S and delta factor P1 = S* diag(delta) S.  Unknown z = [w_hat(1);
    w_hat(0)] (model.boundary_form's order) with the boundary rows plus one
    characteristic extrapolation row per outgoing component at each end,
    so z = G [w_first; w_last], solved once for all columns.  Unit
    interval: the boundary rows are WB_hat.  Half line: the truncation end
    takes the z = 1 slot with rows [[S[pos], 0], [0, WB_hat]], which set
    its incoming characteristics to zero (absorbing).
    """

    def __init__(self, sys):
        S, delta = numlin.hermitian_eigendecomposition(np.asarray(sys.P[1], dtype=complex))
        self.S, self.delta = S, delta
        self.pos = np.where(delta > 0)[0]  # moving left; outgoing at z=0
        self.neg = np.where(delta < 0)[0]  # moving right; outgoing at z=1
        d = S.shape[0]
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
        cond_s = numlin.singular_values(M)
        if numlin.rank_from_singular_values(cond_s, 1e-12) < 2 * d:
            raise BoundaryClosureSingular(
                "ghost-state system is singular: the boundary conditions "
                "constrain outgoing characteristics inconsistently",
                matrix=M)
        self.G = np.linalg.solve(M, R)

    def traces(self, ends):
        """Ghost traces [w_hat(1); w_hat(0)] from [w_first; w_last].

        ends stacks the first and last cells' values of w = Hx, (2d,) for
        one state or (2d, n) for n states, one product for all of them.
        """
        return self.G @ ends


def _block_csr(blocks, d: int, nx: int):
    """The (d nx) x (d nx) CSR matrix of d x d blocks at cell positions.

    blocks lists (B, rows, cols) with equal-length arrays of cell indices:
    a d x d B goes to every position (rows[i], cols[i]), a (len(rows), d, d)
    stack puts B[i] there.  Only nonzero entries are placed, and all of
    them become CSR in one conversion, so memory is O(nnz).  The cell
    coordinates take the index dtype scipy picks for d nx (int32 unless
    d nx passes 2**31 - 1), which carries over to every product built on
    the matrix, so simulate's step streams 4-byte indices.
    """
    from scipy import sparse

    idx = sparse.get_index_dtype(maxval=d * nx)
    r, c, v = [], [], []
    for B, rows, cols in blocks:
        rows, cols = np.asarray(rows) * d, np.asarray(cols) * d
        if B.ndim == 2:
            a, b = np.nonzero(B)
            r.append((rows[:, None] + a).ravel())
            c.append((cols[:, None] + b).ravel())
            v.append(np.tile(B[a, b], rows.size))
        else:
            k, a, b = np.nonzero(B)
            r.append(rows[k] + a)
            c.append(cols[k] + b)
            v.append(B[k, a, b])
    coords = (np.concatenate(r, dtype=idx), np.concatenate(c, dtype=idx))
    return sparse.coo_array((np.concatenate(v), coords), shape=(d * nx, d * nx)).tocsr()


def _semidiscrete_operator(sys: PortHamiltonianSystem, closure: _BoundaryClosure,
                           h: float, nx: int, real_start: bool):
    """The upwind scheme with its boundary closure as sparse matrices.

    Returns (A_h, Hb, P0w) for nx cells of width h: dx/dt = A_h x on the
    cell-major state (cell c holds entries c*d .. c*d+d-1), Hb =
    blockdiag(H_c) and P0w = P0b Hb, the interior-power record rows, or
    None when P0 = 0.  With w = Hb x, Bp = S* Pi+ S and Bn = S* Pi- S, an
    interior cell sees -P1 Bn/h on its left neighbour, P1 (Bn - Bp)/h + P0
    on itself and P1 Bp/h on its right neighbour; the closure's ghost
    traces G fold into the blocks of cells 0 and nx-1.  The discrete energy
    is h x* Hb x, so Herm(h Hb A_h) <= 0 certifies that the semi-discrete
    scheme dissipates.  The blocks come from complex P1, P0, S and G; the
    three matrices are float64 exactly when real_start holds and no placed
    block, H or P0 has a nonzero imaginary part (the complex assembly's
    real parts bit for bit), else complex128.
    """
    d = sys.dim_d
    P1 = np.asarray(sys.P[1], dtype=complex)
    P0 = np.asarray(sys.P[0], dtype=complex)
    Sp, Sn = closure.S[closure.pos], closure.S[closure.neg]
    Bp = Sp.conj().T @ Sp
    Bn = Sn.conj().T @ Sn

    # cells 0 and nx-1: own upwind half plus the ghost traces
    ends = np.zeros((2 * d, 2 * d), dtype=complex)
    ends[:d, :d] = P1 @ Bn / h + P0
    ends[d:, d:] = P0 - P1 @ Bp / h
    ends[:d] -= P1 @ closure.G[d:] / h  # ghost trace w_hat(0) at cell 0
    ends[d:] += P1 @ closure.G[:d] / h  # ghost trace w_hat(1) at cell nx-1
    cells = np.arange(nx)
    first, last = [0], [nx - 1]
    # H frozen per cell; piecewise representations extend flat beyond the
    # last breakpoint, which covers the truncated half line as well.
    H = sys.H.matrices[0] if sys.H.kind == "constant" else sys.H.at((cells + 0.5) * h)
    blocks = [-P1 @ Bn / h, P1 @ (Bn - Bp) / h + P0, P1 @ Bp / h, ends, H, P0]
    if real_start and not any(B.imag.any() for B in blocks):
        # real data: the complex products of these blocks would equal the
        # real ones bit for bit, so the sparse matrices are built real
        blocks = [B.real for B in blocks]
    left, own, right, ends, H, P0 = blocks
    A_w = _block_csr([(left, cells[1:], cells[:-1]),
                      (own, cells[1:-1], cells[1:-1]),
                      (right, cells[:-1], cells[1:]),
                      (ends[:d, :d], first, first), (ends[:d, d:], first, last),
                      (ends[d:, :d], last, first), (ends[d:, d:], last, last)], d, nx)
    Hb = _block_csr([(H, cells, cells)], d, nx)
    A_h = (A_w @ Hb).tocsr()
    A_h.eliminate_zeros()
    P0w = _block_csr([(P0, cells, cells)], d, nx) @ Hb if P0.any() else None
    return A_h, Hb, P0w


def _rk4_matrix(A, dt: float):
    """One classical RK4 step of dx/dt = A x as a sparse matrix.

    R = I + Z + Z^2/2 + Z^3/6 + Z^4/24 with Z = dt A, built in Horner form
    I + Z (I + Z/2 (I + Z/3 (I + Z/4))): each level is one sparse product
    with A, its entries scaled in place and 1 added on the diagonal, so no
    identity or scaled copy is kept beside it.
    """
    from scipy import sparse

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
    another's final_state; a callable that does not give d numbers at a
    cell centre raises ShapeError.  t_final and L must be finite real
    numbers > 0 and each snapshot time one in [0, t_final], or PhwellError
    names the argument; a cfl outside (0, 0.9] raises CFLViolation.  A bool
    is not a number.  A run needing more than MAX_STEPS steps, or whose
    boundary closure has no solution (BoundaryClosureSingular), is refused
    before any per-cell array exists.  A snapshot is the state at the
    first step whose time is within 1e-12 of the snapshot time or past it
    (x0 for time 0).

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
    the boundary power, model.boundary_form(Q) on the ghost traces (the
    port power 2 Re <f, e>), and interior power 2 Re <P0 w, w>.
    Each step is one sparse product with the stacked M = [Hb; P0b Hb; R]:
    y = M x_n holds w_n = Hb x_n, P0 w_n and the next state R x_n, so a
    step and the record of the state it starts from cost one product.
    The P0b Hb rows are stacked only when P0 has a nonzero entry; with
    P0 = 0 the interior power is exactly 0 at every step.
    The closure, the step count and x0 come first; then M is assembled
    once, in float64 exactly when every placed block, H, P0 and x0 are
    real, else in complex128.  A complex product of real factors equals
    the real one bit for bit, so a real run differs from a complex one
    only in the rounding of the energies' dot products.  final_state and
    the snapshots are complex either way.  A smooth_bump x0 is sampled on
    all cells at once (on_cells), any other callable once per cell.
    M has int32 indices (see _block_csr).  Each product is the CSR kernel
    that M @ x runs, called directly into one of two buffers allocated
    once per run, so every result equals M @ x bit for bit.  The kernel
    is a private scipy name, resolved once per call; where it is missing
    each step copies M @ x into the buffer, with the same results.
    """
    from scipy import sparse

    try:  # the CSR kernel of M @ x, a private name checked on scipy 1.17.1
        from scipy.sparse._sparsetools import csr_matvec
    except ImportError:
        csr_matvec = None

    if sys.order_N != 1:
        raise ShapeError("simulate supports first-order (N = 1) systems only")
    if isinstance(nx, bool) or not isinstance(nx, (int, np.integer)) or nx < 16:
        raise ShapeError(f"nx must be an integer >= 16, got {nx!r}")
    if not (is_real(cfl) and 0.0 < cfl <= 0.9):
        raise CFLViolation(f"cfl must lie in (0, 0.9], got {cfl!r}")
    if not (is_real(t_final) and 0.0 < t_final < np.inf):
        raise PhwellError(f"t_final must be a finite number > 0, got {t_final!r}")
    if not (is_real(L) and 0.0 < L < np.inf):
        raise PhwellError(f"L must be a finite number > 0, got {L!r}")
    snap_times = list(snapshot_times)
    bad = [t for t in snap_times if not (is_real(t) and 0.0 <= t <= t_final)]
    if bad:
        raise PhwellError(f"snapshot times must lie in [0, t_final = {t_final:g}], "
                          f"got {bad}")
    snap_times = sorted(map(float, snap_times))

    d = sys.dim_d
    dn = d * nx
    closure = _BoundaryClosure(sys)
    h = (1.0 if sys.interval == UNIT_INTERVAL else float(L)) / nx
    lam_max = float(np.max(np.abs(closure.delta))) * sys.h_max_eig
    dt = cfl * h / lam_max
    n_steps = max(1, int(np.ceil(t_final / dt - 1e-12)))
    if n_steps > MAX_STEPS:
        raise PhwellError(f"t_final = {t_final:g} at nx = {nx} needs {n_steps} steps, "
                          f"more than the limit of {MAX_STEPS}")
    dt = t_final / n_steps
    centers = (np.arange(nx) + 0.5) * h
    x = _initial_state(x0, centers, d).T.ravel()  # cell-major

    A, Hb, P0w = _semidiscrete_operator(sys, closure, h, nx, real_start=not x.imag.any())
    # with P0 = 0 the interior power is exactly 0: no P0 rows to multiply
    has_p0 = P0w is not None
    blocks = [Hb, P0w, _rk4_matrix(A, dt)] if has_p0 else [Hb, _rk4_matrix(A, dt)]
    M = sparse.vstack(blocks, format="csr")
    M.eliminate_zeros()
    if M.dtype == np.float64:
        x = x.real.copy()
    start = (len(blocks) - 1) * dn  # R x_n: the rows below the record rows
    del A, Hb, P0w, blocks  # freed before the loop: only M is needed

    times = np.zeros(n_steps + 1)
    energies = np.zeros(n_steps + 1)
    ipow = np.zeros(n_steps + 1)
    ends = np.zeros((2 * d, n_steps + 1), dtype=complex)  # first, last cell of w

    def record(i, x, y):
        """Step i's energy, interior power and end cells from y = M x."""
        w = y[:dn]
        energies[i] = h * np.vdot(x, w).real
        if has_p0:
            ipow[i] = 2.0 * h * np.vdot(w, y[dn:2 * dn]).real
        ends[:d, i], ends[d:, i] = w[:d], w[-d:]

    def as_cells(x):
        return x.reshape(nx, d).T.astype(complex)

    # M @ x without scipy's dispatch and its fresh result array: the same
    # kernel call into one of two reused buffers, zeroed first because
    # csr_matvec adds to y.  x is a view of the other buffer, so the
    # product never overwrites its input; snapshots and final_state copy.
    # A scipy without the kernel's name gets the public product instead.
    nrow, ncol = M.shape
    buffers = np.empty((2, nrow), dtype=M.dtype)

    if csr_matvec is None:
        def product(x, y):
            y[:] = M @ x
            return y
    else:
        def product(x, y):
            y.fill(0)
            csr_matvec(nrow, ncol, M.indptr, M.indices, M.data, x, y)
            return y

    snap_list = []
    snap_idx = 0
    for step in range(n_steps + 1):  # the last pass only records x_n
        t = step * dt
        times[step] = t
        while snap_idx < len(snap_times) and snap_times[snap_idx] <= t + 1e-12:
            snap_list.append((t, as_cells(x)))
            snap_idx += 1
        y = product(x, buffers[step % 2])
        record(step, x, y)
        state, x = x, y[start:]

    notes = ()
    if sys.interval == HALF_LINE:
        notes = (f"half-line run truncated to [0, {float(L):g}]; the absorbing "
                 "closure adds artificial dissipation",)
    # an overflowed run (max_violation = inf) yields inf and nan powers here
    with np.errstate(over="ignore", invalid="ignore"):
        bpow = _forms(boundary_form(sys.Q), closure.traces(ends))
    # an energy that overflowed bounds no step's rise
    violation = (float(max(0.0, np.max(np.diff(energies))))
                 if np.isfinite(energies).all() else np.inf)
    return EnergyTrace(
        times=times,
        energy=energies,
        boundary_power=bpow,
        interior_power=ipow,
        max_violation=violation,
        notes=notes,
        snapshots=tuple(snap_list),
        cell_centers=centers,
        final_state=as_cells(state),
    )
