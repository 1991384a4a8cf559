"""First-order energy-monitoring solver, evidence independent of the checkers.

simulate evolves first-order (N = 1) systems with an upwind finite-volume
method in characteristic variables and records the discrete energy
<x, H x>, the interior power and the boundary power
model.boundary_form(sys.Q) on the ghost traces.  The scheme and its
ghost-trace boundary closure are linear in the state, so
_semidiscrete_operator assembles them once as a sparse matrix A_h from
their d x d blocks (_block_csr), and a classical Runge-Kutta step with it
is one fixed sparse matrix R (_rk4_matrix).  Stacked under the record rows
Hb, and P0b Hb when P0 != 0, R makes each step one product that also
records the state it starts from, made by the CSR kernel into two reused
buffers.  A run is assembled and stepped in float64 exactly when its
blocks and its start state are real, else in complex128.  scipy.sparse
loads at the first simulate call, not at import.

The upwind scheme only ever adds numerical dissipation, so it can confirm
an energy inequality but never fake energy growth.  For the assembled
operator this is checked, not assumed: tests/test_simulation.py asserts
lambda_max(Herm(h Hb A_h)) <= 0 on dissipative systems and > 0 on the
antidamped control, and the same of R* W R - W with W = h Hb for the
fully discrete step, which RK4 does not guarantee.  energy_contradiction
says when a run contradicts analyze; the other evidence is phwell.oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import BoundaryClosureSingular, CFLViolation, PhwellError, ShapeError
from .model import HALF_LINE, UNIT_INTERVAL, PortHamiltonianSystem, boundary_form
from .model import is_integer, is_real
from .verdict import CONTRACTION

# simulate reads _forms.  The other names are bound here only because the
# benchmark's tracer (perfbench/tracer.py) wraps them as simulator.<name>; it
# counts kernel_energy_form calls by this name (none happen).
from .interval import kernel_energy_form
from .oracle import (SmoothFunction, _forms, _gauss_panels, _rayleigh_split,
                     boundary_form_value, dissipativity_oracle)

__all__ = ["MAX_STEPS", "SIMULATE_RISE_ALLOWANCE", "EnergyTrace", "SmoothFunction",
           "_gauss_panels", "_rayleigh_split", "boundary_form_value",
           "dissipativity_oracle", "energy_contradiction", "kernel_energy_form",
           "simulate", "smooth_bump"]

# simulate's step limit.  Its per-step records take 24 + 32 d bytes a step
# (56 MB at d = 1); every run of the tests and the benchmark takes fewer
# than 1,000 steps.
MAX_STEPS = 1_000_000
# largest one-step energy rise, relative to E(0), that a simulated
# contraction may show (criterion 9's allowance); beyond it, a bug
SIMULATE_RISE_ALLOWANCE = 1e-3


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
    if not (is_integer(d) and d >= 1):
        raise PhwellError(f"bump dimension d must be an integer >= 1, got {d!r}")
    if not (is_integer(component) and 0 <= component < d):
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
                "constrain outgoing characteristics inconsistently")
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
    if not (is_integer(nx) and nx >= 16):
        raise ShapeError(f"nx must be an integer >= 16, got {nx!r}")
    if not (is_real(cfl) and 0.0 < cfl <= 0.9):
        raise CFLViolation(f"cfl must lie in (0, 0.9], got {cfl!r}")
    if not (is_real(t_final) and 0.0 < t_final < np.inf):
        raise PhwellError(f"t_final must be a finite number > 0, got {t_final!r}")
    if not (is_real(L) and 0.0 < L < np.inf):
        raise PhwellError(f"L must be a finite number > 0, got {L!r}")
    if not np.iterable(snapshot_times):
        raise PhwellError(f"snapshot_times must be an iterable, got {snapshot_times!r}")
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


def energy_contradiction(trace: EnergyTrace, verdict) -> str | None:
    """Why trace contradicts analyze's verdict, or None if it does not.

    A run of a contraction may rise by SIMULATE_RISE_ALLOWANCE E(0) in one
    step, criterion 9's allowance; a larger rise is a bug.
    """
    allowed = SIMULATE_RISE_ALLOWANCE * trace.energy[0]
    if verdict.consensus == CONTRACTION and trace.max_violation > allowed:
        return (f"analyze says {CONTRACTION}, but the energy rose by "
                f"{trace.max_violation:.3e} in one step, above "
                f"{SIMULATE_RISE_ALLOWANCE:g} E(0) = {allowed:.3e}")
    return None
