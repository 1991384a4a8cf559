import dataclasses
import types
from pathlib import Path
from sys import modules

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import block_diag
from scipy.sparse import _sparsetools

from phwell import (
    HamiltonianDensity,
    simulate,
    simulator,
    smooth_bump,
    validate_system,
)
from phwell.corpus import (
    CORPUS,
    build_path_graph,
    build_periodic_transport,
    build_transport,
    build_wave,
)
from phwell.errors import BoundaryClosureSingular, CFLViolation, PhwellError, ShapeError
from phwell.model import (
    HALF_LINE,
    UNIT_INTERVAL,
    boundary_form,
    port_variables,
)
from phwell.simulator import _block_csr, _rk4_matrix, _semidiscrete_operator

ROOT = Path(__file__).resolve().parents[1]


def _operator(sys, nx, L=10.0):
    """simulate's A_h and Hb for a real start state, with the cell width and closure."""
    h = (1.0 if sys.interval == UNIT_INTERVAL else L) / nx
    closure = simulator._BoundaryClosure(sys)
    A, Hb, _ = _semidiscrete_operator(sys, closure, h, nx, real_start=True)
    return A, Hb, h, closure


def test_transport_exact_solution():
    sys = build_transport()
    x0 = smooth_bump(0.3, 0.25, 1)
    tr = simulate(sys, x0, t_final=0.5, nx=400, cfl=0.9)
    exact = np.array([x0(z - 0.5)[0] for z in tr.cell_centers])
    err = np.linalg.norm(tr.final_state[0] - exact) / np.linalg.norm(exact)
    assert err <= 0.05
    assert tr.max_violation == 0.0


def test_transport_energy_decays_after_exit():
    sys = build_transport()
    tr = simulate(sys, smooth_bump(0.3, 0.2, 1), t_final=1.5, nx=400, cfl=0.9)
    assert tr.energy[-1] <= 1e-3 * tr.energy[0]
    # near-constant while the bump is interior (upwind smearing only)
    i = np.searchsorted(tr.times, 0.3)
    assert tr.energy[i] >= 0.9 * tr.energy[0]


def test_periodic_transport_conservation_refinement():
    sys = build_periodic_transport()
    drifts = []
    for nx in (100, 200, 400):
        tr = simulate(sys, smooth_bump(0.5, 0.3, 1), t_final=1.0, nx=nx, cfl=0.9)
        drifts.append(abs(tr.energy[-1] - tr.energy[0]) / tr.energy[0])
        assert tr.max_violation <= 1e-12 * tr.energy[0]
    assert drifts[0] / drifts[1] >= 1.5
    assert drifts[1] / drifts[2] >= 1.5


def test_damped_wave_monotone_energy():
    sys = build_wave("unit_interval", 0.7)

    def x0(z):
        r = (z - 0.5) / 0.25
        amp = np.exp(1 - 1 / (1 - r * r)) if abs(r) < 1 else 0.0
        return np.array([amp, 0.0])

    tr = simulate(sys, x0, t_final=1.0, nx=200, cfl=0.45)
    assert tr.max_violation == 0.0
    assert tr.energy[-1] < tr.energy[0]


@pytest.mark.parametrize("name", ["wave_interval_damped", "wave_halfline_u05"])
def test_boundary_power_is_the_boundary_form_on_the_ghost_traces(name):
    # the end cells of every step's state, through the closure's ghost
    # traces [w_hat(1); w_hat(0)], give the recorded power; it is also the
    # port power 2 Re <f, e> of those traces
    sys = CORPUS[name].system()
    nx, d = 64, sys.dim_d
    x0 = smooth_bump(0.5, 0.4, d)
    tr = simulate(sys, x0, t_final=0.4, nx=nx, cfl=0.45)
    tr = simulate(sys, x0, t_final=0.4, nx=nx, cfl=0.45, snapshot_times=tr.times)
    closure = simulator._BoundaryClosure(sys)
    H = sys.H.at(tr.cell_centers[[0, -1]])
    ends = np.array([np.concatenate([H[0] @ x[:, 0], H[1] @ x[:, -1]])
                     for _, x in tr.snapshots]).T
    phi = closure.traces(ends)
    want = np.real(np.sum(phi.conj() * (boundary_form(sys.Q) @ phi), axis=0))
    scale = np.max(np.abs(tr.boundary_power))
    assert scale > 0.0
    np.testing.assert_allclose(tr.boundary_power, want, rtol=0, atol=1e-12 * scale)
    for j in range(phi.shape[1]):
        f, e = port_variables(phi[:d, j], phi[d:, j], sys.Q)
        port = 2.0 * np.vdot(f, e).real
        assert abs(port - tr.boundary_power[j]) <= 1e-12 * scale


def test_energy_rate_identity_refines():
    sys = build_transport()
    errs = []
    for nx in (100, 200, 400):
        tr = simulate(sys, smooth_bump(0.4, 0.25, 1), t_final=1.0, nx=nx, cfl=0.45)
        dE = np.diff(tr.energy) / np.diff(tr.times)
        power = (tr.boundary_power + tr.interior_power)[:-1]
        errs.append(np.max(np.abs(dE - power)))
    assert errs[1] <= errs[0] / 1.5
    assert errs[2] <= errs[1] / 1.5


def test_interior_power_with_nonsymmetric_p0():
    # complex, non-symmetric P0 and non-identity H: a transposed or
    # conjugated P0, or x in place of w = Hx, changes the sums below
    P0 = np.array([[-1.0 + 0.5j, 2.0 - 1.0j], [-0.3j, -2.0 + 0.2j]])
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    sys = validate_system({
        "field": "complex", "interval": UNIT_INTERVAL, "N": 1, "d": 2,
        "P": [P0, np.array([[0.0, 1.0], [1.0, 0.0]])],
        "H": HamiltonianDensity.constant(H),
        "WB_hat": np.array([[0.7, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
    })
    tr = simulate(sys, smooth_bump(0.5, 0.25, 2), 0.2, nx=64, cfl=0.45,
                  snapshot_times=[0.1])
    h = 1.0 / 64
    t_mid, x_mid = tr.snapshots[0]
    for i, x in ((int(np.argmin(np.abs(tr.times - t_mid))), x_mid),
                 (len(tr.times) - 1, tr.final_state)):
        w = H @ x  # (d, nx): column c is w_c
        expected = 2.0 * h * sum(np.vdot(w[:, c], P0 @ w[:, c]).real
                                 for c in range(64))
        assert expected != 0.0
        assert tr.interior_power[i] == pytest.approx(expected, rel=1e-12)


def test_path_graph_simulation_contracts():
    sys = build_path_graph(8)

    def x0(z):
        out = np.zeros(8)
        r = (z - 0.5) / 0.3
        if abs(r) < 1:
            out[:] = np.exp(1 - 1 / (1 - r * r))
        return out

    tr = simulate(sys, x0, t_final=0.5, nx=100, cfl=0.45)
    assert tr.max_violation <= 1e-12 * tr.energy[0]


def test_halfline_truncated_run_notes():
    sys = build_wave("half_line", 0.5)
    tr = simulate(sys, lambda z: np.array([np.exp(-((z - 3.0) ** 2)), 0.0]),
                  t_final=1.0, nx=200, cfl=0.45, L=10.0)
    assert tr.notes and "truncated" in tr.notes[0]
    assert tr.max_violation <= 1e-12 * tr.energy[0]


def test_snapshots_and_csv(tmp_path):
    sys = build_transport()
    tr = simulate(sys, smooth_bump(0.3, 0.2, 1), t_final=0.4, nx=64, cfl=0.8,
                  snapshot_times=[0.2])
    assert len(tr.snapshots) == 1
    t_snap, state = tr.snapshots[0]
    assert t_snap == pytest.approx(0.2, abs=2e-2)
    assert state.shape == (1, 64)
    out = tmp_path / "trace.csv"
    tr.to_csv(out)
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[1] == 4
    header = out.read_text().splitlines()[0]
    assert header == "t,energy,boundary_power,interior_power"


def test_cfl_and_nx_validation():
    sys = build_transport()
    with pytest.raises(CFLViolation):
        simulate(sys, smooth_bump(0.3, 0.2, 1), 0.1, nx=32, cfl=1.2)
    with pytest.raises(ShapeError):
        simulate(sys, smooth_bump(0.3, 0.2, 1), 0.1, nx=8)


@pytest.mark.parametrize("nx", [100.0, 16.5, True, "32"])
def test_simulate_rejects_a_non_integer_nx(nx):
    with pytest.raises(ShapeError, match="nx must be an integer >= 16"):
        simulate(build_transport(), smooth_bump(0.3, 0.2, 1), 0.1, nx=nx)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("form", ["array", "callable"])
def test_simulate_rejects_a_non_finite_initial_state(bad, form):
    # a NaN energy would read as no rise at all: max(0.0, nan) is 0.0
    x0 = np.ones((2, 32), dtype=complex)
    x0[1, 5] = bad
    if form == "callable":
        cells = x0
        x0 = lambda z: cells[:, min(int(z * 32), 31)]  # noqa: E731
    with pytest.raises(PhwellError, match="x0 must be finite"):
        simulate(build_wave(UNIT_INTERVAL, 0.7), x0, 0.1, nx=32)


def test_an_overflowed_energy_is_an_unbounded_rise():
    # P0 = 2000 I pumps energy in at rate 4000 E: it overflows to NaN within
    # the run, which max(0.0, nan) used to report as no rise at all
    wave = build_wave(UNIT_INTERVAL, 0.7)
    wave = dataclasses.replace(wave, P=(2000.0 * np.eye(2), wave.P[1]))
    tr = simulate(wave, smooth_bump(0.5, 0.25, 2), t_final=1.0, nx=64)
    assert np.isfinite(tr.energy).sum() == 36 and tr.energy.size == 81
    assert tr.max_violation == np.inf


@pytest.mark.parametrize("amplitude", [np.inf, -np.inf, np.nan, 1j, None, "a", True])
def test_smooth_bump_rejects_a_non_finite_amplitude(amplitude):
    # a call of the bump would drop a complex amplitude's imaginary part
    with pytest.raises(PhwellError, match="amplitude"):
        smooth_bump(0.3, 0.2, 2, amplitude=amplitude)


@pytest.mark.parametrize("L", [0.0, -1.0, np.inf, np.nan, None, "10", True])
def test_simulate_rejects_bad_length(L):
    with pytest.raises(PhwellError, match="L must"):
        simulate(build_wave(HALF_LINE, 0.5), smooth_bump(0.3, 0.2, 2), 0.1,
                 nx=32, L=L)


def test_simulate_refuses_a_run_beyond_the_step_limit(monkeypatch):
    sys = build_wave(UNIT_INTERVAL, 0.7)
    x0 = smooth_bump(0.3, 0.2, 2)
    with pytest.raises(PhwellError, match=r"t_final = 1e\+09 at nx = 16 needs \d+ steps"):
        simulate(sys, x0, 1e9, nx=16)
    steps = len(simulate(sys, x0, 0.2, nx=16).times) - 1
    monkeypatch.setattr(simulator, "MAX_STEPS", steps)
    assert len(simulate(sys, x0, 0.2, nx=16).times) == steps + 1
    monkeypatch.setattr(simulator, "MAX_STEPS", steps - 1)
    with pytest.raises(PhwellError, match=f"needs {steps} steps, more than the limit"):
        simulate(sys, x0, 0.2, nx=16)


@pytest.mark.parametrize("snap", [-1.0, 5.0, np.nan, np.inf, "a", True, 0.05j])
def test_simulate_rejects_snapshots_outside_the_run(snap):
    with pytest.raises(PhwellError, match="snapshot"):
        simulate(build_transport(), smooth_bump(0.3, 0.2, 1), 0.1, nx=32,
                 snapshot_times=[0.05, snap])


@pytest.mark.parametrize("name, value", [
    ("t_final", "1"), ("t_final", None), ("t_final", True), ("t_final", 1j),
    ("t_final", 0.0), ("t_final", np.nan), ("cfl", "0.5"), ("cfl", None),
    ("cfl", True), ("cfl", 0.5j), ("cfl", 0.0), ("cfl", np.nan),
])
def test_simulate_rejects_a_t_final_or_cfl_that_is_no_number(name, value, monkeypatch):
    # refused before the closure, the first work of a run; a bool is no number
    def work(*args):
        raise AssertionError("work before the refusal")

    monkeypatch.setattr(simulator, "_BoundaryClosure", work)
    args = {"t_final": 0.1, "cfl": 0.45, name: value}
    with pytest.raises(CFLViolation if name == "cfl" else PhwellError, match=name):
        simulate(build_transport(), smooth_bump(0.3, 0.2, 1), nx=32, **args)


def test_snapshots_at_both_ends_of_the_run():
    x0 = smooth_bump(0.3, 0.2, 1)
    tr = simulate(build_transport(), x0, 0.1, nx=32, snapshot_times=[0.1, 0.0])
    assert [t for t, _ in tr.snapshots] == [0.0, tr.times[-1]]
    cells = np.array([[x0(z)[0] for z in tr.cell_centers]], dtype=complex)
    np.testing.assert_array_equal(tr.snapshots[0][1], cells)
    np.testing.assert_array_equal(tr.snapshots[-1][1], tr.final_state)


@pytest.mark.parametrize("width", [0.0, -0.1, np.inf, np.nan, "w", None, 0.2j])
def test_smooth_bump_rejects_bad_width(width):
    with pytest.raises(PhwellError, match="width"):
        smooth_bump(0.3, width, 2)


@pytest.mark.parametrize("center", [np.inf, np.nan, "a", None, 0.5 + 0.1j, False])
def test_smooth_bump_rejects_a_center_that_is_not_a_finite_real_number(center):
    with pytest.raises(PhwellError, match="bump center must be a finite real number"):
        smooth_bump(center, 0.2, 2)


@pytest.mark.parametrize("component", [-1, 2, 7, True, 1.0, "0"])
def test_smooth_bump_rejects_bad_component(component):
    # a bool index would fill every component, and 1.0 failed only inside simulate
    with pytest.raises(PhwellError, match="component"):
        smooth_bump(0.3, 0.2, 2, component=component)


@pytest.mark.parametrize("d", [0, -2, 2.5, 2.0, True, "2", None])
def test_smooth_bump_rejects_a_d_that_is_not_a_positive_integer(d):
    # 2.5 and True used to fail only inside simulate, "2" in the comparison
    with pytest.raises(PhwellError, match=r"bump dimension d must be an integer >= 1"):
        smooth_bump(0.5, 0.25, d)


@pytest.mark.parametrize("center, width", [(0.5, 0.25), (-0.3, 0.7), (3.0, 2.0)])
def test_bump_on_cells_equals_its_calls_per_cell(center, width):
    # r = 0, |r| within 1e-12 of 1 on both sides and both ends, and a dense
    # grid past the support; every component and amplitude sign
    near = np.array([1e-12, 5e-13, 1e-13, 0.0, -1e-13, -5e-13, -1e-12])
    z = np.concatenate([
        np.linspace(center - 1.5 * width, center + 1.5 * width, 1201), [center],
        center + width * (1.0 + near), center - width * (1.0 + near),
        np.nextafter(center + width, [-np.inf, np.inf]),
        np.nextafter(center - width, [-np.inf, np.inf])])
    for component in range(3):
        for amplitude in (1.0, -0.7, 2.5e3):
            bump = smooth_bump(center, width, 3, component=component, amplitude=amplitude)
            per_cell = np.array([bump(v) for v in z.tolist()], dtype=complex).T
            got = bump.on_cells(z)
            assert _same_bits(got, per_cell)
            assert got[component].real.max() > 0.0 or amplitude < 0.0


@pytest.mark.parametrize("build, nx", [
    (CORPUS["wave_interval_damped"].system, 48),
    (CORPUS["wave_halfline_u05"].system, 64),
    (CORPUS["path_graph_d8"].system, 40),
], ids=["interval", "half_line", "path_graph_d8"])
def test_a_bump_start_equals_its_per_cell_calls(build, nx):
    # simulate samples a smooth_bump on all cells at once; a plain callable
    # around the same bump takes the per-cell path, with the same trace
    sys = build()
    bump = smooth_bump(0.4 if sys.interval == UNIT_INTERVAL else 3.0, 0.3, sys.dim_d,
                       amplitude=1.3)
    kwargs = {"t_final": 0.1, "nx": nx, "cfl": 0.45, "snapshot_times": [0.0, 0.05]}
    _assert_same_trace(simulate(sys, bump, **kwargs),
                       simulate(sys, lambda z: bump(z), **kwargs))


def test_a_bump_of_another_dimension_is_refused_per_cell():
    sys = CORPUS["wave_interval_damped"].system()
    with pytest.raises(ShapeError, match="must give 2 numbers, got 3"):
        simulate(sys, smooth_bump(0.5, 0.25, 3), 0.1, nx=32)


def test_smooth_bump_takes_a_numpy_integer_component():
    np.testing.assert_array_equal(smooth_bump(0.5, 0.2, 2, component=np.int64(1))(0.5),
                                  [0.0, 1.0])


def test_singular_closure_detected():
    sys = build_transport(inflow_zero=False)
    with pytest.raises(BoundaryClosureSingular):
        simulate(sys, smooth_bump(0.3, 0.2, 1), 0.1, nx=32)


def _one_condition_wave():
    return validate_system({
        "field": "real", "interval": UNIT_INTERVAL, "N": 1, "d": 2,
        "P": [np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])],
        "H": HamiltonianDensity.constant(np.eye(2)),
        "WB_hat": np.array([[0.7, 1.0, 0.0, 0.0]]),
    })


@pytest.mark.parametrize("build, t_final, error, match", [
    (lambda: build_wave(UNIT_INTERVAL, 0.7), 1e9, PhwellError, "more than the limit"),
    (_one_condition_wave, 0.1, BoundaryClosureSingular, "needs k = 2 conditions"),
    (lambda: build_transport(inflow_zero=False), 0.1, BoundaryClosureSingular,
     "ghost-state system is singular"),
], ids=["step_limit", "k_not_d", "singular_ghost_system"])
def test_a_refused_run_does_no_per_cell_work(build, t_final, error, match, monkeypatch):
    # the step limit and the closure are decided before x0 is sampled and
    # before any block is placed
    def per_cell(*args):
        raise AssertionError("per-cell work before the refusal")

    monkeypatch.setattr(simulator, "_block_csr", per_cell)
    monkeypatch.setattr(simulator, "_initial_state", per_cell)
    sys = build()
    with pytest.raises(error, match=match):
        simulate(sys, smooth_bump(0.3, 0.2, sys.dim_d), t_final, nx=400_000)


def test_initial_state_array_forms():
    sys = build_transport()
    base = simulate(sys, smooth_bump(0.3, 0.2, 1), 0.1, nx=32, cfl=0.5)
    arr = np.array([smooth_bump(0.3, 0.2, 1)(z) for z in base.cell_centers])
    tr2 = simulate(sys, arr.T, 0.1, nx=32, cfl=0.5)
    np.testing.assert_allclose(tr2.energy, base.energy, rtol=1e-12)
    with pytest.raises(ShapeError):
        simulate(sys, arr, 0.1, nx=32, cfl=0.5)


@pytest.mark.parametrize("value, got", [
    (lambda z: np.zeros(3), "got 3"),
    (lambda z: None, "got 1"),
    (lambda z: "ab", "got str 'ab'"),
    (lambda z: [1.0, [2.0, 3.0]], "got list"),
], ids=["three_numbers", "none", "string", "ragged"])
def test_a_callable_start_state_must_give_d_numbers_per_cell(value, got):
    sys = CORPUS["wave_interval_damped"].system()
    with pytest.raises(ShapeError, match=r"x0 at cell centre z = 0\.015625 must give "
                                         rf"2 numbers, {got}"):
        simulate(sys, value, 0.1, nx=32)


def test_restart_from_final_state():
    # nx == d makes a (d, nx) state square, so no layout can be guessed
    sys = build_path_graph(16)
    tr = simulate(sys, smooth_bump(0.4, 0.25, 16), 0.05, nx=16, cfl=0.45)
    again = simulate(sys, tr.final_state, 0.05, nx=16, cfl=0.45)
    assert again.energy[0] == tr.energy[-1]


# Values recorded with the stage-by-stage right-hand side that preceded the
# assembled operator: (energy[-1], max boundary power, min boundary power,
# max_violation, sum |final_state|).  Runs use cfl = 0.45 and a snapshot at
# t_final / 2.
SEED_RUNS = {
    "wave_interval_damped": (
        lambda: build_wave(UNIT_INTERVAL, 0.7), 200, 0.5, (0.5, 0.25),
        (0.1684612555615293, 0.0, -0.44442823451428837, 0.0, 60.42723654610538)),
    "wave_piecewise_damped": (
        lambda: build_wave(UNIT_INTERVAL, 0.7, rho=([0.5], [1.0, 4.0])),
        200, 0.5, (0.5, 0.25),
        (0.11638686164120675, 0.0, -0.00013012161511740915, 0.0, 91.906758562916)),
    "path_graph_d8": (
        CORPUS["path_graph_d8"].system, 100, 0.25, (0.4, 0.25),
        (0.21336133461920612, 0.0, -0.3005213222207426, 0.0, 27.31172642347518)),
    "transport_periodic": (
        CORPUS["transport_periodic"].system, 200, 0.5, (0.5, 0.3),
        (0.27421495734837104, 0.0, 0.0, 0.0, 72.41401935215526)),
    "wave_halfline_u05": (
        CORPUS["wave_halfline_u05"].system, 400, 1.5, (3.0, 2.0),
        (1.9111780156681606, 0.0, -0.032107179700667995, 0.0, 186.24487067958478)),
}


@pytest.mark.parametrize("name", sorted(SEED_RUNS))
def test_simulation_matches_recorded_seed_runs(name):
    build, nx, t_final, (center, width), expected = SEED_RUNS[name]
    sys = build()
    tr = simulate(sys, smooth_bump(center, width, sys.dim_d), t_final=t_final,
                  nx=nx, cfl=0.45, snapshot_times=[t_final / 2])
    got = (tr.energy[-1], np.max(tr.boundary_power), np.min(tr.boundary_power),
           tr.max_violation, np.sum(np.abs(tr.final_state)))
    # relative agreement; values recorded as exactly 0 get 1e-12 * E0
    floor = 1e-12 * tr.energy[0]
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, rel=1e-12, abs=floor)
    assert tr.final_state.shape == (sys.dim_d, nx)
    assert len(tr.snapshots) == 1
    assert tr.snapshots[0][1].shape == (sys.dim_d, nx)


def _grid_wave():
    z = np.linspace(0.0, 1.0, 7)[:, None, None]
    H = np.diag([1.0, 2.0]) + z * np.array([[1.0, 0.3], [0.3, 0.5]])
    return validate_system({
        "field": "real", "interval": UNIT_INTERVAL, "N": 1, "d": 2,
        "P": [np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])],
        "H": HamiltonianDensity.grid(H),
        "WB_hat": np.array([[0.7, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
    })


@pytest.mark.parametrize("build", [
    lambda: build_wave(UNIT_INTERVAL, 0.7, rho=([0.5], [1.0, 4.0])),
    lambda: build_wave(HALF_LINE, 0.5, rho=([0.4, 3.0], [1.0, 4.0, 2.0])),
    _grid_wave,
], ids=["piecewise", "piecewise_half_line", "grid"])
def test_cell_densities_are_the_point_values(build):
    sys = build()
    _, Hb, h, _ = _operator(sys, nx=200)
    centers = (np.arange(200) + 0.5) * h
    want = block_diag(*[sys.H.at(float(z)) for z in centers])
    np.testing.assert_array_equal(Hb.toarray(), want)


def _complex_p0_wave():
    # P0 != 0 and a complex P1: the blocks' entries are complex throughout
    return validate_system({
        "field": "complex", "interval": UNIT_INTERVAL, "N": 1, "d": 2,
        "P": [np.array([[-1.0 + 0.5j, 2.0 - 1.0j], [-0.3j, -2.0 + 0.2j]]),
              np.array([[0.0, 1.0 - 0.5j], [1.0 + 0.5j, 0.0]])],
        "H": HamiltonianDensity.constant(np.array([[2.0, 0.5], [0.5, 1.0]])),
        "WB_hat": np.array([[0.7, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
    })


def _kron_operator(sys, nx, L=10.0):
    """A_h and Hb from sums of Kronecker products, the assembly _block_csr replaced."""
    d = sys.dim_d
    h = (1.0 if sys.interval == UNIT_INTERVAL else L) / nx
    P1 = np.asarray(sys.P[1], dtype=complex)
    P0 = np.asarray(sys.P[0], dtype=complex)
    closure = simulator._BoundaryClosure(sys)
    Sp, Sn = closure.S[closure.pos], closure.S[closure.neg]
    Bp, Bn = Sp.conj().T @ Sp, Sn.conj().T @ Sn
    ends = np.zeros((2 * d, 2 * d), dtype=complex)
    ends[:d, :d] = P1 @ Bn / h + P0
    ends[d:, d:] = P0 - P1 @ Bp / h
    ends[:d] -= P1 @ closure.G[d:] / h  # G's rows are [w_hat(1); w_hat(0)]
    ends[d:] += P1 @ closure.G[:d] / h
    idx = np.concatenate([np.arange(d), (nx - 1) * d + np.arange(d)])
    rows, cols = np.meshgrid(idx, idx, indexing="ij")
    interior = sparse.coo_array(
        (np.ones(nx - 2), (np.arange(1, nx - 1),) * 2), shape=(nx, nx))
    A_w = (sparse.kron(sparse.eye_array(nx, k=-1), sparse.csr_array(-P1 @ Bn / h))
           + sparse.kron(interior, sparse.csr_array(P1 @ (Bn - Bp) / h + P0))
           + sparse.kron(sparse.eye_array(nx, k=1), sparse.csr_array(P1 @ Bp / h))
           + sparse.coo_array((ends.ravel(), (rows.ravel(), cols.ravel())),
                              shape=(d * nx, d * nx)))
    if sys.H.kind == "constant":
        Hb = sparse.kron(sparse.eye_array(nx), sparse.csr_array(sys.H.matrices[0]),
                         format="csr")
    else:
        Hc = sys.H.at((np.arange(nx) + 0.5) * h)
        Hb = sparse.csr_array(block_diag(*Hc))
    A_h = (A_w.tocsr() @ Hb).tocsr()
    A_h.eliminate_zeros()
    return A_h, Hb


@pytest.mark.parametrize("build", [
    CORPUS["wave_interval_damped"].system,
    CORPUS["path_graph_d8"].system,
    lambda: build_wave(UNIT_INTERVAL, 0.7, rho=([0.5], [1.0, 4.0])),
    _grid_wave,
    CORPUS["wave_halfline_u05"].system,
    _complex_p0_wave,
], ids=["constant", "path_graph_d8", "piecewise", "grid", "half_line", "complex_p0"])
def test_block_assembly_matches_the_kronecker_sums(build):
    sys = build()
    got = _operator(sys, nx=40)[:2]
    for mine, ref in zip(got, _kron_operator(sys, nx=40)):
        mine, ref = mine.copy(), ref.copy()
        mine.sort_indices()
        ref.sort_indices()
        np.testing.assert_array_equal(mine.indptr, ref.indptr)
        np.testing.assert_array_equal(mine.indices, ref.indices)
        np.testing.assert_array_equal(mine.data, ref.data)


def test_real_systems_assemble_in_float64(monkeypatch):
    # the five benchmark systems have real blocks; a complex P1 and P0
    # keep the assembly complex
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    for name, (build, *_) in workloads._sim_cases().items():
        A, Hb, _, _ = _operator(build(), nx=40)
        assert (A.dtype, Hb.dtype) == (np.float64, np.float64), name
    A, Hb, _, _ = _operator(_complex_p0_wave(), nx=40)
    assert (A.dtype, Hb.dtype) == (np.complex128, np.complex128)


def _energy_certificate(name):
    """lambda_max(Herm(h Hb A_h)) and ||h Hb A_h|| of the stepping operator."""
    A, Hb, h, _ = _operator(CORPUS[name].system(), nx=100)
    M = (h * (Hb @ A)).toarray()
    lam = np.linalg.eigvalsh(0.5 * (M + M.conj().T))[-1]
    return lam, np.linalg.norm(M, 2)


DISSIPATIVE = ["wave_interval_damped", "transport_periodic", "transport_inflow",
               "path_graph_d8", "wave_halfline_u05"]


@pytest.mark.parametrize("name", DISSIPATIVE)
def test_semidiscrete_operator_is_dissipative(name):
    lam, norm = _energy_certificate(name)
    assert lam <= 1e-12 * norm


def test_semidiscrete_operator_certificate_flags_growth():
    lam, _ = _energy_certificate("wave_interval_antidamped")
    assert lam > 0.0


def _step_certificate(name, cfl):
    """lambda_max(Herm(R* W R - W)) and ||W|| for the RK4 step R, W = h Hb.

    <= 0 means one step never raises the discrete energy x* W x; RK4 is
    not strongly stable in one step for every semi-negative operator, so
    this is checked, not implied by the semi-discrete certificate.
    """
    sys = CORPUS[name].system()
    A, Hb, h, closure = _operator(sys, nx=100)
    dt = cfl * h / (np.max(np.abs(closure.delta)) * sys.h_max_eig)
    R = _rk4_matrix(A, dt).toarray()
    W = h * Hb.toarray()
    C = R.conj().T @ W @ R - W
    lam = np.linalg.eigvalsh(0.5 * (C + C.conj().T))[-1]
    return lam, np.linalg.norm(W, 2)


@pytest.mark.parametrize("cfl", [0.45, 0.8, 0.9])
@pytest.mark.parametrize("name", DISSIPATIVE)
def test_rk4_step_is_a_contraction(name, cfl):
    lam, norm = _step_certificate(name, cfl)
    assert lam <= 1e-12 * norm


@pytest.mark.parametrize("cfl", [0.45, 0.8, 0.9])
def test_rk4_step_certificate_flags_growth(cfl):
    lam, _ = _step_certificate("wave_interval_antidamped", cfl)
    assert lam > 0.0


@pytest.mark.parametrize("name, nx, t_final, center", [
    ("wave_interval_damped", 200, 0.5, 0.5),
    ("path_graph_d8", 100, 0.25, 0.4),
    ("wave_halfline_u05", 200, 0.5, 3.0),
])
def test_one_matrix_step_matches_four_stage_rk4(name, nx, t_final, center):
    sys = CORPUS[name].system()
    x0 = smooth_bump(center, 0.25, sys.dim_d)
    tr = simulate(sys, x0, t_final=t_final, nx=nx, cfl=0.45)
    # reference: the four-stage loop on A_h, with the run's own step size
    A, Hb, h, _ = _operator(sys, nx)
    dt = tr.times[1]
    x = np.stack([x0(z) for z in tr.cell_centers]).astype(complex).ravel()
    energies = [h * np.vdot(x, Hb @ x).real]
    for _ in range(tr.times.size - 1):
        k1 = A @ x
        k2 = A @ (x + 0.5 * dt * k1)
        k3 = A @ (x + 0.5 * dt * k2)
        k4 = A @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        energies.append(h * np.vdot(x, Hb @ x).real)
    final = x.reshape(nx, sys.dim_d).T
    assert (np.linalg.norm(tr.final_state - final)
            <= 1e-12 * np.linalg.norm(final))
    np.testing.assert_allclose(tr.energy, energies, rtol=1e-12,
                               atol=1e-12 * energies[0])


def test_complex_start_state_splits_into_two_real_runs():
    # a real system and real start states step in float64; a complex start
    # state keeps complex arithmetic, and by linearity its run is the two
    # real runs of its parts
    sys = CORPUS["wave_interval_damped"].system()
    nx = 100
    z = (np.arange(nx) + 0.5) / nx
    a = np.stack([np.exp(-80 * (z - 0.4) ** 2), np.sin(np.pi * z)])
    b = np.stack([np.cos(3 * z), np.exp(-60 * (z - 0.6) ** 2)])
    runs = [simulate(sys, x0, t_final=0.3, nx=nx, cfl=0.45, snapshot_times=[0.1])
            for x0 in (a, b, a + 1j * b)]
    for tr in runs:
        assert tr.final_state.dtype == np.complex128
        assert tr.snapshots[0][1].dtype == np.complex128
    ra, rb, rc = runs
    expected = ra.final_state + 1j * rb.final_state
    assert (np.linalg.norm(rc.final_state - expected)
            <= 1e-14 * np.linalg.norm(expected))
    np.testing.assert_allclose(rc.energy, ra.energy + rb.energy, rtol=1e-12)


def test_one_sparse_product_per_step(count_matvecs):
    sys = CORPUS["wave_interval_damped"].system()
    count_matvecs.clear()
    tr = simulate(sys, smooth_bump(0.5, 0.25, 2), t_final=0.25, nx=200, cfl=0.45)
    n_steps = tr.times.size - 1
    assert n_steps > 100
    assert len(count_matvecs) <= n_steps + 1


def test_zero_p0_steps_without_interior_power_rows(count_matvecs):
    # P0 = 0: each product has the rows of Hb and R only, and the interior
    # power is exactly 0 rather than a dot product with zeros
    sys = CORPUS["wave_interval_damped"].system()
    assert not sys.P[0].any()
    nx = 64
    count_matvecs.clear()
    tr = simulate(sys, smooth_bump(0.5, 0.25, 2), t_final=0.1, nx=nx, cfl=0.45)
    assert count_matvecs == [2 * sys.dim_d * nx] * tr.times.size
    assert all(p == 0.0 and not np.signbit(p) for p in tr.interior_power)


def test_nonzero_p0_keeps_its_interior_power_rows(count_matvecs):
    sys = _complex_p0_wave()
    nx = 64
    count_matvecs.clear()
    tr = simulate(sys, smooth_bump(0.5, 0.25, 2), t_final=0.1, nx=nx, cfl=0.45)
    assert count_matvecs == [3 * sys.dim_d * nx] * tr.times.size
    assert np.all(tr.interior_power != 0.0)


def _run_capturing_the_step_matrix(sys, x0, **kwargs):
    """simulate's trace, its step matrix M and start vector, from the first kernel call."""
    seen = []
    matvec = _sparsetools.csr_matvec

    def capture(nrow, ncol, indptr, indices, data, x, y):
        if not seen:
            seen.append((sparse.csr_array((data.copy(), indices.copy(), indptr.copy()),
                                          shape=(nrow, ncol)), x.copy()))
        return matvec(nrow, ncol, indptr, indices, data, x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_sparsetools, "csr_matvec", capture)
        tr = simulate(sys, x0, **kwargs)
    return (tr, *seen[0])


def _public_product_loop(M, x, n_steps):
    """States x_0 .. x_n and products y_i = M @ x_i of the reference loop."""
    start = M.shape[0] - M.shape[1]
    xs, ys = [x], []
    for _ in range(n_steps + 1):
        ys.append(M @ xs[-1])
        xs.append(ys[-1][start:])
    return xs[:-1], ys


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _wave_complex_start():
    z = (np.arange(48) + 0.5) / 48
    return np.stack([np.exp(-80 * (z - 0.4) ** 2), np.sin(np.pi * z)]) + 1j * np.stack(
        [np.cos(3 * z), np.exp(-60 * (z - 0.6) ** 2)])


@pytest.mark.parametrize("build, x0", [
    (CORPUS["wave_interval_damped"].system, smooth_bump(0.5, 0.25, 2)),
    (_complex_p0_wave, smooth_bump(0.5, 0.25, 2)),
    (CORPUS["wave_interval_damped"].system, _wave_complex_start()),
], ids=["real", "complex_p0", "complex_start"])
def test_the_kernel_steps_equal_public_products(build, x0):
    # simulate calls the CSR kernel into reused buffers; a loop of M @ x
    # with the same M gives every energy, power and state bit for bit
    sys = build()
    nx, d = 48, sys.dim_d
    tr, M, x = _run_capturing_the_step_matrix(sys, x0, t_final=0.2, nx=nx, cfl=0.45)
    n_steps = tr.times.size - 1
    xs, ys = _public_product_loop(M, x, n_steps)
    h, dn = 1.0 / nx, d * nx
    energy = [h * np.vdot(x, y[:dn]).real for x, y in zip(xs, ys)]
    ipow = [2.0 * h * np.vdot(y[:dn], y[dn:2 * dn]).real if M.shape[0] == 3 * dn else 0.0
            for y in ys]
    assert _same_bits(tr.energy, energy)
    assert _same_bits(tr.interior_power, ipow)
    assert _same_bits(tr.final_state, xs[-1].reshape(nx, d).T.astype(complex))


@pytest.mark.parametrize("hidden", [None, types.ModuleType("scipy.sparse._sparsetools")],
                         ids=["no kernel module", "no kernel name"])
@pytest.mark.parametrize("build, x0", [
    (CORPUS["wave_interval_damped"].system, smooth_bump(0.5, 0.25, 2)),
    (_complex_p0_wave, smooth_bump(0.5, 0.25, 2)),
    (CORPUS["wave_interval_damped"].system, _wave_complex_start()),
], ids=["real", "complex_p0", "complex_start"])
def test_a_scipy_without_the_kernel_name_steps_with_public_products(build, x0, hidden,
                                                                    monkeypatch):
    # a None entry in sys.modules fails the import of the kernel's module,
    # an empty module fails the import of its name; either way simulate
    # steps with M @ x, whose scipy code keeps its own module binding, and
    # every field of the trace equals the kernel path's bit for bit
    sys = build()
    kwargs = {"t_final": 0.2, "nx": 48, "cfl": 0.45, "snapshot_times": [0.0, 0.1]}
    want = simulate(sys, x0, **kwargs)
    products = []
    matmul = sparse.csr_array.__matmul__

    def counting(self, other):
        if isinstance(other, np.ndarray):
            products.append(1)
        return matmul(self, other)

    monkeypatch.setitem(modules, "scipy.sparse._sparsetools", hidden)
    monkeypatch.setattr(sparse.csr_array, "__matmul__", counting)
    got = simulate(sys, x0, **kwargs)
    assert len(products) == got.times.size  # one product per step and the last record
    _assert_same_trace(want, got)


def test_a_complex_start_steps_a_real_operator_in_its_index_order(monkeypatch):
    # a real system with a complex start state is assembled from complex
    # blocks, never as a real matrix made complex afterwards: the step
    # matrix, and so every sum of the kernel, equals that of the assembly
    # with every block cast to complex
    sys = CORPUS["wave_interval_damped"].system()
    kwargs = {"t_final": 0.2, "nx": 48, "cfl": 0.45, "snapshot_times": [0.1]}
    tr, M, _ = _run_capturing_the_step_matrix(sys, _wave_complex_start(), **kwargs)
    place = simulator._block_csr

    def complex_blocks(blocks, d, nx):
        return place([(B.astype(complex), r, c) for B, r, c in blocks], d, nx)

    monkeypatch.setattr(simulator, "_block_csr", complex_blocks)
    ref, M_ref, _ = _run_capturing_the_step_matrix(sys, _wave_complex_start(), **kwargs)
    assert (M.dtype, M_ref.dtype) == (np.complex128, np.complex128)
    np.testing.assert_array_equal(M.indptr, M_ref.indptr)
    np.testing.assert_array_equal(M.indices, M_ref.indices)
    np.testing.assert_array_equal(M.data, M_ref.data)
    # the assembly order is not sorted, so an upcast that sorts fails above
    assert not M_ref.has_sorted_indices
    _assert_same_trace(tr, ref)


def _assert_same_trace(want, got):
    """Every field of two EnergyTraces equal bit for bit."""
    for field in dataclasses.fields(want):
        a, b = getattr(want, field.name), getattr(got, field.name)
        if field.name == "snapshots":
            assert [t for t, _ in a] == [t for t, _ in b]
            assert all(_same_bits(x, y) for (_, x), (_, y) in zip(a, b))
        elif field.name == "notes":
            assert a == b
        else:
            assert _same_bits(a, b), field.name


@pytest.mark.parametrize("build", [CORPUS["wave_interval_damped"].system, _complex_p0_wave],
                         ids=["real", "complex_p0"])
def test_snapshots_on_consecutive_steps_keep_their_own_states(build):
    # the step buffers alternate; a snapshot or final_state that aliased one
    # would show a later step's state
    sys = build()
    nx, x0 = 32, smooth_bump(0.5, 0.25, 2)
    times = simulate(sys, x0, t_final=0.2, nx=nx, cfl=0.45).times
    steps = [1, 2, 3, times.size - 3, times.size - 2, times.size - 1]
    tr, M, x = _run_capturing_the_step_matrix(sys, x0, t_final=0.2, nx=nx, cfl=0.45,
                                              snapshot_times=times[steps])
    xs, _ = _public_product_loop(M, x, times.size - 1)
    assert [t for t, _ in tr.snapshots] == list(times[steps])
    for k, (_, state) in zip(steps, tr.snapshots):
        assert _same_bits(state, xs[k].reshape(nx, 2).T.astype(complex))
    assert _same_bits(tr.final_state, tr.snapshots[-1][1])


def test_benchmark_step_matrices_have_int32_indices(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    for name, (build, nx, _, center, width) in workloads._sim_cases().items():
        sys = build()
        _, M, _ = _run_capturing_the_step_matrix(
            sys, smooth_bump(center, width, sys.dim_d), t_final=1e-3, nx=nx, cfl=0.45)
        assert (M.indices.dtype, M.indptr.dtype) == (np.int32, np.int32), name


def test_block_csr_takes_scipys_index_dtype(monkeypatch):
    # scipy picks int32 up to 2**31 - 1 and int64 past it; a size past int32
    # is checked on the choice, not allocated
    choose = sparse.get_index_dtype
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return choose(*args, **kwargs)

    monkeypatch.setattr(sparse, "get_index_dtype", spy)
    B = _block_csr([(np.eye(2), np.arange(3), np.arange(3))], 2, 3)
    assert seen == [{"maxval": 6}]
    assert (B.indices.dtype, B.indptr.dtype) == (np.int32, np.int32)
    assert choose(maxval=2**31 - 1) == np.int32
    assert choose(maxval=2**31) == np.int64
