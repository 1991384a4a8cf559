import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from phwell import HamiltonianDensity, analyze, halfline, validate_system
from phwell.corpus import HALFLINE, build_wave, random_system
from scipy.interpolate import CubicSpline

from phwell.errors import GridTooCoarse, PhwellError, ShapeError, SingularP1
from phwell.halfline import (
    HalfLineDecomposition,
    analyze_halfline,
    decompose_P1,
    factorize_boundary,
    solve_resolvent_halfline,
)

P1_WAVE = np.array([[0.0, 1.0], [1.0, 0.0]])


def halfline_system(P1, WB, P0=None, field="real"):
    d = P1.shape[0]
    return validate_system({
        "field": field,
        "interval": "half_line",
        "N": 1,
        "d": d,
        "P": [P0 if P0 is not None else np.zeros((d, d)), P1],
        "H": HamiltonianDensity.constant(np.eye(d)),
        "WB_hat": WB,
    })


def test_decompose_wave_matrix():
    dec = decompose_P1(P1_WAVE)
    assert (dec.n1, dec.n2) == (1, 1)
    np.testing.assert_allclose(dec.Lambda, [1.0], atol=1e-14)
    np.testing.assert_allclose(dec.Theta, [-1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(dec.S), np.full((2, 2), 1 / np.sqrt(2)),
                               atol=1e-14)
    delta = np.diag(np.r_[dec.Lambda, dec.Theta])
    np.testing.assert_allclose(dec.S.conj().T @ delta @ dec.S, P1_WAVE, atol=1e-14)


def test_decompose_negative_definite():
    dec = decompose_P1(-np.eye(3))
    assert (dec.n1, dec.n2) == (0, 3)
    np.testing.assert_allclose(np.abs(dec.S), np.eye(3), atol=1e-14)


def test_decompose_diagonal_permutation():
    dec = decompose_P1(np.diag([2.0, -3.0, -5.0]))
    assert (dec.n1, dec.n2) == (1, 2)
    np.testing.assert_allclose(dec.Lambda, [2.0])
    np.testing.assert_allclose(dec.Theta, [-3.0, -5.0])
    # rows of S are permutation rows up to sign
    np.testing.assert_allclose(np.sort(np.abs(dec.S), axis=None)[-3:], [1, 1, 1])


def test_decompose_rejects_zero_eigenvalue():
    with pytest.raises(SingularP1):
        decompose_P1(np.diag([1.0, 0.0]))


def test_decompose_a_system_reads_the_split_validation_made(monkeypatch):
    # the analysis's split is validation's eigensolve, bit for bit what a
    # fresh decomposition of the stored P_1 gives
    systems = [build_wave("half_line", 0.5)] + [random_system(seed, klass=HALFLINE)
                                                 for seed in range(20)]
    fresh = [decompose_P1(sys.P[1], sys.tol.tau_rank) for sys in systems]
    beam = random_system(0, N=2)

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("P_1 eigensolved again")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
    for sys, want in zip(systems, fresh):
        got = decompose_P1(sys)
        for name in ("S", "Lambda", "Theta"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert not got.S.flags.writeable
    with pytest.raises(ShapeError, match="needs an N = 1 system, got N = 2"):
        decompose_P1(beam)


def test_factorize_wave_boundary():
    dec = decompose_P1(P1_WAVE)
    for u in (0.5, 2.0, -1.0):
        WB = 0.5 * np.array([[u - 1.0, u + 1.0]])
        fact = factorize_boundary(WB, dec)
        assert fact.reason is None and fact.detail is None
        assert fact.residual < 1e-12
        # Lambda + U* Theta U = 1 - |u|^2 regardless of eigenvector signs
        M = np.diag(dec.Lambda) + fact.U.conj().T @ np.diag(dec.Theta) @ fact.U
        assert M[0, 0] == pytest.approx(1.0 - abs(u) ** 2, abs=1e-12)


def test_factorize_full_clamp_negative_p1():
    dec = decompose_P1(-np.eye(3))
    fact = factorize_boundary(np.eye(3), dec)
    assert fact.reason is None and fact.detail is None
    assert fact.U.shape == (3, 0)


def test_factorize_empty_boundary_positive_p1():
    dec = decompose_P1(np.eye(3))
    fact = factorize_boundary(np.zeros((0, 3)), dec)
    assert fact.reason is None and fact.detail is None
    assert fact.U1.shape == (0, 3) and fact.U.shape == (0, 3)


def test_factorize_wrong_row_count():
    dec = decompose_P1(np.diag([1.0, -1.0, -2.0]))  # n2 = 2
    fact = factorize_boundary(np.array([[1.0, 0.0, 0.0]]), dec)
    assert fact.U is None and fact.residual is None
    assert fact.reason == "wrong_row_count"
    assert fact.U1 is None and fact.smin_u2 is None  # no split was made


def test_factorize_singular_trailing_block():
    dec = decompose_P1(np.diag([1.0, -1.0]))  # S = I, columns (pos, neg)
    fact = factorize_boundary(np.array([[1.0, 0.0]]), dec)  # hits only Lambda block
    assert fact.U is None and fact.residual is None
    assert fact.reason == "singular_trailing_block"
    assert fact.smin_u2 == 0.0
    np.testing.assert_array_equal(np.abs(fact.U1), [[1.0]])


def test_factorize_raw_rank_deficient_rows():
    # k = n2 = 2 but rank 1: the trailing block is singular
    dec = decompose_P1(np.diag([1.0, -1.0, -2.0]))
    fact = factorize_boundary(np.array([[1.0, 1.0, 2.0], [2.0, 2.0, 4.0]]), dec)
    assert fact.U is None and fact.residual is None
    assert fact.reason == "singular_trailing_block"
    # k != n2: the row count decides first
    fact = factorize_boundary(np.array([[0.0, 1.0, 0.0]] * 3), dec)
    assert fact.reason == "wrong_row_count"


def test_halfline_analysis_takes_four_svds(count_svds):
    # one of WB_hat, one per block of the single split WB_hat S^*, and the
    # operator norm of the factorization residual
    sys = build_wave("half_line", 0.5)
    count_svds.clear()
    analyze_halfline(sys)
    assert len(count_svds) == 4


@pytest.mark.parametrize("du", [1e-10, 2e-10, 3e-10])
def test_ta24_uses_the_check_threshold(du):
    # just past |u| = 1, M = Lambda + U* Theta U is about -2 du: TA2.4 must
    # read it with the same threshold as TA.4, else it disagrees with TA2.3
    v = analyze_halfline(build_wave("half_line", 1.0 + du))
    assert not v.discrepancy
    assert v["TA2.4"].holds is v["TA2.3"].holds is False
    assert (v.consensus, v.unitary) == ("not_contraction", False)


@pytest.mark.parametrize("u,contraction,unitary", [
    (0.0, True, False),
    (0.5, True, False),
    (1.0, True, True),
    (-1.0, True, True),
    (0.9j, True, False),
    (1.01, False, False),
    (2.0, False, False),
    (-3.0, False, False),
])
def test_wave_family_verdicts(u, contraction, unitary):
    sys = build_wave("half_line", u)
    v = analyze_halfline(sys)
    assert (v.consensus == "contraction") == contraction
    assert (v.unitary is True) == unitary
    assert not v.discrepancy


def test_wave_u2_kernel_agrees():
    # condition 3 route: kernel vector (3, -1) gives y* P1 y = -6 < 0
    sys = build_wave("half_line", 2.0)
    v = analyze_halfline(sys)
    assert not v["TA.3"].holds and not v["TA.4"].holds
    y = np.array([3.0, -1.0])
    assert y @ P1_WAVE @ y == pytest.approx(-6.0)


def test_full_clamp_negative_p1_contracts():
    v = analyze_halfline(halfline_system(-np.eye(2), np.eye(2)))
    assert v.consensus == "contraction"
    assert v["TA.3"].diagnostics["kernel_dim"] == 0.0


def test_no_conditions_positive_p1_contracts():
    v = analyze_halfline(halfline_system(np.eye(2), np.zeros((0, 2))))
    assert v.consensus == "contraction"


def test_too_many_conditions_dissipative_only():
    # P1 < 0 with full clamp leaves k > min(n1, n2) = 0 for the unitary family
    v = analyze_halfline(halfline_system(-np.eye(2), np.eye(2)))
    assert v["TA2.4"].applicable is False
    assert v.unitary is None  # conservative on a trivial kernel, not certifiable


def test_balanced_transmission_unitary():
    v = analyze_halfline(halfline_system(np.diag([1.0, -1.0]),
                                         np.array([[1.0, 1.0]])))
    assert v.unitary is True
    assert v.consensus == "contraction"


def test_re_p0_gates_contraction():
    sys = halfline_system(-np.eye(2), np.eye(2), P0=0.3 * np.eye(2))
    v = analyze_halfline(sys)
    assert v.consensus == "not_contraction"


def test_rank_deficient_rows_are_reduced():
    WB = np.array([[1.0, 1.0], [2.0, 2.0]])
    v = analyze_halfline(halfline_system(np.diag([1.0, -1.0]), WB))
    assert v.warnings
    assert v.consensus == "contraction"
    assert v.unitary is True


@pytest.mark.parametrize("WB, reason, warned", [
    ([[0.0, 0.0]], "need exactly n2 = 1 independent conditions, got 0", True),
    ([[1.0, 1.0]], "the negative-block columns of WB_hat S^* are singular", False),
], ids=["no independent row", "singular negative block"])
def test_a_failed_factorization_refutes_ta4(WB, reason, warned):
    # WB_hat S^* cannot be split as [U1, U2] with U2 invertible: TA.4 is
    # decided False, and TA.3 agrees, so the verdict carries no discrepancy
    v = analyze(halfline_system(P1_WAVE, np.array(WB)))
    ta4 = v["TA.4"]
    assert ta4.holds is False and ta4.reason == reason
    assert ("smin_u2" in ta4.diagnostics) == (not warned)
    if not warned:
        assert ta4.diagnostics["smin_u2"] <= 1e-12
    assert any("reduced 1 rows to 0" in w for w in v.warnings) == warned
    assert v["TA.3"].holds is False
    assert (v.consensus, v.unitary, v.discrepancy) == ("not_contraction", False, False)


def test_unitary_flip_gives_contraction():
    # conservative system stays contractive after flipping the sign of P1, P0
    for u in (1.0, -1.0):
        sys = build_wave("half_line", u)
        v = analyze_halfline(sys)
        assert v.unitary is True
        flipped = validate_system({
            "field": sys.field, "interval": "half_line", "N": 1, "d": 2,
            "P": [-sys.P[0], -sys.P[1]],
            "H": sys.H, "WB_hat": sys.WB_hat,
        })
        assert analyze_halfline(flipped).consensus == "contraction"


def unit_decomp(n1, n2):
    return HalfLineDecomposition(S=np.eye(n1 + n2, dtype=complex), Lambda=np.ones(n1),
                                 Theta=-np.ones(n2))


def test_resolvent_closed_form():
    decomp = unit_decomp(1, 0)
    L = 30.0
    n = 30000
    t = np.linspace(0, L, n + 1)
    y = np.exp(-t)[None, :]
    x, res = solve_resolvent_halfline(decomp, np.zeros((0, 1)), y, L=L)
    assert res <= 1e-6
    assert np.max(np.abs(x[0] - np.exp(-t) / 2)) <= 1e-5


def test_resolvent_zero_rhs():
    decomp = unit_decomp(1, 1)
    y = np.zeros((2, 2001))
    x, res = solve_resolvent_halfline(decomp, np.zeros((1, 1)), y, L=30.0)
    np.testing.assert_allclose(x, 0.0, atol=1e-14)
    assert res <= 1e-12


def test_resolvent_negative_block_residual():
    decomp = unit_decomp(0, 1)
    L = 30.0
    t = np.linspace(0, L, 6001)
    y = np.exp(-t)[None, :]
    x, res = solve_resolvent_halfline(decomp, np.zeros((1, 0)), y, L=L)
    assert res <= 1e-6
    assert abs(x[0, 0]) < 1e-14  # x2(0) = -U x1(0) with empty positive block


def test_resolvent_coupling_and_refinement():
    decomp = unit_decomp(1, 1)
    U = np.array([[0.7]])
    L = 30.0
    resids = []
    for n in (1500, 3000, 6000):
        t = np.linspace(0, L, n + 1)
        y1 = (1.0 + 0.5 * t) * np.exp(-t)
        y = np.vstack([y1, np.exp(-t)])
        x, res = solve_resolvent_halfline(decomp, U, y, L=L)
        assert abs(x[1, 0] + 0.7 * x[0, 0]) < 1e-13
        resids.append(res)
    for a, b in zip(resids, resids[1:]):
        assert b < a / 1.8  # at least first order (measured ~ second)


def test_resolvent_rejects_transposed_coupling():
    decomp = unit_decomp(2, 1)
    t = np.linspace(0.0, 30.0, 301)
    y = np.vstack([np.exp(-t)] * 3)
    with pytest.raises(ShapeError):
        solve_resolvent_halfline(decomp, np.array([[0.5], [0.2]]), y, L=30.0)
    x, _ = solve_resolvent_halfline(decomp, np.array([[0.5, 0.2]]), y, L=30.0)
    assert abs(x[2, 0] + 0.5 * x[0, 0] + 0.2 * x[1, 0]) < 1e-13


def _resolvent_by_loops(decomp, U, y, L):
    """Grid-point-by-grid-point form of solve_resolvent_halfline's two blocks."""
    n1, n2 = decomp.n1, decomp.n2
    npts = y.shape[1]
    h = L / (npts - 1)
    t = np.linspace(0.0, L, npts)
    v = np.zeros(y.shape, dtype=complex)
    lam = decomp.Lambda
    for i in range(n1):
        decay = np.exp(-h / lam[i])
        yi = y[i] / lam[i]
        for j in range(npts - 2, -1, -1):
            v[i, j] = decay * v[i, j + 1] + 0.5 * h * (yi[j] + decay * yi[j + 1])
    theta = decomp.Theta
    splines_re = [CubicSpline(t, y[n1 + i].real) for i in range(n2)]
    splines_im = [CubicSpline(t, y[n1 + i].imag) for i in range(n2)]

    def rhs(tau, w):
        ys = np.array([sr(tau) + 1j * si(tau) for sr, si in zip(splines_re, splines_im)])
        return (w - ys) / theta

    w = -U @ v[:n1, 0]
    v[n1:, 0] = w
    for j in range(npts - 1):
        k1 = rhs(t[j], w)
        k2 = rhs(t[j] + 0.5 * h, w + 0.5 * h * k1)
        k3 = rhs(t[j] + 0.5 * h, w + 0.5 * h * k2)
        k4 = rhs(t[j] + h, w + h * k3)
        w = w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        v[n1:, j + 1] = w
    return v


def test_resolvent_general_blocks_match_loops():
    # Lambda = 0.02 makes the decay per step exp(-2.5), so its n-th power
    # underflows; complex U and y, two components in each block.
    decomp = general_decomp()
    U = np.array([[0.3 + 0.4j, -0.2], [0.1j, 0.7 - 0.1j]])
    L = 30.0
    t = np.linspace(0.0, L, 601)
    y = np.vstack([(1.0 + 0.3j * t) * np.exp(-t),
                   np.sin(t) * np.exp(-0.5 * t),
                   (0.5j - t) * np.exp(-t),
                   np.exp(-(t - 2.0) ** 2 + 1j * t)])
    v, _ = solve_resolvent_halfline(decomp, U, y, L=L)
    ref = _resolvent_by_loops(decomp, U, y, L)
    assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(U @ v[:2, 0] + v[2:, 0])) <= 1e-13


def test_resolvent_grid_too_coarse():
    decomp = unit_decomp(1, 0)
    t = np.linspace(0, 30.0, 101)
    y = np.exp(-t)[None, :]
    with pytest.raises(GridTooCoarse):
        solve_resolvent_halfline(decomp, np.zeros((0, 1)), y, L=30.0,
                                 residual_threshold=1e-9)


def general_decomp():
    # Lambda = 0.02 makes the decay per step exp(-2.5) on a 601-point grid
    return HalfLineDecomposition(S=np.eye(4, dtype=complex), Lambda=np.array([1.0, 0.02]),
                                 Theta=np.array([-0.5, -3.0]))


def real_data():
    t = np.linspace(0.0, 30.0, 601)
    return np.vstack([(1.0 + 0.3 * t) * np.exp(-t),
                      np.sin(t) * np.exp(-0.5 * t),
                      (0.5 - t) * np.exp(-t),
                      np.exp(-(t - 2.0) ** 2) * np.cos(t)])


@pytest.mark.parametrize("U", [np.array([[0.3, -0.2], [0.1, 0.7]]),
                               np.array([[0.3 + 0.4j, -0.2], [0.1j, 0.7 - 0.1j]])])
def test_resolvent_real_data_match_loops(U):
    # real y runs in float64 unless U is complex; v2(0) = -U v1(0) keeps Im U
    decomp = general_decomp()
    y = real_data()
    v, _ = solve_resolvent_halfline(decomp, U, y, L=30.0)
    ref = _resolvent_by_loops(decomp, U, y, 30.0)
    assert v.dtype == np.complex128
    assert (np.max(np.abs(v[2:].imag)) > 1e-3) == np.iscomplexobj(U)
    assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(U @ v[:2, 0] + v[2:, 0])) <= 1e-13


def test_resolvent_is_complex_linear_in_the_data():
    decomp = general_decomp()
    U = np.array([[0.3, -0.2], [0.1, 0.7]])
    y_re = real_data()
    y_im = np.roll(y_re, 1, axis=0) * np.linspace(1.0, 2.0, y_re.shape[1])
    v, _ = solve_resolvent_halfline(decomp, U, y_re + 1j * y_im, L=30.0)
    v_re, _ = solve_resolvent_halfline(decomp, U, y_re, L=30.0)
    v_im, _ = solve_resolvent_halfline(decomp, U, y_im, L=30.0)
    assert np.max(np.abs(v - (v_re + 1j * v_im))) <= 1e-14 * np.max(np.abs(v))


@pytest.mark.parametrize("field", [float, complex])
def test_resolvent_callable_rhs_keeps_its_field(monkeypatch, field):
    # the resolvent looks its BLAS routine up in scipy.linalg at each call
    dtypes = []
    get_blas_funcs = scipy.linalg.get_blas_funcs

    def recording(name, *args, dtype=None, **kwargs):
        dtypes.append(np.dtype(dtype))
        return get_blas_funcs(name, *args, dtype=dtype, **kwargs)

    monkeypatch.setattr(scipy.linalg, "get_blas_funcs", recording)
    y = np.vstack([np.exp(-np.linspace(0.0, 30.0, 3001))] * 2).astype(field)
    x, res = solve_resolvent_halfline(unit_decomp(1, 1), np.array([[0.5]]), y, L=30.0)
    assert dtypes == [np.dtype(field)]
    assert x.dtype == np.complex128
    assert res <= 1e-3


@pytest.mark.parametrize("n2", [0, 1])
@pytest.mark.parametrize("L", [-30.0, 0.0, np.nan, np.inf, None, "3"])
def test_resolvent_rejects_bad_length(n2, L):
    decomp = unit_decomp(1, n2)
    y = np.vstack([np.exp(-np.linspace(0.0, 30.0, 301))] * (1 + n2))
    with pytest.raises(PhwellError, match="L must be a finite number > 0"):
        solve_resolvent_halfline(decomp, np.zeros((n2, 1)), y, L=L)


@pytest.mark.parametrize("threshold", ["a", np.nan, -1.0, np.inf, True, 1j])
def test_resolvent_rejects_a_bad_threshold_before_solving(threshold, monkeypatch):
    # refused up front: get_blas_funcs, the sweeps' set-up, is never reached,
    # and a NaN threshold is a fault of the call, not a GridTooCoarse
    def sweep(*args, **kwargs):
        raise AssertionError("solved before the refusal")

    monkeypatch.setattr(scipy.linalg, "get_blas_funcs", sweep)
    y = np.exp(-np.linspace(0.0, 30.0, 301))[None, :]
    with pytest.raises(PhwellError, match="residual_threshold must be None or a finite"):
        solve_resolvent_halfline(unit_decomp(1, 0), np.zeros((0, 1)), y, L=30.0,
                                 residual_threshold=threshold)


def test_resolvent_nan_residual_fails_the_threshold():
    t = np.linspace(0.0, 30.0, 301)
    y = np.exp(-t)[None, :]
    y[0, 150] = np.nan
    _, res = solve_resolvent_halfline(unit_decomp(1, 0), np.zeros((0, 1)), y, L=30.0)
    assert np.isnan(res)
    with pytest.raises(GridTooCoarse) as err:
        solve_resolvent_halfline(unit_decomp(1, 0), np.zeros((0, 1)), y, L=30.0,
                                 residual_threshold=1.0)
    assert np.isnan(err.value.residual)


@pytest.mark.parametrize("n1, n2, spline_solves", [(1, 0, 0), (2, 0, 0), (0, 1, 1),
                                                   (1, 1, 1), (2, 2, 1)])
def test_resolvent_banded_lu_only_in_the_spline(monkeypatch, n1, n2, spline_solves):
    # both recurrences are ?tbsv sweeps; the one factorization is the
    # spline's tridiagonal ?pttrf, made once per grid size and reused by a
    # ?pttrs solve per call when there is a negative block; the spline looks
    # both up in scipy.linalg when it needs them
    calls = {"pttrf": [], "pttrs": []}
    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    def counting_lookup(name, *args, **kwargs):
        routine = get_lapack_funcs(name, *args, **kwargs)
        if name not in calls:
            return routine

        def counting(*a, **kw):
            calls[name].append(a[0].size)
            return routine(*a, **kw)
        return counting

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting_lookup)
    halfline._spline_factor.cache_clear()
    for npts in (601, 301, 601, 301, 601):
        t = np.linspace(0.0, 30.0, npts)
        y = np.vstack([np.exp(-t)] * (n1 + n2))
        solve_resolvent_halfline(unit_decomp(n1, n2), np.full((n2, n1), 0.5), y, L=30.0)
    assert len(calls["pttrs"]) == 5 * spline_solves
    assert calls["pttrf"] == [601, 301][:2 * spline_solves]
    assert not hasattr(halfline, "solve_banded")


def _old_stencil_residual(v, y, decomp, L):
    """The residual as first written: |v - Delta v' - y| with v' by fourth-order differences."""
    h = L / (v.shape[1] - 1)
    delta = np.concatenate([decomp.Lambda, decomp.Theta])
    dv = (v[:, :-4] - 8 * v[:, 1:-3] + 8 * v[:, 3:-1] - v[:, 4:]) / (12.0 * h)
    return float(np.max(np.abs(v[:, 2:-2] - delta[:, None] * dv - y[:, 2:-2])))


@pytest.mark.parametrize("field", [float, complex])
def test_resolvent_residual_matches_the_stencil(field):
    decomp = general_decomp()
    U = np.array([[0.3, -0.2], [0.1, 0.7]]) * field(1.0)
    y = real_data() * field(1.0)
    if field is complex:
        y = y + 0.5j * np.roll(y, 1, axis=0)
    for n in (1, 5):  # 601 and 121 points: a small and a large residual
        yn = y[:, ::n]
        v, res = solve_resolvent_halfline(decomp, U, yn, L=30.0)
        want = _old_stencil_residual(v, yn, decomp, 30.0)
        assert abs(res - want) <= 1e-12 * want


@pytest.mark.parametrize("name, bad", [
    pytest.param("y", np.array([["1"] * 101]), id="y-str"),
    pytest.param("y", np.ones((1, 101), dtype=bool), id="y-bool"),
    pytest.param("y", np.array([[None] * 101]), id="y-None"),
    pytest.param("U", np.array([[True]]), id="U-bool"),
    pytest.param("U", np.array([["0.5"]]), id="U-str"),
])
def test_resolvent_refuses_non_numbers_before_solving(name, bad, monkeypatch):
    # a str or bool y used to be converted (residual 0.0075), a None y gave a
    # NaN residual, and a bool or str U raised numpy's TypeError after the
    # positive sweep; a bool is no number here either
    def sweep(*args, **kwargs):
        raise AssertionError("solved before the refusal")

    monkeypatch.setattr(scipy.linalg, "get_blas_funcs", sweep)
    args = {"y": np.vstack([np.exp(-np.linspace(0.0, 30.0, 101))] * 2),
            "U": np.array([[0.5]])}
    args[name] = np.vstack([bad] * 2) if name == "y" else bad
    with pytest.raises(PhwellError, match=f"{name} must hold numbers, got dtype {bad.dtype}"):
        solve_resolvent_halfline(unit_decomp(1, 1), args["U"], args["y"], L=30.0)


@pytest.mark.parametrize("y, error, match", [
    (np.ones((2, 101)), ShapeError, r"y must be \(1, n\+1\), got \(2, 101\)"),
    (np.ones(101), ShapeError, r"y must be \(1, n\+1\), got \(101,\)"),
    (np.ones((1, 5)), GridTooCoarse, "need at least 6 grid points"),
], ids=["two rows", "one dimension", "five points"])
def test_resolvent_refuses_a_badly_shaped_grid(y, error, match):
    with pytest.raises(error, match=match) as exc:
        solve_resolvent_halfline(unit_decomp(1, 0), np.zeros((0, 1)), y, L=30.0)
    if error is GridTooCoarse:
        assert exc.value.residual == np.inf


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64, np.float16, np.float32,
                                   np.longdouble, np.complex64, np.clongdouble])
def test_resolvent_takes_numbers_of_any_precision(dtype):
    # small non-negative integers, exact in every dtype; the run is float64
    # or complex128 whatever the precision given
    y = np.vstack([np.arange(301) % 3, np.arange(301) % 5]).astype(float)
    U = np.array([[2.0]])
    field = complex if np.dtype(dtype).kind == "c" else float
    want, _ = solve_resolvent_halfline(unit_decomp(1, 1), U.astype(field), y.astype(field),
                                       L=30.0)
    got, _ = solve_resolvent_halfline(unit_decomp(1, 1), U.astype(dtype), y.astype(dtype),
                                      L=30.0)
    np.testing.assert_array_equal(got, want)


def _resolvent_pool():
    """18 fixed calls: float and complex data, (n1, n2) in {(1, 0), (1, 1), (2, 2)},
    7, 601 and 30,001 points."""
    rng = np.random.default_rng(37)
    for field in (float, complex):
        for n1, n2 in ((1, 0), (1, 1), (2, 2)):
            decomp = HalfLineDecomposition(S=np.eye(n1 + n2, dtype=complex),
                                           Lambda=np.array([1.3, 0.02])[:n1],
                                           Theta=np.array([-0.4, -3.0])[:n2])
            for npts in (7, 601, 30001):
                t = np.linspace(0.0, 30.0, npts)
                y = rng.normal(size=(n1 + n2, 3)) @ np.vstack([t ** 0, t, t * t])
                y *= np.exp(-t)
                U = rng.normal(size=(n2, n1))
                if field is complex:
                    y = y + 1j * rng.normal(size=y.shape)
                    U = U + 1j * rng.normal(size=U.shape)
                yield decomp, U, y


# Taken from the tree before the spline factor was cached and the result
# became the run's scratch, so equality shows those changes moved no bit.
# numpy's OpenBLAS kernel (the coupling U @ v1(0)) and SIMD exp (the data and
# the decay factors) set the last bits: it was taken with numpy's OpenBLAS
# 0.3.31 (DYNAMIC_ARCH) on an AVX-512 x86-64 host.  On a host where the
# parent tree gives another value, this pin fails with no code change:
# re-derive it there from the parent before reading the failure as a
# resolvent regression.
RESOLVENT_POOL_SHA256 = "0ad3860346611a91e3d3efe4022fd6c51df36adec09c05f928fecacaff1629d1"


def test_resolvent_outputs_are_pinned():
    h = hashlib.sha256()
    for decomp, U, y in _resolvent_pool():
        v, residual = solve_resolvent_halfline(decomp, U, y, L=30.0)
        h.update(v.tobytes())
        h.update(residual.hex().encode())
    assert h.hexdigest() == RESOLVENT_POOL_SHA256


def test_resolvent_cold_and_warm_spline_factor_agree():
    decomp, U, y = list(_resolvent_pool())[16]  # complex data, (2, 2), 601 points
    halfline._spline_factor.cache_clear()
    cold, cold_res = solve_resolvent_halfline(decomp, U, y, L=30.0)
    assert halfline._spline_factor.cache_info().currsize == 1
    warm, warm_res = solve_resolvent_halfline(decomp, U, y, L=30.0)
    assert cold.tobytes() == warm.tobytes()
    assert cold_res.hex() == warm_res.hex()


def test_spline_factor_is_read_only():
    for factor in halfline._spline_factor(601):
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0] = 1.0


@pytest.mark.parametrize("field", [float, complex])
@pytest.mark.parametrize("n1, n2", [(1, 0), (1, 1)])
def test_resolvent_results_share_no_memory(field, n1, n2):
    # a real run's result is its own scratch; no later call may reuse it
    t = np.linspace(0.0, 30.0, 601)
    y = np.vstack([np.exp(-t)] * (n1 + n2)).astype(field)
    U = np.full((n2, n1), 0.5)
    first, _ = solve_resolvent_halfline(unit_decomp(n1, n2), U, y, L=30.0)
    kept = first.copy()
    second, _ = solve_resolvent_halfline(unit_decomp(n1, n2), U, 2.0 * y, L=30.0)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, y)
    np.testing.assert_array_equal(first, kept)
    np.testing.assert_array_equal(second, 2.0 * kept)


def test_resolvent_real_run_peak_memory():
    # 30,001 points, one real component: the float64 v and the complex128
    # result are the only full-length arrays (1.5x the result; 3.0x when
    # the bands, the residual, its modulus and the result were each fresh)
    y = np.exp(-np.linspace(0.0, 30.0, 30001))[None, :]
    args = (unit_decomp(1, 0), np.zeros((0, 1)), y)
    solve_resolvent_halfline(*args, L=30.0)  # scipy's look-ups
    tracemalloc.start()
    try:
        v, _ = solve_resolvent_halfline(*args, L=30.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * v.nbytes


@pytest.mark.parametrize("lam, theta", [
    (1.0, 0.5), (-1.0, -1.0), (0.0, -1.0), (np.nan, -1.0), (np.inf, -1.0), (-np.inf, -1.0),
    (1.0, 0.0), (1.0, -np.inf), (1.0, np.nan),
    pytest.param([2.0, -0.0], -1.0, id="[2.0, -0.0]--1.0"),
])
def test_resolvent_rejects_wrongly_signed_blocks(lam, theta):
    # Theta = +0.5 used to return a residual of 3.5e20, Lambda = -1 a wrong
    # solve with a small residual and Lambda = 0 a divide-by-zero warning;
    # one bad entry of several is enough
    lam = np.atleast_1d(lam)
    decomp = HalfLineDecomposition(S=np.eye(lam.size + 1, dtype=complex), Lambda=lam,
                                   Theta=np.array([theta]))
    y = np.vstack([np.exp(-np.linspace(0.0, 30.0, 601))] * (lam.size + 1))
    with pytest.raises(PhwellError, match="Lambda must be finite and > 0"):
        solve_resolvent_halfline(decomp, np.full((1, lam.size), 0.5), y, L=30.0)


@pytest.mark.parametrize("field", [float, complex])
def test_resolvent_writes_every_entry_it_allocates(monkeypatch, field):
    # v, the result and the scratch come from np.empty: with every new
    # array NaN-filled, an entry the solve leaves unwritten would show
    rng = np.random.default_rng(40)
    t = np.linspace(0.0, 30.0, 61)
    calls = []
    for n1, n2 in [(1, 0), (0, 1), (1, 1), (2, 2)]:
        decomp = HalfLineDecomposition(S=np.eye(n1 + n2, dtype=complex),
                                       Lambda=np.array([1.3, 0.02])[:n1],
                                       Theta=np.array([-0.4, -3.0])[:n2])
        y = (rng.normal(size=(n1 + n2, 2)) @ np.vstack([t ** 0, t])) * np.exp(-t)
        U = rng.normal(size=(n2, n1))
        if field is complex:
            y = y + 1j * rng.normal(size=y.shape)
            U = U + 1j * rng.normal(size=U.shape)
        calls.append((decomp, U, y))
    want = [solve_resolvent_halfline(*c, L=30.0) for c in calls]
    empty = np.empty

    def nan_empty(*args, **kwargs):
        a = empty(*args, **kwargs)
        a.fill(np.nan)
        return a

    monkeypatch.setattr(np, "empty", nan_empty)
    assert np.isnan(np.empty(2)).all()
    for c, (v, res) in zip(calls, want):
        got, got_res = solve_resolvent_halfline(*c, L=30.0)
        assert got.tobytes() == v.tobytes() and got_res.hex() == res.hex()
        assert np.isfinite(got).all()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 101, 3001])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("field", [float, complex])
def test_spline_midpoints_match_the_call(n, rows, field):
    # a power-of-two step puts every grid point and midpoint exactly on a
    # double, so ours and scipy's call differ only in how the cubic is rounded
    rng = np.random.default_rng(10 * n + rows + 1)
    h = 2.0 ** rng.integers(-8, 4)
    t = np.arange(n) * h
    y = rng.normal(size=(rows, n))
    if field is complex:
        y = y + 1j * rng.normal(size=(rows, n))
    got = halfline.CubicSpline(y, h).midpoints()
    want = CubicSpline(t, y, axis=1)(t[:-1] + 0.5 * h)
    assert got.shape == want.shape == (rows, n - 1)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 10, 101, 3001])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("field", [float, complex])
def test_spline_matches_scipy(n, rows, field):
    rng = np.random.default_rng(10 * n + rows)
    L = rng.uniform(1.0, 40.0)
    t = np.linspace(0.0, L, n)
    y = rng.normal(size=(rows, n))
    if field is complex:
        y = y + 1j * rng.normal(size=(rows, n))
    got = halfline.CubicSpline(y, L / (n - 1)).midpoints()
    want = CubicSpline(t, y, axis=1)(t[:-1] + 0.5 * (t[1] - t[0]))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_spline_rejects_fewer_than_four_samples():
    for y in (np.ones(3), np.ones((2, 3)), np.array(1.0)):
        with pytest.raises(ShapeError, match="at least 4 samples"):
            halfline.CubicSpline(y, 0.5)
