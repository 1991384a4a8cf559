import numpy as np
import pytest

from phwell import HamiltonianDensity, halfline, validate_system
from phwell.corpus import build_wave
from scipy.interpolate import CubicSpline

from phwell.errors import GridTooCoarse, ShapeError, SingularP1
from phwell.halfline import (
    BoundaryFactorization,
    FactorizationFailure,
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
    np.testing.assert_allclose(dec.Lambda, [[1.0]], atol=1e-14)
    np.testing.assert_allclose(dec.Theta, [[-1.0]], atol=1e-14)
    np.testing.assert_allclose(np.abs(dec.S), np.full((2, 2), 1 / np.sqrt(2)),
                               atol=1e-14)
    np.testing.assert_allclose(dec.S.conj().T @ dec.delta @ dec.S, P1_WAVE,
                               atol=1e-14)


def test_decompose_negative_definite():
    dec = decompose_P1(-np.eye(3))
    assert (dec.n1, dec.n2) == (0, 3)
    np.testing.assert_allclose(np.abs(dec.S), np.eye(3), atol=1e-14)


def test_decompose_diagonal_permutation():
    dec = decompose_P1(np.diag([2.0, -3.0, -5.0]))
    assert (dec.n1, dec.n2) == (1, 2)
    np.testing.assert_allclose(np.diag(dec.Lambda), [2.0])
    np.testing.assert_allclose(np.diag(dec.Theta), [-3.0, -5.0])
    # rows of S are permutation rows up to sign
    np.testing.assert_allclose(np.sort(np.abs(dec.S), axis=None)[-3:], [1, 1, 1])


def test_decompose_rejects_zero_eigenvalue():
    with pytest.raises(SingularP1):
        decompose_P1(np.diag([1.0, 0.0]))


def test_factorize_wave_boundary():
    dec = decompose_P1(P1_WAVE)
    for u in (0.5, 2.0, -1.0):
        WB = 0.5 * np.array([[u - 1.0, u + 1.0]])
        fact = factorize_boundary(WB, dec)
        assert isinstance(fact, BoundaryFactorization)
        assert fact.residual < 1e-12
        # Lambda + U* Theta U = 1 - |u|^2 regardless of eigenvector signs
        M = dec.Lambda + fact.U.conj().T @ dec.Theta @ fact.U
        assert M[0, 0] == pytest.approx(1.0 - abs(u) ** 2, abs=1e-12)


def test_factorize_full_clamp_negative_p1():
    dec = decompose_P1(-np.eye(3))
    fact = factorize_boundary(np.eye(3), dec)
    assert isinstance(fact, BoundaryFactorization)
    assert fact.U.shape == (3, 0)


def test_factorize_empty_boundary_positive_p1():
    dec = decompose_P1(np.eye(3))
    fact = factorize_boundary(np.zeros((0, 3)), dec)
    assert isinstance(fact, BoundaryFactorization)
    assert fact.B.shape == (0, 0) and fact.U.shape == (0, 3)


def test_factorize_wrong_row_count():
    dec = decompose_P1(np.diag([1.0, -1.0, -2.0]))  # n2 = 2
    fact = factorize_boundary(np.array([[1.0, 0.0, 0.0]]), dec)
    assert isinstance(fact, FactorizationFailure)
    assert fact.reason == "wrong_row_count"


def test_factorize_singular_trailing_block():
    dec = decompose_P1(np.diag([1.0, -1.0]))  # S = I, columns (pos, neg)
    fact = factorize_boundary(np.array([[1.0, 0.0]]), dec)  # hits only Lambda block
    assert isinstance(fact, FactorizationFailure)
    assert fact.reason == "singular_trailing_block"


def test_factorize_raw_rank_deficient_rows():
    # k = n2 = 2 but rank 1: the trailing block is singular
    dec = decompose_P1(np.diag([1.0, -1.0, -2.0]))
    fact = factorize_boundary(np.array([[1.0, 1.0, 2.0], [2.0, 2.0, 4.0]]), dec)
    assert isinstance(fact, FactorizationFailure)
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
    d = n1 + n2
    lam = np.eye(n1) if n1 else np.zeros((0, 0))
    theta = -np.eye(n2) if n2 else np.zeros((0, 0))
    return HalfLineDecomposition(S=np.eye(d, dtype=complex), Lambda=lam,
                                 Theta=theta, n1=n1, n2=n2)


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
    lam = np.diag(decomp.Lambda).real
    for i in range(n1):
        decay = np.exp(-h / lam[i])
        yi = y[i] / lam[i]
        for j in range(npts - 2, -1, -1):
            v[i, j] = decay * v[i, j + 1] + 0.5 * h * (yi[j] + decay * yi[j + 1])
    theta = np.diag(decomp.Theta).real
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
    decomp = HalfLineDecomposition(S=np.eye(4, dtype=complex),
                                   Lambda=np.diag([1.0, 0.02]),
                                   Theta=np.diag([-0.5, -3.0]), n1=2, n2=2)
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


def test_resolvent_callable_rhs_default_grid():
    decomp = unit_decomp(1, 0)
    x, res = solve_resolvent_halfline(decomp, np.zeros((0, 1)),
                                      lambda t: np.array([np.exp(-t)]))
    assert x.shape == (1, 3001)  # default step L / 3000
    assert res <= 5e-5  # trapezoid at the default step
    assert abs(x[0, 0] - 0.5) <= 5e-5


@pytest.mark.parametrize("n", [6, 7, 10, 101, 3001])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("field", [float, complex])
def test_spline_matches_scipy(n, rows, field):
    rng = np.random.default_rng(10 * n + rows)
    L = rng.uniform(1.0, 40.0)
    t = np.linspace(0.0, L, n)
    y = rng.normal(size=(rows, n))
    if field is complex:
        y = y + 1j * rng.normal(size=(rows, n))
    ours, ref = halfline.CubicSpline(t, y, axis=1), CubicSpline(t, y, axis=1)
    for x in (t[:-1] + 0.5 * (t[1] - t[0]), rng.uniform(0.0, L, 200)):
        got, want = ours(x), ref(x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_spline_axis_and_point_shapes():
    rng = np.random.default_rng(3)
    t = np.linspace(-1.0, 2.0, 12)
    y = rng.normal(size=(12, 2, 3))
    ours, ref = halfline.CubicSpline(t, y), CubicSpline(t, y)
    for x in (0.37, rng.uniform(-1.0, 2.0, (4, 5))):
        assert ours(x).shape == ref(x).shape
        np.testing.assert_allclose(ours(x), ref(x), rtol=0, atol=1e-13)
    ours = halfline.CubicSpline(t, np.moveaxis(y, 0, -1), axis=-1)
    x = rng.uniform(-1.0, 2.0, 7)
    np.testing.assert_allclose(np.moveaxis(ours(x), -1, 0), ref(x), rtol=0, atol=1e-13)


def test_spline_rejects_short_and_uneven_grids():
    with pytest.raises(ShapeError):
        halfline.CubicSpline(np.linspace(0.0, 1.0, 3), np.ones(3))
    with pytest.raises(ShapeError):
        halfline.CubicSpline(np.linspace(0.0, 1.0, 6), np.ones((2, 5)), axis=1)
    uneven = np.linspace(0.0, 1.0, 10)
    uneven[4] += 1e-3
    for x in (uneven, np.linspace(1.0, 0.0, 10), np.full(10, 0.5)):
        with pytest.raises(ShapeError):
            halfline.CubicSpline(x, np.ones(10))
