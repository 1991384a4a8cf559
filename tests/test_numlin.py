import numpy as np
import pytest

import json

from phwell import HamiltonianDensity, cli, config, numlin, validate_system
from phwell.corpus import CORPUS
from phwell.errors import NotHermitian
from phwell.halfline import BoundaryFactorization, FactorizationFailure, HalfLineAlgebra
from phwell.interval import BoundaryAlgebra
from phwell.model import derive_boundary_operator
from phwell.simulator import dissipativity_oracle


def test_kernel_basis_row_vector():
    K = numlin.kernel_basis(np.array([[1.0, 0.0]]))
    assert K.shape == (2, 1)
    np.testing.assert_allclose(np.abs(K[:, 0]), [0.0, 1.0], atol=1e-14)


def test_kernel_basis_zero_matrix():
    K = numlin.kernel_basis(np.zeros((2, 2)))
    assert K.shape == (2, 2)
    np.testing.assert_allclose(K.conj().T @ K, np.eye(2), atol=1e-14)


def test_kernel_basis_hand_nullspace():
    # [u-1, u+1] at u=2 -> kernel spanned by (3, -1)/sqrt(10)
    K = numlin.kernel_basis(np.array([[1.0, 3.0]]))
    assert K.shape == (2, 1)
    target = np.array([3.0, -1.0]) / np.sqrt(10.0)
    assert abs(abs(np.vdot(K[:, 0], target)) - 1.0) < 1e-12


def test_kernel_basis_random_properties():
    rng = np.random.default_rng(0)
    for _ in range(30):
        p, q = rng.integers(1, 7, size=2)
        M = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
        K = numlin.kernel_basis(M)
        if K.shape[1]:
            smax = np.linalg.norm(M, 2)
            assert np.linalg.norm(M @ K) <= 1e-10 * smax * np.sqrt(q) + 1e-15
            np.testing.assert_allclose(K.conj().T @ K, np.eye(K.shape[1]),
                                       atol=1e-12)


def test_definiteness_zero():
    rep = numlin.definiteness(np.zeros((3, 3)))
    assert rep.is_psd and rep.is_nsd and rep.is_zero


def test_definiteness_tree_diagonal():
    rep = numlin.definiteness(0.25 * np.diag([1.0, 1.0, 2.0, 2.0, 2.0, 2.0]))
    assert rep.is_psd and not rep.is_nsd and not rep.is_zero


def test_definiteness_indefinite():
    rep = numlin.definiteness(np.diag([1.0, -1.0]))
    assert not rep.is_psd and not rep.is_nsd and not rep.is_zero


def test_definiteness_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        numlin.definiteness(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_definiteness_runs_no_svd_on_hermitian_input(count_svds):
    rng = np.random.default_rng(3)
    A = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    skew = 1e-8 * (A - A.conj().T)
    numlin.definiteness(A + A.conj().T)
    numlin.hermitian_eigendecomposition(A + A.conj().T)
    assert count_svds == []
    # a deviation above 10 tol needs ||M|| (one SVD), which here forgives it
    numlin.definiteness(1e3 * (A + A.conj().T) + skew)
    assert len(count_svds) == 1


def _unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def test_hermitian_screen_keeps_the_spectral_rule():
    # M - M* = 2i e U diag(1 x 8, 0, ...) U*: ||.||_2 = 2e below the
    # threshold, ||.||_F = 2e sqrt(8) above it, so the eigensolve decides
    n, thr = 16, 1e-9
    U = _unitary(n, 5)
    herm = 0.5 * U @ np.diag(np.linspace(-1.0, 1.0, n)) @ U.conj().T
    spread = U @ np.diag([1.0] * 8 + [0.0] * (n - 8)) @ U.conj().T
    e = 0.4 * thr
    M = herm + 1j * e * spread
    assert np.linalg.norm(M - M.conj().T) > thr > np.linalg.norm(M - M.conj().T, 2)
    assert numlin.operator_norm(M) <= 1.0
    numlin.require_hermitian(M, thr)
    # a rank-1 deviation just above the threshold still raises
    u = U[:, :1]
    M1 = herm + 1j * (0.505 * thr) * (u @ u.conj().T)
    with pytest.raises(NotHermitian):
        numlin.require_hermitian(M1, thr)


def test_definiteness_of_hermitian_input_runs_one_eigensolve(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rng = np.random.default_rng(6)
    A = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    numlin.definiteness(A + A.conj().T)
    assert len(calls) == 1
    # Hermitian up to rounding only
    U = _unitary(32, 7)
    M = U @ np.diag(rng.normal(size=32)) @ U.conj().T
    assert np.any(M != M.conj().T)
    numlin.definiteness(M)
    assert len(calls) == 2


def _old_hermitian_check(M, tol):
    """The two-SVD test the eigenvalue form replaced: True iff it raised."""
    dev = np.linalg.norm(M - M.conj().T, 2)
    return dev > tol * max(1.0, np.linalg.norm(M, 2)) * 10.0


def test_hermitian_check_raises_on_the_same_inputs_as_two_svds():
    rng = np.random.default_rng(4)
    tol = numlin.DEFAULT_TOL
    seen = set()
    for _ in range(300):
        d = int(rng.integers(1, 9))
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = 10.0 ** rng.uniform(-3, 4) * (A + A.conj().T) \
            + 10.0 ** rng.uniform(-12, -5) * B
        dev = np.linalg.norm(M - M.conj().T, 2)
        limit = 10.0 * tol * max(1.0, np.linalg.norm(M, 2))
        if abs(dev - limit) <= 1e-6 * limit:
            continue  # rounding decides at the threshold itself
        expected = _old_hermitian_check(M, tol)
        seen.add(expected)
        for check in (numlin.definiteness, numlin.hermitian_eigendecomposition):
            if expected:
                with pytest.raises(NotHermitian):
                    check(M, tol)
            else:
                check(M, tol)
    assert seen == {True, False}


def test_operator_norm_values():
    assert numlin.operator_norm(np.eye(3)) == pytest.approx(1.0)
    assert numlin.operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)
    # truncated down-shift has norm exactly 1 for d >= 2
    L = np.zeros((5, 5))
    for j in range(4):
        L[j, j + 1] = 1.0
    assert numlin.operator_norm(L) == pytest.approx(1.0, abs=1e-14)


def test_hermitian_eigendecomposition_reconstructs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(1, 7))
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        P = 0.5 * (A + A.conj().T)
        S, w = numlin.hermitian_eigendecomposition(P)
        np.testing.assert_allclose(S.conj().T @ np.diag(w) @ S, P,
                                   atol=1e-12 * max(1, np.linalg.norm(P, 2)))
        np.testing.assert_allclose(S.conj().T @ S, np.eye(d), atol=1e-12)
        assert np.all(np.diff(w) <= 1e-12)  # descending


def test_hermitian_eigendecomposition_examples():
    S, w = numlin.hermitian_eigendecomposition(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(S), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-14)
    S2, w2 = numlin.hermitian_eigendecomposition(np.diag([2.0, -3.0]))
    np.testing.assert_allclose(w2, [2.0, -3.0])
    np.testing.assert_allclose(np.abs(S2), np.eye(2), atol=1e-14)


@pytest.mark.parametrize("P,expected", [
    (np.array([[0.0, 1.0], [1.0, 0.0]]), (1, 0, 1)),
    (-np.eye(3), (0, 0, 3)),
    (np.diag([1.0, 0.0]), (1, 1, 0)),
])
def test_inertia_examples(P, expected):
    assert numlin.inertia(P) == expected


def test_inertia_sums_to_dimension():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(1, 8))
        A = rng.normal(size=(d, d))
        P = A + A.T
        n1, n0, n2 = numlin.inertia(P)
        assert n1 + n0 + n2 == d


def test_rank_rule_examples():
    rank = numlin.rank_from_singular_values
    assert rank(np.zeros(0)) == 0
    assert rank(np.zeros(3)) == 0
    assert rank(np.array([2.0, 1.0, 0.0])) == 2
    # a singular value exactly at tol * s_max does not count
    assert rank(np.array([1.0, 1e-10]), 1e-10) == 1
    assert rank(np.array([1.0, 1e-10]), 0.0) == 2


WIDE = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])


@pytest.mark.parametrize("M, s, s_full", [
    (np.zeros((0, 3)), [0.0], [0.0]),
    (np.zeros((3, 0)), [0.0], [0.0]),
    (np.zeros((0, 0)), [0.0], [0.0]),
    (WIDE, [3.0, np.sqrt(5.0), 0.0], [3.0, np.sqrt(5.0)]),
    (WIDE.T, [3.0, np.sqrt(5.0)], [3.0, np.sqrt(5.0)]),
    (np.diag([2.0, 1.0, 0.0]), [2.0, 1.0, 0.0], [2.0, 1.0, 0.0]),
], ids=["0x3", "3x0", "0x0", "wide", "tall", "square_singular"])
def test_every_shape_reads_one_way(M, s, s_full):
    # singular_values gives a wide matrix a trailing 0.0; svd_rank keeps
    # the min(p, q) values of the SVD; both read an empty matrix as [0.0]
    p, q = M.shape
    rank = int(np.sum(np.array(s) > 0))
    np.testing.assert_allclose(numlin.singular_values(M), s, atol=1e-15)
    s_svd, r, vh = numlin.svd_rank(M)
    np.testing.assert_allclose(s_svd, s_full, atol=1e-15)
    assert r == rank == numlin.numerical_rank(M)
    np.testing.assert_allclose(vh @ vh.conj().T, np.eye(q), atol=1e-15)
    assert numlin.operator_norm(M) == pytest.approx(s[0])
    assert numlin.smallest_singular_value(M) == pytest.approx(s[-1], abs=1e-15)
    K = numlin.kernel_basis(M)
    assert K.shape == (q, q - rank)
    np.testing.assert_allclose(M @ K, 0.0, atol=1e-14)
    np.testing.assert_allclose(K.conj().T @ K, np.eye(q - rank), atol=1e-15)
    assert numlin.orthonormal_columns(M).shape == (p, rank)
    if p == q:
        numlin.require_hermitian(M, 0.0)


def _first_order(interval, P1, WB):
    d = P1.shape[0]
    return validate_system({
        "field": "real", "interval": interval, "N": 1, "d": d,
        "P": [np.zeros((d, d)), P1],
        "H": HamiltonianDensity.constant(np.eye(d)),
        "WB_hat": WB,
    })


@pytest.mark.parametrize("P1", [np.diag([1.0, -1.0]), np.eye(2)], ids=["n2=1", "n2=0"])
def test_no_boundary_conditions_read_alike_on_both_sides(P1):
    # k = 0: every trace is in the kernel (K = I, so the kernel form is the
    # whole form) and WB_hat's singular values read [0.0]
    interval = _first_order("unit_interval", np.eye(1), np.zeros((0, 2)))
    alg_i = BoundaryAlgebra.of(derive_boundary_operator(interval), interval.re_P0(),
                               interval.tol)
    alg_h = HalfLineAlgebra.of(_first_order("half_line", P1, np.zeros((0, 2))))
    assert alg_i.kernel_dim == alg_h.kernel_dim == 2
    assert (alg_i.kernel.min_eig, alg_i.kernel.max_eig) == (-1.0, 1.0)  # diag(Q, -Q)
    assert (alg_h.kernel.min_eig, alg_h.kernel.max_eig) == (min(P1.diagonal()), 1.0)
    assert alg_i.smin_wb_hat == alg_i.smax_wb_hat == 0.0
    assert alg_h.smin_wb_hat == alg_h.smax_wb_hat == 0.0
    assert alg_i.rank_wb_hat == alg_i.ext.rank == alg_h.k == 0
    if alg_h.decomp.n2:
        assert alg_h.fact.reason == "wrong_row_count"
    else:
        assert isinstance(alg_h.fact, BoundaryFactorization)
        assert alg_h.fact.U.shape == (0, 2) and alg_h.fact.residual == 0.0


def test_more_half_line_conditions_than_n2_fail_to_factor():
    sys = _first_order("half_line", np.diag([1.0, -1.0]), np.eye(2))
    alg = HalfLineAlgebra.of(sys)
    assert (alg.k, alg.decomp.n2) == (2, 1)
    assert isinstance(alg.fact, FactorizationFailure)
    assert alg.fact.reason == "wrong_row_count"
    ta4 = cli.analyze(sys)["TA.4"]
    assert ta4.applicable is False
    assert ta4.reason == "needs k <= n2 = 1, got k = 2"


@pytest.mark.parametrize("name,budget", [("path_graph_d32", 6), ("wave_halfline_u05", 5)])
def test_parse_and_analyze_svd_budget(name, budget, count_svds):
    text = json.dumps(config.system_to_dict(CORPUS[name].system()))
    count_svds.clear()
    cli.analyze(config.system_from_dict(json.loads(text)))
    assert len(count_svds) <= budget


def test_ranbed_shares_the_w1_plus_w2_svd(count_svds):
    # 8 while RANBED took its own SVD of the square W1+W2 that extract_v
    # already decomposes, 7 while it took one of [W1+W2 | W1-W2], whose
    # rank is the rank of WB_hat
    text = json.dumps(config.system_to_dict(CORPUS["path_graph_d32"].system()))
    count_svds.clear()
    cli.analyze(config.system_from_dict(json.loads(text)))
    assert len(count_svds) == 6


def test_halfline_parse_and_analyze_eigensolves(monkeypatch):
    # 6 while validation counted P_1's zero eigenvalues with an eigensolve
    # of its own beside the P_N SVD
    calls = []
    for name in ("eigvalsh", "eigh"):
        def counting(*args, _f=getattr(np.linalg, name), **kwargs):
            calls.append(1)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    text = json.dumps(config.system_to_dict(CORPUS["wave_halfline_u05"].system()))
    calls.clear()
    cli.analyze(config.system_from_dict(json.loads(text)))
    assert len(calls) == 5


def test_oracle_runs_one_svd(count_svds):
    system = CORPUS["wave_interval_damped"].system()
    count_svds.clear()
    dissipativity_oracle(system)
    assert len(count_svds) <= 1


def test_operator_norm_equals_numpy_two_norm():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        m, n = rng.integers(1, 9, size=2)
        M = rng.standard_normal((m, n))
        if rng.random() < 0.5:
            M = M + 1j * rng.standard_normal((m, n))
        # operator_norm works in complex arithmetic, as it always has
        assert numlin.operator_norm(M) == np.linalg.norm(M.astype(complex), 2)
    for shape in [(0, 0), (0, 3), (3, 0)]:
        assert numlin.operator_norm(np.zeros(shape)) == 0.0
