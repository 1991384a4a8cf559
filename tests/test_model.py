import re

import numpy as np
import pytest

from phwell import (
    HamiltonianDensity,
    Tolerances,
    build_q,
    extract_v,
    numlin,
    split_boundary_operator,
    validate_system,
)
from phwell.errors import (
    HNotCoercive,
    ShapeError,
    SingularP1,
    SingularPN,
    SingularQ,
    StructureError,
    ValidationError,
)
from phwell.halfline import decompose_P1
from phwell.model import BoundaryTrace, derive_boundary_operator, port_variables
from phwell.simulator import boundary_interpolant


def wave_raw(**over):
    raw = {
        "field": "real",
        "interval": "unit_interval",
        "N": 1,
        "d": 2,
        "P": [np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])],
        "H": HamiltonianDensity.constant(np.eye(2)),
        "WB_hat": np.array([[0.7, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
    }
    raw.update(over)
    return raw


def test_validate_wave_reports_h_bounds():
    sys = validate_system(wave_raw())
    assert sys.h_min_eig == pytest.approx(1.0)
    assert sys.h_max_eig == pytest.approx(1.0)
    assert sys.nd == 2


def test_validate_rejects_real_skew_scalar():
    # N=2, d=1: P2 must be skew, impossible for a real nonzero scalar
    raw = wave_raw(N=2, d=1,
                   P=[np.zeros((1, 1)), np.ones((1, 1)), np.array([[2.0]])],
                   H=HamiltonianDensity.constant(np.eye(1)),
                   WB_hat=np.zeros((2, 4)))
    with pytest.raises(StructureError):
        validate_system(raw)


def test_validate_rejects_singular_pn():
    raw = wave_raw(N=1, d=1, P=[np.zeros((1, 1)), np.zeros((1, 1))],
                   H=HamiltonianDensity.constant(np.eye(1)),
                   WB_hat=np.zeros((1, 2)))
    with pytest.raises(SingularPN):
        validate_system(raw)


def test_validate_rejects_singular_q():
    # P_2 alone is well conditioned, but Q = [[P1, P2], [-P2, 0]] has
    # s_min / s_max = |P2|^2 / |P1|^2 = 1e-12
    raw = wave_raw(N=2, d=1, P=[np.zeros((1, 1)), np.eye(1), 1e-6j * np.eye(1)],
                   field="complex", H=HamiltonianDensity.constant(np.eye(1)),
                   WB_hat=np.eye(2, 4))
    with pytest.raises(SingularQ) as exc:
        validate_system(raw)
    assert isinstance(exc.value, ValidationError)


def test_first_order_validation_runs_one_svd(count_svds):
    # Q = P_1 = P_N for N = 1, so the P_N decision is the Q decision
    validate_system(wave_raw())
    assert len(count_svds) == 1


def test_rank_boundary_is_singular_in_validation_and_checkers():
    # s_min = tau * s_max exactly: not above the threshold, so singular
    # for validate_system and for extract_v alike
    P1 = np.diag([1.0, 1e-10])
    raw = wave_raw(P=[np.zeros((2, 2)), P1],
                   tolerances=Tolerances(tau_rank=1e-10, check=1e-10))
    with pytest.raises(SingularPN):
        validate_system(raw)
    assert extract_v(P1, np.zeros((2, 2)), 1e-10).V is None


def test_validate_rejects_non_hermitian_p1_and_h():
    with pytest.raises(StructureError, match=r"P\[1\] must be Hermitian"):
        validate_system(wave_raw(P=[np.zeros((2, 2)), np.array([[0.0, 1.0], [0.9, 0.0]])]))
    H = HamiltonianDensity.constant(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(StructureError, match="H sample 0 is not Hermitian"):
        validate_system(wave_raw(H=H))


def test_validate_rejects_indefinite_h():
    raw = wave_raw(H=HamiltonianDensity.constant(np.diag([1.0, -1.0])))
    with pytest.raises(HNotCoercive):
        validate_system(raw)


def test_validate_rejects_wrong_width():
    raw = wave_raw(WB_hat=np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        validate_system(raw)


@pytest.mark.parametrize("over", [
    {"N": 1.9},  # was truncated to 1
    {"N": True},
    {"d": True, "P": [np.zeros((1, 1)), np.eye(1)], "H": np.eye(1),
     "WB_hat": np.array([[0.0, 1.0]])},  # was taken as d = 1
    {"d": 2.0},
])
def test_validate_requires_int_n_and_d(over):
    with pytest.raises(ShapeError, match="N and d must be positive integers"):
        validate_system(wave_raw(**over))


def _with_entry(M, value):
    M = np.array(M, dtype=complex)
    M.flat[-1] = value
    return M


@pytest.mark.parametrize("name,over", [
    ("P[0]", {"P": [_with_entry(np.zeros((2, 2)), np.inf),
                    np.array([[0.0, 1.0], [1.0, 0.0]])]}),
    ("P[1]", {"P": [np.zeros((2, 2)), _with_entry([[0.0, 1.0], [1.0, 0.0]], np.nan)]}),
    ("H sample 1", {"H": HamiltonianDensity.piecewise(
        [0.5], [np.eye(2), _with_entry(np.eye(2), np.nan)])}),
    ("WB_hat", {"WB_hat": _with_entry([[0.7, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
                                      np.nan)}),
    ("WB_hat", {"WB_hat": _with_entry([[0.7, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
                                      complex(0.0, -np.inf)), "field": "complex"}),
])
def test_validate_rejects_non_finite_entries(name, over):
    # formerly accepted: h_min_eig = nan, an SVD that did not converge in
    # analyze, or not_contraction with numpy RuntimeWarnings
    with pytest.raises(StructureError, match=re.escape(f"{name} has a non-finite entry")):
        validate_system(wave_raw(**over))


def test_validate_halfline_needs_invertible_p1():
    raw = wave_raw(interval="half_line",
                   P=[np.zeros((2, 2)), np.diag([1.0, 0.0])],
                   WB_hat=np.zeros((1, 2)))
    with pytest.raises((SingularP1, SingularPN)):
        validate_system(raw)


def test_build_q_order1():
    P1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(build_q([P1]), P1)


def test_build_q_order2_scalars():
    Q = build_q([np.array([[2.0]]), np.array([[3.0]])])
    np.testing.assert_allclose(Q, [[2.0, 3.0], [-3.0, 0.0]])


def test_build_q_order3_matches_index_formula():
    # independent evaluation of the block rule, plus Hermitian check
    P = [np.array([[1.0 + 0j]]), np.array([[1j]]), np.array([[1.0 + 0j]])]
    Q = build_q(P)
    expected = np.zeros((3, 3), dtype=complex)
    for i in range(1, 4):
        for j in range(1, 4):
            if i + j <= 4:
                expected[i - 1, j - 1] = ((-1) ** (i - 1)) * P[i + j - 2][0, 0]
    np.testing.assert_allclose(Q, expected)
    np.testing.assert_allclose(Q, [[1, 1j, 1], [-1j, -1, 0], [1, 0, 0]])
    np.testing.assert_allclose(Q, Q.conj().T)


def test_build_q_hermitian_and_invertible_random():
    rng = np.random.default_rng(3)
    for _ in range(25):
        N = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        P = []
        for k in range(1, N + 1):
            M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            P.append(0.5 * (M + M.conj().T) if k % 2 else 0.5 * (M - M.conj().T))
        s = np.linalg.svd(P[-1], compute_uv=False)
        if s[-1] < 1e-6:
            continue
        Q = build_q(P)
        norm = np.linalg.norm(Q, 2)
        assert np.linalg.norm(Q - Q.conj().T, 2) <= 1e-12 * norm
        assert np.linalg.svd(Q, compute_uv=False)[-1] > 1e-10 * norm


def shift(d):
    L = np.zeros((d, d))
    for j in range(d - 1):
        L[j, j + 1] = 1.0
    return L


def test_split_path_graph():
    d = 6
    L = shift(d)
    W1, W2 = split_boundary_operator(np.hstack([np.eye(d), -L]), np.eye(d))
    np.testing.assert_allclose(W1, 0.5 * (np.eye(d) + L), atol=1e-14)
    np.testing.assert_allclose(W2, 0.5 * (np.eye(d) - L), atol=1e-14)


def test_split_q_minus_q_row():
    Q = np.array([[2.0, 1.0], [1.0, 3.0]])
    WB = np.hstack([Q, -Q])
    W1, W2 = split_boundary_operator(WB, Q)
    np.testing.assert_allclose(W1, np.eye(2), atol=1e-13)
    np.testing.assert_allclose(W2, np.zeros((2, 2)), atol=1e-13)


def test_split_pure_effort_row():
    # WB_hat = [0 I]: W1 = -Q^{-1}/2, W2 = I/2 (verified by reconstruction)
    Q = np.array([[2.0, 1.0], [1.0, 3.0]])
    WB = np.hstack([np.zeros((2, 2)), np.eye(2)])
    W1, W2 = split_boundary_operator(WB, Q)
    np.testing.assert_allclose(W1, -0.5 * np.linalg.inv(Q), atol=1e-13)
    np.testing.assert_allclose(W2, 0.5 * np.eye(2), atol=1e-13)


def test_split_reconstruction_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 2 * n + 1))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q = A + A.conj().T + 3.0 * np.eye(n)
        WB = rng.normal(size=(k, 2 * n)) + 1j * rng.normal(size=(k, 2 * n))
        W1, W2 = split_boundary_operator(WB, Q)
        recon = np.hstack([W1 @ Q + W2, -W1 @ Q + W2])
        assert np.linalg.norm(recon - WB, 2) <= 1e-10 * np.linalg.norm(WB, 2)


def test_boundary_trace_of_interpolant_is_exact():
    rng = np.random.default_rng(6)
    for _ in range(100):
        N = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        u = rng.normal(size=N * d) + 1j * rng.normal(size=N * d)
        v = rng.normal(size=N * d) + 1j * rng.normal(size=N * d)
        # derivatives 0..N-1 at z = 1 and z = 0, order blocks of size d
        traces = boundary_interpolant(u, v, d=d).derivatives([1.0, 0.0], N - 1)
        np.testing.assert_allclose(traces[:, 0].ravel(), u, atol=1e-12)
        np.testing.assert_allclose(traces[:, 1].ravel(), v, atol=1e-12)


def test_port_variables_equal_traces():
    v = np.array([1.0, 2.0])
    pv = port_variables(BoundaryTrace(phi1=v, phi0=v), np.eye(2))
    np.testing.assert_allclose(pv.f_boundary, 0.0, atol=1e-15)
    np.testing.assert_allclose(pv.e_boundary, np.sqrt(2) * v)


def test_port_variables_hand_product():
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    pv = port_variables(BoundaryTrace(phi1=np.array([1.0, 1.0]),
                                      phi0=np.array([0.0, 1.0])), Q)
    np.testing.assert_allclose(pv.f_boundary, np.array([0.0, 1.0]) / np.sqrt(2))
    np.testing.assert_allclose(pv.e_boundary, np.array([1.0, 2.0]) / np.sqrt(2))


def test_port_variables_opposite_traces():
    w = np.array([0.5, -2.0])
    pv = port_variables(BoundaryTrace(phi1=w, phi0=-w), np.eye(2))
    np.testing.assert_allclose(pv.f_boundary, np.sqrt(2) * w)
    np.testing.assert_allclose(pv.e_boundary, 0.0, atol=1e-15)


def test_q_is_decided_once(monkeypatch):
    import phwell.model as model_mod
    from phwell.corpus import CORPUS

    sys = CORPUS["path_graph_d8"].system()
    calls = []
    real = model_mod._check_q
    monkeypatch.setattr(model_mod, "_check_q",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    derive_boundary_operator(sys)
    assert calls == []  # validate_system already decided Q
    # a raw Q is still checked
    with pytest.raises(SingularQ):
        split_boundary_operator(np.eye(2, 4), np.diag([1.0, 1e-14]))
    assert len(calls) == 1


def test_derive_boundary_operator_reconstruction():
    sys = validate_system(wave_raw())
    bop = derive_boundary_operator(sys)
    recon = np.hstack([bop.W1 @ bop.Q + bop.W2, -bop.W1 @ bop.Q + bop.W2])
    np.testing.assert_allclose(recon, sys.WB_hat, atol=1e-12)
    V = extract_v(bop.W1, bop.W2).V
    assert V is not None
    # factorization identity 0.5 (W1+W2) [I+V, I-V] = [W1, W2]
    T = bop.W1 + bop.W2
    eye = np.eye(2)
    np.testing.assert_allclose(0.5 * T @ (eye + V), bop.W1, atol=1e-12)
    np.testing.assert_allclose(0.5 * T @ (eye - V), bop.W2, atol=1e-12)


@pytest.mark.parametrize("interval", ["unit_interval", "half_line"])
def test_validated_p1_is_exactly_hermitian(interval):
    # accepted within tau_struct and stored as its Hermitian part, so a
    # later symmetry check passes at any threshold, zero included
    rng = np.random.default_rng(31)
    for _ in range(20):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        E = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        P1 = A + A.conj().T + 1e-7 * E
        raw = wave_raw(interval=interval, field="complex", P=[np.zeros((2, 2)), P1],
                       tolerances=Tolerances(tau_struct=1e-5))
        if interval == "half_line":
            raw["WB_hat"] = np.array([[1.0, 1.0]])
        P = validate_system(raw).P[1]
        assert np.array_equal(P, P.conj().T)
        np.testing.assert_allclose(P, P1, atol=1e-6)
        numlin.hermitian_eigendecomposition(P, 0.0)
        numlin.definiteness(P, 0.0)


def test_validated_p2_is_exactly_skew_hermitian():
    rng = np.random.default_rng(33)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    raw = wave_raw(N=2, field="complex", WB_hat=np.eye(4, 8),
                   P=[np.zeros((2, 2)), np.diag([1.0, -1.0]), A - A.conj().T + 1e-9 * A],
                   tolerances=Tolerances(tau_struct=1e-6))
    P2 = validate_system(raw).P[2]
    assert np.array_equal(P2, -P2.conj().T)
    numlin.require_hermitian(1j * P2, 0.0)


def test_exactly_hermitian_p_is_stored_bit_for_bit():
    rng = np.random.default_rng(32)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    P1, P2 = 0.5 * (A + A.conj().T), 0.5 * (A - A.conj().T)
    sys = validate_system(wave_raw(N=2, d=3, field="complex", WB_hat=np.eye(6, 12),
                                   P=[np.zeros((3, 3)), P1, P2],
                                   H=HamiltonianDensity.constant(np.eye(3))))
    assert np.array_equal(sys.P[1], P1) and np.array_equal(sys.P[2], P2)


@pytest.mark.parametrize("interval,error", [("unit_interval", SingularPN),
                                            ("half_line", SingularP1)])
def test_p1_rank_threshold_is_one_rule(interval, error):
    # |w|min / |w|max = 5e-10 is above tau_rank = 1e-10: invertible on both
    # intervals, though |w|min is below tau_rank itself; 5e-11 is below it
    tol = Tolerances(tau_rank=1e-10, check=1e-10)
    raw = wave_raw(interval=interval, P=[np.zeros((2, 2)), np.diag([0.1, -5e-11])],
                   tolerances=tol)
    if interval == "half_line":
        raw["WB_hat"] = np.array([[0.0, 1.0]])
    validate_system(raw)
    assert decompose_P1(raw["P"][1], tol.tau_rank).n2 == 1
    raw["P"] = [np.zeros((2, 2)), np.diag([0.1, -5e-12])]
    with pytest.raises(error) as exc:
        validate_system(raw)
    assert exc.value.path == "P[1]"
    with pytest.raises(SingularP1):
        decompose_P1(raw["P"][1], tol.tau_rank)


def test_package_exports_resolve():
    import phwell

    assert len(set(phwell.__all__)) == len(phwell.__all__)
    assert all(hasattr(phwell, name) for name in phwell.__all__)
    # no longer exported; port_variables and its dataclasses stay in phwell.model
    for name in ("boundary_trace", "port_variables", "BoundaryTrace",
                 "PortVariables", "OrderError"):
        assert name not in phwell.__all__
        assert not hasattr(phwell, name)
