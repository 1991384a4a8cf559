import dataclasses

import numpy as np
import pytest

from phwell import HamiltonianDensity, Tolerances, numlin, validate_system
from phwell.corpus import build_path_graph, build_transport, shift_matrix
from phwell.interval import (
    BoundaryAlgebra,
    analyze_interval,
    check_injective_psd,
    check_kernel_dissipativity,
    check_surjective_psd,
    check_unitary_conditions,
    check_v_contraction,
    extract_v,
    kernel_energy_form,
    range_containment,
    sigma_form,
)
from phwell.model import BoundaryOperator, build_q_for_system, split_boundary_operator

NO_P0 = np.zeros((1, 1))
TOL = Tolerances(check=numlin.DEFAULT_TOL)


def algebra_from_split(W1, W2, re_P0=NO_P0):
    """Condition inputs for a given split, realised with Q = I."""
    W1 = np.asarray(W1, dtype=complex)
    W2 = np.asarray(W2, dtype=complex)
    bop = BoundaryOperator(np.hstack([W1 + W2, W2 - W1]), np.eye(W1.shape[1]), W1, W2)
    return BoundaryAlgebra.of(bop, re_P0, TOL)


def algebra(WB_hat, Q, re_P0=NO_P0):
    """Condition inputs for a raw boundary operator and Q."""
    W1, W2 = split_boundary_operator(WB_hat, Q)
    bop = BoundaryOperator(np.asarray(WB_hat, dtype=complex), np.asarray(Q, dtype=complex),
                           W1, W2)
    return BoundaryAlgebra.of(bop, re_P0, TOL)


def algebra_from_v(V):
    """Condition inputs whose contraction factor is V (W1+W2 = I)."""
    eye = np.eye(np.asarray(V).shape[0])
    return algebra_from_split(0.5 * (eye + V), 0.5 * (eye - V))


def wave_system(k=0.7):
    return validate_system({
        "field": "real",
        "interval": "unit_interval",
        "N": 1,
        "d": 2,
        "P": [np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])],
        "H": HamiltonianDensity.constant(np.eye(2)),
        "WB_hat": np.array([[k, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
    })


def test_kernel_dissipativity_damped_wave():
    sys = wave_system(0.7)
    Q = build_q_for_system(sys)
    res = check_kernel_dissipativity(algebra(sys.WB_hat, Q, sys.re_P0()))
    assert res.holds
    # hand kernel (1, -k, 0, 0), (0, 0, 0, 1): form value -2k|a|^2 on the first
    G = kernel_energy_form(numlin.kernel_basis(sys.WB_hat, 1e-10), Q)
    assert G.shape == (2, 2)
    z = np.array([1.0, -0.7, 0.0, 0.0], dtype=complex)
    B = np.zeros((4, 4), dtype=complex)
    B[:2, :2] = Q
    B[2:, 2:] = -Q
    assert np.real(z @ B @ z) == pytest.approx(-2 * 0.7)
    assert res.diagnostics["max_eig_kernel_form"] <= 1e-12


def test_kernel_dissipativity_sign_flip():
    res = check_kernel_dissipativity(
        algebra(wave_system(-0.7).WB_hat, np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert not res.holds


def test_kernel_dissipativity_trivial_kernel():
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = check_kernel_dissipativity(algebra(np.eye(4), Q))
    assert res.holds
    assert res.diagnostics["kernel_dim"] == 0.0


def test_kernel_dissipativity_transport_wrong_end():
    # x(0) = 0 for left-moving transport: u^*Qu = |a|^2 > 0 on the kernel
    res = check_kernel_dissipativity(algebra(np.array([[0.0, 1.0]]), np.eye(1)))
    assert not res.holds
    assert res.diagnostics["max_eig_kernel_form"] == pytest.approx(1.0)


def path_w1w2(d):
    L = shift_matrix(d)
    return 0.5 * (np.eye(d) + L), 0.5 * (np.eye(d) - L)


def test_injective_psd_path_graph():
    d = 8
    W1, W2 = path_w1w2(d)
    res = check_injective_psd(algebra_from_split(W1, W2))
    assert res.holds
    sf = sigma_form(W1, W2)
    expected = np.zeros((d, d))
    expected[-1, -1] = 0.5
    np.testing.assert_allclose(sf, expected, atol=1e-14)


def test_injective_psd_trivial():
    res = check_injective_psd(algebra_from_split(np.eye(3), np.zeros((3, 3))))
    assert res.holds


def test_injective_psd_shift_counterexample():
    # truncation of W_B = [I-L, -I-L]: W1+W2 = -L is singular
    d = 8
    L = shift_matrix(d)
    W1, W2 = 0.5 * (np.eye(d) - L), -0.5 * (np.eye(d) + L)
    res = check_injective_psd(algebra_from_split(W1, W2))
    assert not res.holds
    assert res.diagnostics["smin_w1_plus_w2"] <= 1e-12


def test_extract_v_examples():
    d = 5
    W1, W2 = path_w1w2(d)
    ext = extract_v(W1, W2)
    np.testing.assert_allclose(ext.V, shift_matrix(d), atol=1e-13)
    np.testing.assert_allclose(extract_v(np.eye(3), np.zeros((3, 3))).V, np.eye(3))
    np.testing.assert_allclose(extract_v(0.5 * np.eye(3), 0.5 * np.eye(3)).V,
                               np.zeros((3, 3)), atol=1e-14)


def test_extract_v_singular_sum():
    ext = extract_v(np.array([[1.0]]), np.array([[-1.0]]))
    assert ext.V is None
    assert "singular" in ext.reason


def test_v_contraction_norms():
    assert check_v_contraction(algebra_from_v(shift_matrix(6))).holds  # ||L|| = 1 exactly
    assert not check_v_contraction(algebra_from_v(2.0 * np.eye(3))).holds
    assert check_v_contraction(algebra_from_v(np.zeros((3, 3)))).holds


def test_surjective_psd_cases():
    d = 6
    L = shift_matrix(d)
    sys = build_path_graph(d)
    assert check_surjective_psd(algebra(sys.WB_hat, np.eye(d))).holds
    # counterexample truncation: surjectivity holds but PSD fails
    WBc = np.hstack([-L, -np.eye(d)])
    W1c, W2c = split_boundary_operator(WBc, np.eye(d))
    np.testing.assert_allclose(W1c, 0.5 * (np.eye(d) - L), atol=1e-14)
    np.testing.assert_allclose(W2c, -0.5 * (np.eye(d) + L), atol=1e-14)
    res = check_surjective_psd(algebra(WBc, np.eye(d)))
    assert not res.holds
    assert res.diagnostics["min_eig_sigma_form"] < -0.4


def test_unitary_conditions_path_graph_fails():
    d = 8
    sys = build_path_graph(d)
    Q = np.eye(d)
    results = {r.condition_id: r for r in
               check_unitary_conditions(algebra(sys.WB_hat, Q, sys.re_P0()))}
    assert not results["T3.3"].holds  # -W1+W2 = -L singular
    assert results["T3.3"].diagnostics["smin_w2_minus_w1"] <= 1e-12
    assert not results["T3.5"].holds
    assert not results["T3.4"].holds  # V = L is not a co-isometry
    assert results["T3.4"].diagnostics["v_norm"] == pytest.approx(1.0)
    assert not results["C3.6"].holds and not results["C3.7"].holds


def test_unitary_conditions_periodic():
    sys = validate_system({
        "field": "real", "interval": "unit_interval", "N": 1, "d": 1,
        "P": [np.zeros((1, 1)), np.eye(1)],
        "H": HamiltonianDensity.constant(np.eye(1)),
        "WB_hat": np.array([[1.0, -1.0]]),
    })
    v = analyze_interval(sys)
    assert v.consensus == "contraction"
    assert v.unitary is True
    assert not v.discrepancy


def test_unitary_kernel_form_is_zero_for_periodic():
    G = kernel_energy_form(numlin.kernel_basis(np.array([[1.0, -1.0]]), 1e-10), np.eye(1))
    assert G.shape == (1, 1)
    np.testing.assert_allclose(G, np.zeros((1, 1)), atol=1e-14)


def test_analyze_wave_damper_family():
    assert analyze_interval(wave_system(0.7)).consensus == "contraction"
    bad = analyze_interval(wave_system(-0.7))
    assert bad.consensus == "not_contraction"
    assert bad.unitary is False
    assert not bad.discrepancy


def test_analyze_path_graph_full():
    v = analyze_interval(build_path_graph(8))
    assert v.consensus == "contraction"
    assert v.unitary is False
    assert not v.discrepancy
    assert v["T1.4"].diagnostics["v_norm"] == pytest.approx(1.0, abs=1e-12)
    assert v["RANBED"].holds


def test_analyze_non_square_dissipative_only():
    # clamp every trace: k = 2Nd != Nd, kernel trivial -> dissipative evidence only
    sys = validate_system({
        "field": "real", "interval": "unit_interval", "N": 1, "d": 1,
        "P": [np.zeros((1, 1)), np.eye(1)],
        "H": HamiltonianDensity.constant(np.eye(1)),
        "WB_hat": np.eye(2),
    })
    v = analyze_interval(sys)
    assert v.consensus == "dissipative_only"
    assert v.unitary is None
    assert not v["T1.3"].applicable
    assert v["T1.5"].holds
    # internal pieces stay numerically consistent: sigma form indefinite
    from phwell.model import derive_boundary_operator

    bop = derive_boundary_operator(sys)
    np.testing.assert_allclose(sigma_form(bop.W1, bop.W2), np.diag([0.5, -0.5]),
                               atol=1e-14)


def test_analyze_non_square_not_contraction():
    # single condition killing the dissipative direction
    sys = build_transport(inflow_zero=False)
    v = analyze_interval(sys)
    assert v.consensus == "not_contraction"


def test_scale_invariance_of_verdicts():
    rng = np.random.default_rng(9)
    from phwell.corpus import random_system

    for i in range(20):
        sys = random_system(int(rng.integers(0, 2**31 - 1)), klass="interval_square")
        v1 = analyze_interval(sys)
        k = sys.WB_hat.shape[0]
        M = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        while np.linalg.cond(M) > 1e3:
            M = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        v2 = analyze_interval(dataclasses.replace(sys, WB_hat=M @ sys.WB_hat))
        assert v1.consensus == v2.consensus
        assert v1.unitary == v2.unitary
        assert not v2.discrepancy


def test_rank_deficient_rows_warn_and_fail_consistently():
    # duplicated rows: square but rank deficient; everything must agree on "no"
    sys = validate_system({
        "field": "real", "interval": "unit_interval", "N": 1, "d": 2,
        "P": [np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])],
        "H": HamiltonianDensity.constant(np.eye(2)),
        "WB_hat": np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]),
    })
    v = analyze_interval(sys)
    assert v.warnings
    assert v.consensus == "not_contraction"
    assert not v.discrepancy


def test_one_threshold_keeps_discrepancy_a_bug_signal():
    # A row scaling of a plain contraction: s_min / s_max of W1+W2 is 1e-8,
    # between tau_rank and check.  Deciding the existence of V with tau_rank
    # while T1.3 decides injectivity with check made the equivalent
    # conditions disagree.
    raw = {
        "field": "real", "interval": "unit_interval", "N": 1, "d": 2,
        "P": [np.zeros((2, 2)), np.eye(2)],
        "H": HamiltonianDensity.constant(np.eye(2)),
        "WB_hat": np.diag([1.0, 1e-8]) @ np.hstack([np.eye(2), 0.5 * np.eye(2)]),
    }
    split = analyze_interval(validate_system(
        dict(raw, tolerances=Tolerances(tau_rank=1e-6, check=1e-12))))
    assert split.consensus == "contraction"
    assert not split.discrepancy
    assert split["T1.4"].holds and split["C2.7"].holds
    default = analyze_interval(validate_system(raw))
    assert default.consensus == "contraction"
    assert default.unitary is False
    assert not default.discrepancy


def test_analyze_without_boundary_conditions():
    # k = 0: the kernel is every trace, and u^*Qu - y^*Qy is indefinite
    sys = validate_system({
        "field": "real", "interval": "unit_interval", "N": 1, "d": 1,
        "P": [np.zeros((1, 1)), np.eye(1)],
        "H": HamiltonianDensity.constant(np.eye(1)),
        "WB_hat": np.zeros((0, 2)),
    })
    v = analyze_interval(sys)
    assert v.consensus == "not_contraction"
    assert v["T1.5"].diagnostics["kernel_dim"] == 2.0
    assert not v.warnings
    assert not v.discrepancy


@pytest.mark.parametrize("W1,W2", [
    (np.diag([1.0, 2.0, 0.0]), np.diag([0.5, 0.0, 0.0])),  # square, singular
    (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]),
     np.array([[0.0, 1.0], [0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])),  # tall
    (np.array([[1.0, 0.0, 2.0]]), np.array([[0.0, 3.0, 0.0]])),  # wide
])
def test_ranbed_ranks_w1_plus_w2_with_one_svd(W1, W2, monkeypatch):
    T = W1 + W2
    inputs = []
    svd = np.linalg.svd

    def recording(M, *args, **kwargs):
        inputs.append(np.array(M))
        return svd(M, *args, **kwargs)

    private = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # numpy 1.x
    monkeypatch.setattr(np.linalg, "svd", recording)
    monkeypatch.setattr(private, "svd", recording)
    alg = algebra_from_split(W1, W2)
    res = range_containment(alg.rank_w1_plus_w2, alg.rank_wb_hat)
    monkeypatch.undo()
    assert sum(m.shape == T.shape and np.array_equal(m, T) for m in inputs) == 1
    r_t = numlin.numerical_rank(T, TOL.check)
    r_td = numlin.numerical_rank(np.hstack([T, W1 - W2]), TOL.check)
    assert res.diagnostics == {"rank_w1_plus_w2": float(r_t), "rank_augmented": float(r_td)}
    assert res.holds == (r_td == r_t)
