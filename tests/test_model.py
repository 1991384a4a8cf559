import json
import re

import numpy as np
import pytest

from phwell import (
    HamiltonianDensity,
    Tolerances,
    build_q,
    derive_boundary_operator,
    extract_v,
    numlin,
    system_from_dict,
    system_to_dict,
    validate_system,
)
from phwell.cli import main
from phwell.corpus import (
    CORPUS,
    HALFLINE,
    INTERVAL_RECT,
    INTERVAL_SQUARE,
    corpus_names,
    random_system,
)
from phwell.errors import (
    HNotCoercive,
    PhwellError,
    ShapeError,
    SingularP1,
    SingularPN,
    SingularQ,
    StructureError,
    ValidationError,
)
from phwell.halfline import (
    BoundaryFactorization,
    decompose_P1,
    factorize_boundary,
    unit_decomposition,
)
from phwell.model import port_variables
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
    {"N": np.bool_(True)},
    {"d": np.float64(2.0)},
])
def test_validate_requires_int_n_and_d(over):
    with pytest.raises(ShapeError, match="N and d must be positive integers"):
        validate_system(wave_raw(**over))


@pytest.mark.parametrize("N, d", [(np.int64(1), 2), (1, np.int32(2)),
                                  (np.uint8(1), np.int64(2))])
def test_validate_stores_numpy_integer_n_and_d_as_int(N, d):
    sys = validate_system(wave_raw(N=N, d=d))
    assert type(sys.order_N) is int and type(sys.dim_d) is int
    assert (sys.order_N, sys.dim_d) == (1, 2)
    assert json.loads(json.dumps(system_to_dict(sys)))["N"] == 1


def _q_systems():
    yield from (CORPUS[name].system() for name in corpus_names())
    for klass in (INTERVAL_SQUARE, INTERVAL_RECT, HALFLINE):
        yield from (random_system(seed, klass=klass) for seed in range(50))


def test_system_keeps_its_q_read_only_and_equal_to_build_q():
    for sys in _q_systems():
        assert not sys.Q.flags.writeable
        assert sys.Q.dtype == complex
        assert np.array_equal(sys.Q, build_q(sys.P[1:]))
        with pytest.raises(ValueError):
            sys.Q[0, 0] = 1.0


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


def _without(key):
    raw = wave_raw()
    del raw[key]
    return raw


@pytest.mark.parametrize("raw,path", [
    (_without("WB_hat"), "WB_hat"),  # was KeyError
    (wave_raw(tolerances={"bogus": 1.0}), "tolerances"),  # was TypeError
    (wave_raw(tolerances="x"), "tolerances"),  # was AttributeError
    (wave_raw(P=5), "P"),  # was TypeError
    (wave_raw(H=[[1.0], [1.0, 2.0]]), "H"),  # was numpy's ValueError
    # each was read as "no tolerances": the default Tolerances, silently
    *((wave_raw(tolerances=falsy), "tolerances")
      for falsy in (0, False, "", [], (), 0.0)),
])
def test_validate_rejects_malformed_raw_input(raw, path):
    with pytest.raises(ValidationError) as exc:
        validate_system(raw)
    assert exc.value.path == path


@pytest.mark.parametrize("P, kind", [
    ("ab", "str"),  # two items, as N+1 = 2 matrices would have
    ("abc", "str"),
    (b"ab", "bytes"),
    ({"a": np.zeros((2, 2)), "b": np.eye(2)}, "dict"),
], ids=["str of N+1", "str", "bytes", "mapping"])
def test_p_must_be_a_list_of_matrices(P, kind):
    # formerly P[0] must be a matrix, or "got 3", which said nothing of a list
    with pytest.raises(ShapeError) as exc:
        validate_system(wave_raw(P=P))
    assert exc.value.path == "P"
    assert str(exc.value).endswith(f"P must be a list of N+1 = 2 matrices, got {kind}")


def _two_cell_H(b):
    return HamiltonianDensity.piecewise([b], [np.eye(2), 4.0 * np.eye(2)])


@pytest.mark.parametrize("b", [np.nan, np.inf, 1.5, -0.5, 0.0, 1.0])
def test_validate_rejects_breakpoints_outside_the_unit_interval(b):
    # formerly accepted with h_max_eig = 4 from a cell that never applies
    with pytest.raises(ShapeError, match="H breakpoints"):
        validate_system(wave_raw(H=_two_cell_H(b)))


@pytest.mark.parametrize("b", [0.5, [[0.5]]])
def test_piecewise_rejects_breakpoints_that_are_not_a_list(b):
    # a scalar formerly ended in numpy's bare "diff requires input that is
    # at least one dimensional"
    with pytest.raises(ShapeError, match="H breakpoints must be a list"):
        HamiltonianDensity.piecewise(b, [np.eye(1), 2 * np.eye(1)])


@pytest.mark.parametrize("make", [
    lambda: HamiltonianDensity.constant([1.0, 2.0]),  # was IndexError
    lambda: HamiltonianDensity.grid([np.eye(2), np.eye(1)]),  # was numpy's ValueError
    lambda: HamiltonianDensity.piecewise([0.5], [np.eye(2), np.eye(1)]),
], ids=["constant", "grid", "piecewise"])
def test_density_rejects_samples_that_do_not_stack(make):
    with pytest.raises(ShapeError, match="H samples must be matrices of one shape"):
        make()


def test_halfline_breakpoints_may_lie_beyond_one():
    # simulate reads H on [0, L], so a cell past z = 1 applies there
    sys = validate_system(wave_raw(interval="half_line", H=_two_cell_H(1.5),
                                   WB_hat=np.array([[-0.25, 0.75]])))
    assert sys.h_max_eig == 4.0
    np.testing.assert_array_equal(sys.H.at(2.0), 4.0 * np.eye(2))


def _densities():
    rng = np.random.default_rng(4)
    G = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    return [
        HamiltonianDensity.constant(np.diag([1.0, 2.0])),
        HamiltonianDensity.piecewise([0.3, 0.7], [np.eye(2), 2.0 * np.eye(2),
                                                 4.0 * np.eye(2)]),
        HamiltonianDensity.grid(G @ G.conj().transpose(0, 2, 1) + np.eye(2)),
    ]


@pytest.mark.parametrize("H", _densities(), ids=lambda H: H.kind)
def test_density_at_an_array_stacks_the_point_values(H):
    # breakpoints 0.3 and 0.7, grid nodes 0.25 and 0.75, and points past both ends
    z = np.array([[-0.25, 0.0, 0.1, 0.25, 0.3, 0.5],
                  [0.7, 0.75, 0.95, 1.0, 1.5, 7.0]])
    want = np.stack([H.at(float(p)) for p in z.ravel()]).reshape(z.shape + (2, 2))
    np.testing.assert_array_equal(H.at(z), want)
    np.testing.assert_array_equal(H.at(z[0]), want[0])
    assert H.at(0.5).shape == (2, 2)


@pytest.mark.parametrize("H", _densities(), ids=lambda H: H.kind)
@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf, np.array([0.5, np.nan])])
def test_density_at_rejects_a_non_finite_point(H, z):
    # the grid kind failed with a bare ValueError from int(nan), the others not at all
    with pytest.raises(PhwellError, match="finite points"):
        H.at(z)


def test_density_point_values():
    pw, grid = _densities()[1:]
    np.testing.assert_array_equal(pw.at(0.3), 2.0 * np.eye(2))  # right of the break
    np.testing.assert_array_equal(pw.at(0.2999), np.eye(2))
    np.testing.assert_array_equal(pw.at(9.0), 4.0 * np.eye(2))
    m = grid.matrices
    np.testing.assert_array_equal(grid.at(-1.0), m[0])
    np.testing.assert_array_equal(grid.at(2.0), m[-1])
    np.testing.assert_allclose(grid.at(0.125), 0.5 * (m[0] + m[1]), rtol=1e-15)


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


def split(WB, Q):
    """(W1, W2) of derive_boundary_operator for the N = 1 system with P1 = Q."""
    n = Q.shape[0]
    sys = validate_system(wave_raw(field="complex", d=n, P=[np.zeros((n, n)), Q],
                                   H=HamiltonianDensity.constant(np.eye(n)),
                                   WB_hat=WB))
    assert np.array_equal(sys.Q, Q)
    bop = derive_boundary_operator(sys)
    return bop.W1, bop.W2


def test_split_path_graph():
    d = 6
    L = shift(d)
    W1, W2 = split(np.hstack([np.eye(d), -L]), np.eye(d))
    np.testing.assert_allclose(W1, 0.5 * (np.eye(d) + L), atol=1e-14)
    np.testing.assert_allclose(W2, 0.5 * (np.eye(d) - L), atol=1e-14)


def test_split_q_minus_q_row():
    Q = np.array([[2.0, 1.0], [1.0, 3.0]])
    WB = np.hstack([Q, -Q])
    W1, W2 = split(WB, Q)
    np.testing.assert_allclose(W1, np.eye(2), atol=1e-13)
    np.testing.assert_allclose(W2, np.zeros((2, 2)), atol=1e-13)


def test_split_pure_effort_row():
    # WB_hat = [0 I]: W1 = -Q^{-1}/2, W2 = I/2 (verified by reconstruction)
    Q = np.array([[2.0, 1.0], [1.0, 3.0]])
    WB = np.hstack([np.zeros((2, 2)), np.eye(2)])
    W1, W2 = split(WB, Q)
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
        W1, W2 = split(WB, Q)
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
    f, e = port_variables(v, v, np.eye(2))
    np.testing.assert_allclose(f, 0.0, atol=1e-15)
    np.testing.assert_allclose(e, np.sqrt(2) * v)


def test_port_variables_hand_product():
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    f, e = port_variables(np.array([1.0, 1.0]), np.array([0.0, 1.0]), Q)
    np.testing.assert_allclose(f, np.array([0.0, 1.0]) / np.sqrt(2))
    np.testing.assert_allclose(e, np.array([1.0, 2.0]) / np.sqrt(2))


def test_port_variables_opposite_traces():
    w = np.array([0.5, -2.0])
    f, e = port_variables(w, -w, np.eye(2))
    np.testing.assert_allclose(f, np.sqrt(2) * w)
    np.testing.assert_allclose(e, 0.0, atol=1e-15)


def test_q_is_decided_once(monkeypatch):
    import phwell.model as model_mod

    sys = CORPUS["path_graph_d8"].system()
    calls = []
    real = model_mod._check_q
    monkeypatch.setattr(model_mod, "_check_q",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    assert derive_boundary_operator(sys).Q is sys.Q
    assert calls == []  # validate_system already decided Q


def test_an_omitted_tol_is_the_numlin_default(monkeypatch):
    # PHWELL_TOL sets Tolerances; the algebra primitives' own default stays
    # numlin.DEFAULT_TOL, so a 1e-6 singular-value ratio is invertible
    monkeypatch.setenv("PHWELL_TOL", "1e-3")
    fact = factorize_boundary(np.diag([1.0, 1e-6]), unit_decomposition(0, 2))
    assert isinstance(fact, BoundaryFactorization)


def test_derive_boundary_operator_refuses_a_half_line_system():
    with pytest.raises(ShapeError, match="unit_interval"):
        derive_boundary_operator(CORPUS["wave_halfline_u05"].system())


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
    assert "derive_boundary_operator" in phwell.__all__
    # removed or no longer exported; port_variables stays in phwell.model
    for name in ("boundary_trace", "port_variables", "split_boundary_operator",
                 "BoundaryTrace", "PortVariables", "OrderError"):
        assert name not in phwell.__all__
        assert not hasattr(phwell, name)
    for name in ("split_boundary_operator", "BoundaryTrace", "PortVariables"):
        assert not hasattr(phwell.model, name)


@pytest.mark.parametrize("H", [
    np.array([[1.0, 0.5j], [-0.5j, 1.0]]),
    HamiltonianDensity.piecewise([0.5], [np.eye(2), [[1.0, 0.5j], [-0.5j, 1.0]]]),
])
def test_validate_rejects_a_complex_h_on_a_real_field(H):
    # formerly accepted; JSON already refused it
    with pytest.raises(StructureError, match=r"real-field system has complex H") as exc:
        validate_system(wave_raw(H=H))
    assert exc.value.path == "H"
    assert validate_system(wave_raw(H=H, field="complex")).h_min_eig == pytest.approx(0.5)


@pytest.mark.parametrize("interval,width", [("unit_interval", 4), ("half_line", 2)])
def test_validate_reads_an_empty_boundary_list_as_no_rows(interval, width):
    # formerly a ShapeError; JSON already read [] as k = 0 rows
    sys = validate_system(wave_raw(interval=interval, WB_hat=[]))
    assert sys.WB_hat.shape == (0, width) and sys.n_conditions == 0


# ---------------------------------------------------------------------------
# Both front ends agree: validate_system on the Python form of a
# description, system_from_dict and `phwell analyze` on its JSON form.


def _json(value):
    """The JSON form of a wave_raw value: matrices as rows, [re, im] pairs."""
    if isinstance(value, HamiltonianDensity):
        return {"kind": "constant", "matrix": _json(value.matrices[0])}
    if isinstance(value, np.ndarray):
        return [_json(row) for row in value] if value.ndim else _json(value.item())
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag] if value.imag else value.real
    return value


def _removed(key):
    return lambda raw: raw.pop(key)


_COMPLEX_P1 = np.array([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])


@pytest.mark.parametrize("change,error,path", [
    (_removed("N"), ValidationError, "N"),
    (_removed("d"), ValidationError, "d"),
    (_removed("P"), ValidationError, "P"),
    (_removed("H"), ValidationError, "H"),
    (_removed("WB_hat"), ValidationError, "WB_hat"),
    ({"N": True}, ShapeError, "N"),
    ({"N": 0}, ShapeError, "N"),
    ({"N": 1.5}, ShapeError, "N"),
    ({"P": [np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)]}, ShapeError, "P"),
    ({"P": [np.zeros((2, 2))]}, ShapeError, "P"),
    ({"P": "ab"}, ShapeError, "P"),
    ({"P": {"a": [[0.0, 0.0], [0.0, 0.0]], "b": [[0.0, 1.0], [1.0, 0.0]]}},
     ShapeError, "P"),
    ({"tolerances": []}, ValidationError, "tolerances"),
    ({"tolerances": {"bogus": 1}}, ValidationError, "tolerances"),
    ({"P": [np.zeros((2, 2)), _COMPLEX_P1]}, StructureError, "P[1]"),
    ({"H": HamiltonianDensity.constant([[1.0, 0.5j], [-0.5j, 1.0]])},
     StructureError, "H"),
    ({"WB_hat": np.array([[0.7j, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])},
     StructureError, "WB_hat"),
    ({"WB_hat": np.zeros((2, 3))}, ShapeError, "WB_hat"),
    ({"WB_hat": []}, None, None),  # k = 0 rows of width 2Nd, accepted
], ids=["no N", "no d", "no P", "no H", "no WB_hat", "N True", "N 0", "N 1.5",
        "P one too many", "P one too few", "P str", "P object", "tolerances []",
        "tolerances bogus", "complex P", "complex H", "complex WB_hat", "WB_hat width",
        "WB_hat []"])
def test_both_front_ends_decide_alike(change, error, path, tmp_path, capsys):
    raw = wave_raw()
    if callable(change):
        change(raw)
    else:
        raw.update(change)
    doc = {key: _json(value) for key, value in raw.items()}
    outcomes = []
    for front_end, form in ((validate_system, raw), (system_from_dict, doc)):
        try:
            sys = front_end(form)
        except PhwellError as exc:
            outcomes.append((type(exc), exc.path))
        else:
            assert sys.WB_hat.shape[1] == 4
            outcomes.append((None, None))
    assert outcomes == [(error, path)] * 2
    config = tmp_path / "case.json"
    config.write_text(json.dumps(doc))
    assert main(["analyze", str(config)]) == (0 if error is None else 2)
    assert ("error: " in capsys.readouterr().err) == (error is not None)
