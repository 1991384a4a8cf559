import numpy as np
import pytest

from phwell import HamiltonianDensity, validate_system
from phwell.corpus import CORPUS, build_transport, build_wave, random_system
from phwell.errors import PhwellError
from phwell.interval import analyze_interval
from phwell.simulator import (
    ORACLE_LAYER_WIDTHS,
    _oracle_gram,
    _rayleigh_split,
    boundary_form_value,
    boundary_interpolant,
    dissipativity_oracle,
    interior_probe,
    quadrature_rayleigh,
)


def make_system(N, d, P, WB, field="real", P0=None):
    mats = [P0 if P0 is not None else np.zeros((d, d))] + list(P)
    return validate_system({
        "field": field, "interval": "unit_interval", "N": N, "d": d,
        "P": mats, "H": HamiltonianDensity.constant(np.eye(d)),
        "WB_hat": WB,
    })


def test_interpolant_plateaus_and_traces():
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 4.0])
    x = boundary_interpolant(u, v, eps=0.25, d=2)
    np.testing.assert_allclose(x.value(1.0)[0], u, atol=1e-14)
    np.testing.assert_allclose(x.value(0.0)[0], v, atol=1e-14)
    # plateau regions carry the pure polynomials
    np.testing.assert_allclose(x.value(0.8)[0], u, atol=1e-14)
    np.testing.assert_allclose(x.value(0.2)[0], v, atol=1e-14)
    # the two cutoff supports do not overlap
    np.testing.assert_allclose(x.value(0.5)[0], 0.0, atol=1e-14)


def test_interpolant_first_derivative_target():
    # N=2, d=1: second trace entry prescribes the first derivative
    u = np.array([1.5, -2.0])
    v = np.array([0.0, 0.0])
    x = boundary_interpolant(u, v, d=1)
    at1, at0 = x.derivatives([1.0, 0.0], 1)[:, :, 0].T
    assert at1[0] == pytest.approx(1.5)
    assert at1[1] == pytest.approx(-2.0)
    assert at0[0] == pytest.approx(0.0, abs=1e-14)


def test_interpolant_zero_targets_vanish():
    x = boundary_interpolant(np.zeros(3), np.zeros(3), d=1)
    zs = np.linspace(0, 1, 17)
    np.testing.assert_allclose(x.derivatives(zs, 2), 0.0, atol=1e-15)


def test_interpolant_eps_validation():
    with pytest.raises(ValueError):
        boundary_interpolant([1.0], [1.0], eps=0.3)


def test_quadrature_wave_hand_value():
    # traces Phi1=(1,1), Phi0=(0,1): value = (x(1)*P1x(1) - x(0)*P1x(0))/2 = 1
    sys = make_system(1, 2, [np.array([[0.0, 1.0], [1.0, 0.0]])], np.zeros((2, 4)))
    # a 0.05 layer gets 512 nodes from the node rule (256 at the default
    # width 0.25, accurate to about 5e-10 here)
    x = boundary_interpolant([1.0, 1.0], [0.0, 1.0], eps=0.05, d=2)
    assert quadrature_rayleigh(sys, x) == pytest.approx(1.0, abs=1e-11)


def test_quadrature_equal_traces_conserves():
    sys = make_system(1, 2, [np.array([[0.0, 1.0], [1.0, 0.0]])], np.zeros((2, 4)))
    x = boundary_interpolant([0.3, -1.0], [0.3, -1.0], d=2)
    assert quadrature_rayleigh(sys, x) == pytest.approx(0.0, abs=1e-11)


def test_quadrature_pure_zeroth_order():
    # P0 = -I and constant state e1: value = -||x||^2 = -1
    sys = make_system(1, 2, [np.array([[0.0, 1.0], [1.0, 0.0]])],
                      np.zeros((2, 4)), P0=-np.eye(2))
    x = boundary_interpolant([1.0, 0.0], [1.0, 0.0], d=2)
    # the interpolant is e1 on the plateaus but dips between supports
    from phwell.simulator import from_polynomial

    const = from_polynomial(np.array([[1.0, 0.0]]))
    assert quadrature_rayleigh(sys, const) == pytest.approx(-1.0, abs=1e-12)


def test_quadrature_matches_boundary_form_randomly():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        sys = random_system(int(rng.integers(0, 2**31 - 1)), klass="interval_square")
        nd = sys.nd
        z = rng.normal(size=2 * nd) + 1j * rng.normal(size=2 * nd)
        x = boundary_interpolant(z[:nd], z[nd:], d=sys.dim_d)
        q = quadrature_rayleigh(sys, x)
        b = boundary_form_value(sys, z[:nd], z[nd:], x)
        worst = max(worst, abs(q - b) / max(1.0, np.vdot(z, z).real))
    assert worst <= 1e-8


def test_interior_probe_witnesses_re_p0():
    z = np.array([1.0, 0.0])
    x = interior_probe(z)
    np.testing.assert_allclose(x.value(0.0)[0], 0.0, atol=1e-15)
    np.testing.assert_allclose(x.value(1.0)[0], 0.0, atol=1e-15)
    sys_pos = make_system(1, 2, [np.array([[0.0, 1.0], [1.0, 0.0]])],
                          np.zeros((2, 4)), P0=np.diag([1.0, -1.0]))
    val = quadrature_rayleigh(sys_pos, x)
    assert val > 0.0  # positive Re P0 direction detected


def test_oracle_agrees_on_damped_wave():
    sys = build_wave("unit_interval", 0.7)
    rep = dissipativity_oracle(sys, n_samples=16, seed=1)
    assert rep.holds
    assert rep.max_value <= 1e-10
    assert rep.cross_check_max_diff <= 1e-8


def test_oracle_finds_positive_witness():
    sys = build_transport(inflow_zero=False)  # clamped outflow: not dissipative
    rep = dissipativity_oracle(sys, n_samples=16, seed=1)
    assert not rep.holds
    assert rep.max_value > 0.1
    assert rep.witness is not None


@pytest.mark.parametrize("sys", [
    CORPUS["wave_interval_antidamped"].system(),
    build_transport(inflow_zero=False),
    random_system(0, N=3, klass="interval_square"),  # d = 4, T1.5 fails
], ids=["antidamped_wave", "clamped_outflow", "random_N3"])
def test_oracle_witness_reproduces_max_value(sys):
    # the Gram-matrix value of the witness, recomputed by direct quadrature
    # of the state itself; the node rule follows from the state alone
    rep = dissipativity_oracle(sys, n_samples=16, seed=1)
    assert not rep.holds
    # traces of orders 0..N-1, the z = 1 block first
    z = rep.witness.derivatives([1.0, 0.0], sys.order_N - 1).transpose(1, 0, 2).ravel()
    q = quadrature_rayleigh(sys, rep.witness)
    assert abs(q / max(1.0, np.vdot(z, z).real) - rep.max_value) <= 1e-8


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("eps", ORACLE_LAYER_WIDTHS + (None,))
def test_oracle_gram_cache_matches_fresh_quadrature(N, eps):
    S = _oracle_gram(N, eps)
    if eps is None:
        basis = interior_probe([1.0])
    else:
        eye = np.eye(2 * N)
        basis = boundary_interpolant(eye[:N].ravel(), eye[N:].ravel(), eps=eps,
                                     d=2 * N)
    assert np.array_equal(S, _rayleigh_split(N, basis))
    assert _oracle_gram(N, eps) is S
    with pytest.raises(ValueError):
        S[0, 0, 0] = 1.0


def test_oracle_rejects_negative_samples():
    with pytest.raises(PhwellError, match="n_samples"):
        dissipativity_oracle(build_wave("unit_interval", 0.7), n_samples=-5)


def test_oracle_vacuous_for_trivial_kernel():
    sys = make_system(1, 1, [np.eye(1)], np.eye(2))
    rep = dissipativity_oracle(sys, n_samples=8, seed=0)
    assert rep.vacuous
    assert rep.holds


def test_oracle_matches_kernel_condition_with_p0():
    rng = np.random.default_rng(21)
    for i in range(8):
        sys = random_system(int(rng.integers(0, 2**31 - 1)), klass="interval_square")
        rep = dissipativity_oracle(sys, n_samples=24, seed=i)
        v = analyze_interval(sys)
        assert rep.holds == v["T1.5"].holds
        assert rep.cross_check_max_diff <= 1e-8
