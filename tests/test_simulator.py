import dataclasses
from math import comb

import numpy as np
import pytest

from phwell import HamiltonianDensity, analyze, interval, numlin, simulator, validate_system
from phwell.corpus import CORPUS, build_transport, build_wave, random_system
from phwell.errors import ShapeError
from phwell.interval import analyze_interval
from phwell.model import HALF_LINE, boundary_form, build_q
from phwell.simulator import (
    ORACLE_TOL,
    ORACLE_WIDTH,
    ORACLE_WITNESS_WIDTHS,
    SmoothFunction,
    _cutoff_derivs,
    _cutoff_junctions,
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


@pytest.mark.parametrize("eps", [None, "a", True, np.nan, 0.0, 0.3])
def test_interpolant_eps_validation(eps):
    with pytest.raises(ShapeError, match="eps must be a real number in"):
        boundary_interpolant([1.0], [1.0], eps=eps)


@pytest.mark.parametrize("d", [0, -1, True, 2.0, "2"])
def test_interpolant_refuses_a_d_that_is_not_a_positive_integer(d):
    with pytest.raises(ShapeError, match="trace dimension d must be an integer >= 1"):
        boundary_interpolant([1.0, 0.0], [0.0, 1.0], d=d)


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
    # P0 = -I and constant state e1: value = -||x||^2 = -1; a rise that is
    # saturated left of 0 is exactly 1 on [0, 1]
    sys = make_system(1, 2, [np.array([[0.0, 1.0], [1.0, 0.0]])],
                      np.zeros((2, 4)), P0=-np.eye(2))
    const = SmoothFunction(terms=((("rise", -1.0, -0.5), [[1, 0]], 0.0),), dim=2)
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
    rep = dissipativity_oracle(sys)
    assert rep.holds
    assert rep.max_value <= 1e-10
    assert rep.cross_check_max_diff <= 1e-8


def test_oracle_finds_positive_witness():
    sys = build_transport(inflow_zero=False)  # clamped outflow: not dissipative
    rep = dissipativity_oracle(sys)
    assert not rep.holds
    assert rep.max_value > 0.1
    assert rep.witness is not None


@pytest.mark.parametrize("sys", [
    CORPUS["wave_interval_antidamped"].system(),
    build_transport(inflow_zero=False),
    random_system(0, N=3, klass="interval_square"),  # d = 4, T1.5 fails
], ids=["antidamped_wave", "clamped_outflow", "random_N3"])
def test_oracle_witness_reproduces_max_value(sys):
    # the witness's value by direct quadrature of the state itself, the
    # node rule following from the state alone: it exceeds ORACLE_TOL, and
    # without its P0 term it is the boundary form of its unit trace vector
    # in ker WB_hat, which is max_value
    rep = dissipativity_oracle(sys)
    assert not rep.holds
    # traces of orders 0..N-1, the z = 1 block first
    z = rep.witness.derivatives([1.0, 0.0], sys.order_N - 1).transpose(1, 0, 2).ravel()
    assert np.vdot(z, z).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(sys.WB_hat @ z).max() <= 1e-12
    q = quadrature_rayleigh(sys, rep.witness)
    p0 = np.real(np.sum(sys.P[0] * _rayleigh_split(sys.order_N, rep.witness)[0]))
    assert q > ORACLE_TOL
    assert abs(q - p0 - rep.max_value) <= 1e-8


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("eps", ORACLE_WITNESS_WIDTHS + (None,))
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


@pytest.mark.parametrize("name, value", [("seed", -1), ("seed", 1.5), ("seed", True),
                                         ("n_samples", -5), ("n_samples", 2.5),
                                         ("n_samples", 8.0), ("n_samples", False)])
def test_oracle_ignores_a_bad_seed_or_sample_count(name, value):
    # no sample is drawn; the keywords stay for callers that still pass them
    sys = random_system(2026557278, klass="interval_square")
    got, want = dissipativity_oracle(sys, **{name: value}), dissipativity_oracle(sys)
    assert dataclasses.replace(got, witness=None) == dataclasses.replace(want, witness=None)
    assert all(a[0] == b[0] and np.array_equal(a[1], b[1])
               for a, b in zip(got.witness.terms, want.witness.terms, strict=True))


def test_oracle_vacuous_for_trivial_kernel():
    sys = make_system(1, 1, [np.eye(1)], np.eye(2))
    rep = dissipativity_oracle(sys)
    assert rep.vacuous
    assert rep.holds


@pytest.mark.parametrize("WB, P0, dim", [
    (np.eye(2), None, 0),
    (np.eye(2), -np.eye(1), 0),  # the interior bump only: still no kernel trace
    (np.array([[1.0, 0.0]]), -np.eye(1), 1),
], ids=["trivial kernel, P0 = 0", "trivial kernel, P0 != 0", "kernel dim 1"])
def test_oracle_reports_the_kernel_traces_it_drew(WB, P0, dim):
    # the boundary family ranges over the unit traces of ker WB_hat
    sys = make_system(1, 1, [np.eye(1)], WB, P0=P0)
    rep = dissipativity_oracle(sys)
    assert rep.kernel_dim == dim
    assert rep.vacuous == (dim == 0)
    assert rep.holds


def test_boundary_form_value_refuses_a_half_line_system():
    # u != 0 is a trace at z = 1 of a state that does not extend by zero
    sys = CORPUS["wave_halfline_u05"].system()
    with pytest.raises(ShapeError, match="needs u = 0"):
        boundary_form_value(sys, [1.0, 0.0], [0.0, 1.0])


HALF_LINE_WITNESSES = [n for n, e in CORPUS.items() if e.system().interval == HALF_LINE
                       and dissipativity_oracle(e.system()).witness is not None]


def test_the_half_line_corpus_has_witnesses():
    assert HALF_LINE_WITNESSES == ["wave_halfline_u101", "wave_halfline_u2",
                                   "wave_halfline_um3"]


@pytest.mark.parametrize("name", HALF_LINE_WITNESSES)
def test_half_line_witness_reproduces_max_value(name):
    # the witness vanishes at z = 1, so it extends by zero and its [0, 1]
    # quadrature is its half-line value; with P0 = 0 that is max_value, and
    # by parts it is the boundary form of its traces up to the oracle's
    # cross-check gap
    sys = CORPUS[name].system()
    rep = dissipativity_oracle(sys)
    assert not sys.P[0].any()
    assert quadrature_rayleigh(sys, rep.witness) == pytest.approx(rep.max_value,
                                                                  rel=1e-12)
    v = rep.witness.value([0.0])[0]
    by_parts = boundary_form_value(sys, np.zeros(sys.dim_d), v, x=rep.witness)
    assert abs(by_parts - rep.max_value) <= 1e-8


def test_quadrature_rayleigh_refuses_a_half_line_state_with_traces_at_one():
    sys = CORPUS["wave_halfline_u2"].system()
    x = boundary_interpolant([0.0, 0.0], [1.0, 0.5])
    assert quadrature_rayleigh(sys, x) == pytest.approx(
        boundary_form_value(sys, [0.0, 0.0], [1.0, 0.5]), abs=1e-8)
    # a nonzero rise term: the state does not extend by zero past z = 1
    with pytest.raises(ShapeError, match="zero traces at z = 1"):
        quadrature_rayleigh(sys, boundary_interpolant([0.0, 1e-3], [1.0, 0.5]))


@pytest.mark.parametrize("u, v", [([1.0, 0.0, 2.0], [0.0, 1.0]),
                                  ([1.0, 0.0], [1.0]),
                                  ([1.0, 0.0, 2.0], [0.0])],
                         ids=["u long", "v short", "u long, v short"])
def test_boundary_form_value_refuses_traces_of_the_wrong_length(u, v):
    with pytest.raises(ShapeError, match="N\\*d = 2 entries each"):
        boundary_form_value(build_wave("unit_interval", 0.7), u, v)


def test_oracle_matches_kernel_condition_with_p0():
    rng = np.random.default_rng(21)
    for _ in range(8):
        sys = random_system(int(rng.integers(0, 2**31 - 1)), klass="interval_square")
        rep = dissipativity_oracle(sys)
        v = analyze_interval(sys)
        assert rep.holds == v["T1.5"].holds
        assert rep.cross_check_max_diff <= 1e-8


@pytest.mark.parametrize("seed", [2026557278, 54, 116, 202])
def test_oracle_finds_the_growth_that_re_p0_hides_at_every_width(seed):
    # near-threshold draws: T1.5 fails by a small boundary term that Re P0
    # outweighs at layer widths 0.25, 0.05 and 0.01; the width -> 0 limit
    # shows it
    sys = random_system(seed, klass="interval_square")
    assert not analyze_interval(sys)["T1.5"].holds
    rep = dissipativity_oracle(sys)
    assert not rep.holds
    assert rep.max_value > 1e-4
    if seed == 54:  # Re P0 outweighs it at every witness width
        assert rep.witness is None
    else:
        assert quadrature_rayleigh(sys, rep.witness) > ORACLE_TOL


def test_oracle_agrees_with_ta3_on_the_half_line():
    systems = [e.system() for e in CORPUS.values() if e.system().interval == HALF_LINE]
    systems += [random_system(seed, klass="halfline") for seed in range(60)]
    verdicts = set()
    for sys in systems:
        rep = dissipativity_oracle(sys)
        verdicts.add(rep.holds)
        assert rep.holds == analyze(sys)["TA.3"].holds
        assert rep.cross_check_max_diff <= 1e-8
        if rep.witness is not None:
            # a state on [0, 1] that vanishes from z = 0.65 on: one of the half line
            assert not rep.witness.value(np.linspace(0.65, 1.0, 8)).any()
    assert verdicts == {False, True}


def test_oracle_never_reads_the_checkers_kernel_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel_energy_form called")

    systems = {name: entry.system() for name, entry in CORPUS.items()}
    want = {name: analyze(sys)["TA.3" if sys.interval == HALF_LINE else "T1.5"].holds
            for name, sys in systems.items()}
    monkeypatch.setattr(interval, "kernel_energy_form", refuse)
    monkeypatch.setattr(simulator, "kernel_energy_form", refuse)
    assert {name: dissipativity_oracle(sys).holds for name, sys in systems.items()} == want


def kron_oracle_reference(sys):
    """dissipativity_oracle's numbers with every S_k kron P_k from np.kron.

    The oracle builds the Kronecker products as one broadcast product;
    this forms them with np.kron, and builds K, Q and the two eigenvalue
    problems afresh.  Returns (max_value, cross_check_max_diff, holds).
    """
    N = sys.order_N
    P = np.asarray(sys.P)
    K = numlin.kernel_basis(sys.WB_hat, sys.tol.check)
    if sys.interval == HALF_LINE:  # no traces at z = 1
        K = np.vstack([np.zeros_like(K), K])

    def herm_form(S, first):
        """Herm(sum_{k >= first} np.kron(S_k, P_k))."""
        M = sum(np.kron(S[k], P[k]) for k in range(first, N + 1))
        return 0.5 * (M + M.conj().T)

    values, gaps = [], [0.0]
    if K.shape[1]:
        G = K.conj().T @ herm_form(_oracle_gram(N, ORACLE_WIDTH), 1) @ K
        B = K.conj().T @ (0.5 * boundary_form(build_q(sys.P[1:]))) @ K
        values.append(np.linalg.eigh(G)[0][-1])  # the oracle's eigensolver
        gaps.append(np.abs(np.linalg.eigvalsh(G - B)).max())
    if np.any(np.abs(P[0]) > 0):
        S = _oracle_gram(N, None)
        values.append(np.linalg.eigh(herm_form(S, 0))[0][-1])
        gaps.append(np.abs(np.linalg.eigvalsh(herm_form(S, 1))).max())
    top = float(max(values, default=0.0))
    return top, float(max(gaps)), top <= ORACLE_TOL


def assert_oracle_matches_kron_reference(sys):
    rep = dissipativity_oracle(sys)
    max_value, diff, holds = kron_oracle_reference(sys)
    assert rep.max_value == max_value
    assert rep.cross_check_max_diff == diff
    assert rep.holds == holds


@pytest.mark.parametrize("name", list(CORPUS))
def test_oracle_matches_kron_reference_on_the_corpus(name):
    assert_oracle_matches_kron_reference(CORPUS[name].system())


def test_oracle_matches_kron_reference_on_the_pinned_defect():
    # the benchmark's near-threshold draw
    sys = random_system(2026557278, klass="interval_square")
    assert_oracle_matches_kron_reference(sys)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_oracle_matches_kron_reference_on_random_draws(N):
    p0_kinds = set()
    for seed in range(6):
        sys = random_system(seed, N=N, klass="interval_square")
        p0_kinds.add(bool(np.any(np.abs(sys.P[0]) > 0)))
        assert_oracle_matches_kron_reference(sys)
    assert p0_kinds == {False, True}  # with and without the bump family


def test_oracle_makes_no_np_kron_call(monkeypatch):
    def kron(*args, **kwargs):
        raise AssertionError("np.kron called")

    sys = random_system(0, N=3, klass="interval_square")  # P0 != 0: every family
    monkeypatch.setattr(np, "kron", kron)
    rep = dissipativity_oracle(sys)
    assert rep.witness is not None


# ---------------------------------------------------------------------------
# the smooth-state calculus against a reference
#
# The module forms state derivatives with one product rule (_leibniz) over
# cutoff and polynomial stacks, numpy's polyder/polyval for the polynomials
# and the exp(-1/t) recursion run inline.  What follows is the calculus it
# replaced, loop for loop, kept as the reference.


def _sigma_derivs_reference(t, max_order):
    s2 = np.polynomial.Polynomial([0.0, 0.0, 1.0])
    polys = [np.polynomial.Polynomial([1.0])]
    while len(polys) <= max_order:
        polys.append(s2 * (polys[-1] - polys[-1].deriv()))
    out = np.zeros((max_order + 1,) + t.shape)
    mask = t > 1.0 / 500.0
    if np.any(mask):
        tm = t[mask]
        for n in range(max_order + 1):
            out[n][mask] = np.exp(-1.0 / tm) * polys[n](1.0 / tm)
    return out


def _step_derivs_reference(r, max_order):
    num = _sigma_derivs_reference(r, max_order)
    mirror = _sigma_derivs_reference(1.0 - r, max_order)
    den = np.empty_like(num)
    for n in range(max_order + 1):
        den[n] = num[n] + ((-1.0) ** n) * mirror[n]
    out = np.zeros_like(num)
    safe = den[0] > 0.0
    f0 = np.zeros_like(r)
    f0[safe] = num[0][safe] / den[0][safe]
    f0[r >= 1.0] = 1.0
    out[0] = f0
    for n in range(1, max_order + 1):
        acc = num[n].copy()
        for k in range(n):
            acc -= comb(n, k) * out[k] * den[n - k]
        val = np.zeros_like(r)
        val[safe] = acc[safe] / den[0][safe]
        out[n] = val
    return out


def _scaled_step_derivs_reference(zeta, a, b, max_order, falling=False):
    width = b - a
    r = (b - zeta) / width if falling else (zeta - a) / width
    base = _step_derivs_reference(r, max_order)
    scale = (-1.0 / width) if falling else (1.0 / width)
    for n in range(1, max_order + 1):
        base[n] *= scale**n
    return base


def _cutoff_derivs_reference(kind, zeta, max_order):
    tag = kind[0]
    if tag == "rise":
        return _scaled_step_derivs_reference(zeta, kind[1], kind[2], max_order)
    if tag == "fall":
        return _scaled_step_derivs_reference(zeta, kind[1], kind[2], max_order,
                                             falling=True)
    a, b = kind[1], kind[2]
    mid = 0.5 * (a + b)
    up = _scaled_step_derivs_reference(zeta, a, mid, max_order)
    down = _scaled_step_derivs_reference(zeta, mid, b, max_order, falling=True)
    out = np.zeros_like(up)
    for n in range(max_order + 1):
        for j in range(n + 1):
            out[n] += comb(n, j) * up[j] * down[n - j]
    return out


def _derivatives_reference(self, zeta, max_order):
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    out = np.zeros((max_order + 1, zeta.size, self.dim), dtype=complex)
    for kind, coeffs, center in self.terms:
        coeffs = np.asarray(coeffs, dtype=complex)
        m = coeffs.shape[0]
        poly = np.zeros((max_order + 1, zeta.size, self.dim), dtype=complex)
        dz = (zeta - center)[:, None]
        for n in range(max_order + 1):
            acc = np.zeros((zeta.size, self.dim), dtype=complex)
            for i in range(n, m):
                fac = 1.0
                for j in range(i, i - n, -1):
                    fac *= j
                acc += fac * coeffs[i] * dz ** (i - n)
            poly[n] = acc
        cut = _cutoff_derivs_reference(kind, zeta, max_order)
        for n in range(max_order + 1):
            term = np.zeros((zeta.size, self.dim), dtype=complex)
            for j in range(n + 1):
                term += comb(n, j) * cut[j][:, None] * poly[n - j]
            out[n] += term
    return out


CALCULUS_WIDTHS = (0.25, 0.05, 0.01, 0.002)


def _cutoff_kinds(w):
    return [("rise", 1.0 - 2.0 * w, 1.0 - w), ("fall", w, 2.0 * w),
            ("bump", 0.5 - w, 0.5 + w)]


def _probe_points(kinds):
    """A grid with every junction (plateau ends, bump peaks) and points beside them."""
    ends = [p for kind in kinds for p in _cutoff_junctions(kind)]
    near = [p + dp for p in ends for dp in (-1e-9, 1e-9, -1e-4, 1e-4)]
    return np.unique(np.concatenate([np.linspace(0.0, 1.0, 401), ends, near]))


def assert_stacks_close(got, want, rtol=1e-12):
    """Order by order, within rtol of that order's largest |entry|."""
    for n, (g, w) in enumerate(zip(got, want)):
        assert np.abs(g - w).max() <= rtol * np.abs(w).max(), f"order {n}"


@pytest.mark.parametrize("width", CALCULUS_WIDTHS)
def test_cutoff_derivatives_match_the_reference(width):
    kinds = _cutoff_kinds(width)
    zeta = _probe_points(kinds)
    for kind in kinds:
        got = _cutoff_derivs(kind, zeta, 4)
        want = _cutoff_derivs_reference(kind, zeta, 4)
        assert got.shape == want.shape
        assert_stacks_close(got, want)


@pytest.mark.parametrize("width", CALCULUS_WIDTHS)
def test_state_derivatives_match_the_reference(width):
    rng = np.random.default_rng(5)
    kinds = _cutoff_kinds(width)
    zeta = _probe_points(kinds)
    terms = tuple((kind, rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2)),
                   float(rng.uniform()))
                  for kind, m in zip(kinds, (2, 3, 6)))
    bump = (("bump", 0.5 - width, 0.5 + width), np.array([[1.0, -2.0]]), 0.0)
    states = [SmoothFunction(terms=terms, dim=2), SmoothFunction(terms=(bump,), dim=2)]
    for N in (1, 2, 3):
        u, v = rng.normal(size=(2, 2 * N))
        states.append(boundary_interpolant(u, v, eps=width, d=2))
    for x in states:
        assert_stacks_close(x.derivatives(zeta, 4), _derivatives_reference(x, zeta, 4))


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("eps", ORACLE_WITNESS_WIDTHS + (None,))
def test_oracle_gram_matches_the_reference_calculus(N, eps, monkeypatch):
    S = _oracle_gram(N, eps)
    monkeypatch.setattr(SmoothFunction, "derivatives", _derivatives_reference)
    if eps is None:
        basis = interior_probe([1.0])
    else:
        eye = np.eye(2 * N)
        basis = boundary_interpolant(eye[:N].ravel(), eye[N:].ravel(), eps=eps,
                                     d=2 * N)
    want = _rayleigh_split(N, basis)
    assert np.abs(S - want).max() <= 1e-12 * np.abs(want).max()
