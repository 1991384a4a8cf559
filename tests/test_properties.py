"""Algebraic identities behind the checkers, exercised on random data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phwell import numlin
from phwell.cli import analyze
from phwell.corpus import CORPUS, random_system
from phwell.halfline import analyze_halfline
from phwell.interval import (
    BoundaryAlgebra,
    analyze_interval,
    check_kernel_dissipativity,
    extract_v,
    sigma_form,
)
from phwell.model import derive_boundary_operator


def random_v(rng, n, norm=None):
    V = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if norm is not None:
        V *= norm / max(numlin.operator_norm(V), 1e-12)
    return V


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10**6))
def test_kernel_range_identity(n, seed):
    # ker [I+V, I-V] coincides with ran [I-V; -I-V]
    rng = np.random.default_rng(seed)
    V = random_v(rng, n)
    eye = np.eye(n)
    K = numlin.kernel_basis(np.hstack([eye + V, eye - V]))
    R = numlin.orthonormal_columns(np.vstack([eye - V, -eye - V]))
    assert K.shape[1] == n and R.shape[1] == n
    angles = numlin.principal_angles(K, R)
    assert np.max(angles) <= 1e-8


def test_kernel_range_identity_bigger():
    rng = np.random.default_rng(42)
    for n in (8, 12):
        V = random_v(rng, n)
        eye = np.eye(n)
        K = numlin.kernel_basis(np.hstack([eye + V, eye - V]))
        R = numlin.orthonormal_columns(np.vstack([eye - V, -eye - V]))
        assert np.max(numlin.principal_angles(K, R)) <= 1e-8


def test_sign_equivalence_sigma_form_vs_factor():
    # W Sigma W^* >= 0 iff I - V V^* >= 0, for factorizable (W1, W2)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 5))
        target = rng.uniform(0.2, 2.0)
        if abs(target - 1.0) < 1e-3:
            continue
        V = random_v(rng, n, norm=target)
        S = random_v(rng, n)
        if numlin.smallest_singular_value(S) < 1e-3:
            continue
        eye = np.eye(n)
        W1 = 0.5 * S @ (eye + V)
        W2 = 0.5 * S @ (eye - V)
        lhs = numlin.definiteness(sigma_form(W1, W2)).is_psd
        rhs = numlin.definiteness(eye - V @ V.conj().T).is_psd
        assert lhs == rhs
        checked += 1


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10**6))
def test_contraction_factor_bounds_both_orders(n, seed):
    # ||V|| <= 1 makes both V^*V - I and V V^* - I negative semidefinite
    rng = np.random.default_rng(seed)
    V = random_v(rng, n, norm=float(rng.uniform(0.0, 1.0)))
    eye = np.eye(n)
    assert numlin.definiteness(V.conj().T @ V - eye).is_nsd
    assert numlin.definiteness(V @ V.conj().T - eye).is_nsd


def test_zeroth_order_term_splits_off():
    # full kernel test = (same test with P0 = 0) AND Re P0 <= 0
    rng = np.random.default_rng(8)
    for _ in range(40):
        sys = random_system(int(rng.integers(0, 2**31 - 1)), klass="interval_square")
        bop = derive_boundary_operator(sys)
        full = check_kernel_dissipativity(BoundaryAlgebra.of(bop, sys.re_P0(), sys.tol))
        boundary_only = check_kernel_dissipativity(
            BoundaryAlgebra.of(bop, np.zeros((1, 1)), sys.tol))
        p0_ok = numlin.definiteness(sys.re_P0(), sys.tol.check).is_nsd
        assert full.holds == (boundary_only.holds and p0_ok)


def test_unitary_implies_contraction_everywhere():
    rng = np.random.default_rng(13)
    seen_unitary = 0
    for name, entry in CORPUS.items():
        v = analyze(entry.system())
        if v.unitary is True:
            seen_unitary += 1
            assert v.consensus == "contraction", name
    assert seen_unitary >= 3
    for _ in range(60):
        sys = random_system(int(rng.integers(0, 2**31 - 1)),
                            klass=rng.choice(["interval_square", "halfline"]))
        v = analyze(sys)
        if v.unitary is True:
            assert v.consensus == "contraction"


def test_interval_equivalence_sweep_small():
    rng = np.random.default_rng(77)
    for _ in range(60):
        sys = random_system(int(rng.integers(0, 2**31 - 1)), klass="interval_square")
        assert not analyze_interval(sys).discrepancy


def test_halfline_equivalence_sweep_small():
    rng = np.random.default_rng(78)
    for _ in range(60):
        sys = random_system(int(rng.integers(0, 2**31 - 1)), klass="halfline")
        assert not analyze_halfline(sys).discrepancy


def test_halfline_wave_margin_is_exact():
    # decisive eigenvalue of the factorized test equals 1 - |u|^2
    from phwell.corpus import build_wave

    for u in (0.0, 0.3, 0.9, 1.0, 1.5, 0.7j, -2.0):
        v = analyze_halfline(build_wave("half_line", u))
        got = v["TA.4"].diagnostics.get("min_eig_lambda_utu")
        if got is not None:
            assert got == pytest.approx(1.0 - abs(u) ** 2, abs=1e-12)


def test_extract_v_unique_factorization():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        V = random_v(rng, n)
        S = random_v(rng, n)
        if numlin.smallest_singular_value(S) < 1e-3:
            continue
        eye = np.eye(n)
        W1 = 0.5 * S @ (eye + V)
        W2 = 0.5 * S @ (eye - V)
        ext = extract_v(W1, W2)
        np.testing.assert_allclose(ext.V, V, atol=1e-8 * max(1, numlin.operator_norm(V)))


def test_ranbed_augmented_rank_is_the_rank_of_wb_hat():
    # [W1+W2 | W1-W2] = WB_hat [Q -Q; I I]^{-1} [[I, I], [I, -I]]: both
    # factors are invertible, so RANBED reads rank WB_hat off the bundle
    rng = np.random.default_rng(2024)  # criterion 1's pool
    systems = [random_system(int(rng.integers(0, 2**31 - 1)), klass="interval_square")
               for _ in range(200)]
    systems += [e.system() for e in CORPUS.values() if e.system().interval == "unit_interval"]
    for sys in systems:
        bop = derive_boundary_operator(sys)
        alg = BoundaryAlgebra.of(bop, sys.re_P0(), sys.tol)
        augmented = np.hstack([bop.W1 + bop.W2, bop.W1 - bop.W2])
        assert alg.rank_wb_hat == numlin.numerical_rank(augmented, sys.tol.check)


def disagreeing_diagnostics(verdict) -> list:
    """Diagnostic keys that two conditions of one report give different values."""
    first, bad = {}, set()
    for c in verdict.conditions:
        for key, value in c.diagnostics.items():
            seen = first.setdefault(key, value)
            if not (seen == value or (seen != seen and value != value)):  # NaN == NaN
                bad.add(key)
    return sorted(bad)


def test_a_diagnostic_has_one_value_per_report():
    # a tall W1+W2 (interval_rect, k > N*d) has a nonzero smallest singular
    # value, which T1.4, T3.4 and C3.7 must report as T3.3 does
    systems = {name: entry.system() for name, entry in CORPUS.items()}
    for klass in ("interval_square", "interval_rect", "halfline"):
        systems.update({(klass, seed): random_system(seed, klass=klass)
                        for seed in range(50)})
    found = {key: disagreeing_diagnostics(analyze(sys)) for key, sys in systems.items()}
    assert {key: keys for key, keys in found.items() if keys} == {}
