"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (or the full suite).  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np

from phwell import numlin, simulate, smooth_bump
from phwell.corpus import CORPUS, build_wave, random_system
from phwell.halfline import analyze_halfline, solve_resolvent_halfline, unit_decomposition
from phwell.interval import CONTRACTION_FAMILY, analyze_interval, extract_v, sigma_form
from phwell.model import UNIT_INTERVAL, derive_boundary_operator
from phwell.oracle import ORACLE_CROSS_CHECK_LIMIT, dissipativity_oracle
from phwell.simulator import SIMULATE_RISE_ALLOWANCE


class _Reporter:
    def __init__(self, capsys, number, title):
        self.capsys = capsys
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        with self.capsys.disabled():
            print(f"[{status}] criterion {self.number}: {self.title}")
        return False


def test_criterion_01_interval_equivalence_sweep(capsys):
    with _Reporter(capsys, 1, "interval equivalence sweep, 200 systems, < 60 s"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            sys = random_system(int(rng.integers(0, 2**31 - 1)),
                                klass="interval_square")
            assert sys.order_N <= 3 and sys.dim_d <= 4
            v = analyze_interval(sys)
            assert not v.discrepancy
            held = {c.condition_id: c.holds for c in v.conditions
                    if c.applicable and c.condition_id in CONTRACTION_FAMILY}
            assert len(set(held.values())) == 1  # pairwise agreement
        assert time.monotonic() - t0 < 60.0


def test_criterion_02_halfline_equivalence_sweep(capsys):
    with _Reporter(capsys, 2, "half-line equivalence sweep, 200 systems"):
        rng = np.random.default_rng(4096)
        for _ in range(200):
            sys = random_system(int(rng.integers(0, 2**31 - 1)), klass="halfline")
            assert sys.dim_d <= 6
            v = analyze_halfline(sys)
            assert not v.discrepancy
            if v["TA.4"].applicable:
                assert v["TA.3"].holds == v["TA.4"].holds


def test_criterion_03_path_graph(capsys):
    with _Reporter(capsys, 3, "path graph d in {2, 8, 32}: contraction, "
                              "not unitary, sigma form = e_d e_d^T / 2"):
        for d in (2, 8, 32):
            entry = CORPUS[f"path_graph_d{d}"]
            sys = entry.system()
            v = analyze_interval(sys)
            assert v.consensus == "contraction"
            assert v.unitary is False
            assert not v.discrepancy
            expected = np.zeros((d, d))
            expected[-1, -1] = 0.5
            sf = sigma_form(*derive_boundary_operator(sys))
            assert np.max(np.abs(sf - expected)) <= 1e-12


def test_criterion_04_binary_tree(capsys):
    with _Reporter(capsys, 4, "binary tree levels 2-3: contraction, interior "
                              "sigma block = I/4"):
        for levels, interior in ((2, 2), (3, 6)):
            entry = CORPUS[f"binary_tree_l{levels}"]
            sys = entry.system()
            v = analyze_interval(sys)
            assert v.consensus == "contraction"
            assert not v.discrepancy
            sf = sigma_form(*derive_boundary_operator(sys))
            block = sf[:interior, :interior]
            assert np.max(np.abs(block - 0.25 * np.eye(interior))) <= 1e-12


def test_criterion_05_wave_family_flips_at_unit_modulus(capsys):
    with _Reporter(capsys, 5, "half-line wave: verdict flips exactly at |u| = 1"):
        contractive = [0.0, 0.5, 1.0, -1.0, 0.9j]
        expansive = [1.01, 2.0, -3.0]
        for u in contractive + expansive:
            v = analyze_halfline(build_wave("half_line", u))
            decisive = 1.0 - abs(u) ** 2
            assert (v.consensus == "contraction") == (u in contractive)
            got = v["TA.4"].diagnostics["min_eig_lambda_utu"]
            assert abs(got - decisive) <= 1e-10
            assert (v.unitary is True) == (abs(decisive) <= 1e-10)


def test_criterion_06_oracle_agreement(capsys):
    with _Reporter(capsys, 6, "quadrature oracle (exact lambda_max) matches T1.5; "
                              "values match the boundary form to 1e-8"):
        for name, entry in CORPUS.items():
            sys = entry.system()
            if sys.interval != UNIT_INTERVAL:
                continue
            rep = dissipativity_oracle(sys)
            assert rep.holds == analyze_interval(sys)["T1.5"].holds, name
            assert rep.cross_check_max_diff <= ORACLE_CROSS_CHECK_LIMIT, name
        rng = np.random.default_rng(11)
        for i in range(50):
            sys = random_system(int(rng.integers(0, 2**31 - 1)),
                                klass="interval_square")
            rep = dissipativity_oracle(sys)
            assert rep.holds == analyze_interval(sys)["T1.5"].holds, i
            assert rep.cross_check_max_diff <= ORACLE_CROSS_CHECK_LIMIT, i


def test_criterion_07_factorization_identities(capsys):
    with _Reporter(capsys, 7, "kernel/range identity (angles <= 1e-8) and sign "
                              "equivalence on 100 factorizable instances"):
        rng = np.random.default_rng(555)
        checked = 0
        while checked < 100:
            n = int(rng.integers(1, 7))
            V = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            target = float(rng.uniform(0.2, 2.0))
            if abs(target - 1.0) < 1e-3:
                continue
            V *= target / numlin.operator_norm(V)
            eye = np.eye(n)
            K = numlin.kernel_basis(np.hstack([eye + V, eye - V]))
            R = numlin.orthonormal_columns(np.vstack([eye - V, -eye - V]))
            assert np.max(numlin.principal_angles(K, R)) <= 1e-8
            S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            if numlin.smallest_singular_value(S) < 1e-3:
                continue
            W1 = 0.5 * S @ (eye + V)
            W2 = 0.5 * S @ (eye - V)
            lhs = numlin.definiteness(sigma_form(W1, W2)).is_psd
            rhs = numlin.definiteness(eye - V @ V.conj().T).is_psd
            assert lhs == rhs
            ext = extract_v(W1, W2)
            assert ext.V is not None
            checked += 1


def test_criterion_08_resolvent(capsys):
    with _Reporter(capsys, 8, "resolvent: closed form to 1e-6 / 1e-5; "
                              "order >= 1 on random smooth data"):
        decomp = unit_decomposition(1, 0)
        L = 30.0
        n = 30000
        t = np.linspace(0.0, L, n + 1)
        x, res = solve_resolvent_halfline(decomp, np.zeros((0, 1)),
                                          np.exp(-t)[None, :], L=L)
        assert res <= 1e-6
        assert np.max(np.abs(x[0] - np.exp(-t) / 2)) <= 1e-5

        rng = np.random.default_rng(31)
        decomp2 = unit_decomposition(1, 1)
        U = np.array([[0.6]])
        for _ in range(3):
            a, b, c = rng.normal(size=3)
            resids = []
            for m in (1500, 3000, 6000):
                tt = np.linspace(0.0, L, m + 1)
                y1 = (a + b * tt + c * tt**2) * np.exp(-tt)
                y = np.vstack([y1, (a - c * tt) * np.exp(-tt)])
                _, r = solve_resolvent_halfline(decomp2, U, y, L=L)
                resids.append(r)
            for r0, r1 in zip(resids, resids[1:]):
                assert r1 <= r0 / 2.0  # order >= 1


def _violation_halves(v_coarse, v_fine, floor):
    if v_coarse <= floor:
        return v_fine <= floor
    if v_fine <= floor:
        return True
    ratio = v_coarse / v_fine
    return 1.5 <= ratio <= 3.0


SIM_CASES = {
    # name -> (t_final, bump center, bump width, halfline?)
    "path_graph_d2": (0.5, 0.4, 0.25, False),
    "path_graph_d8": (0.5, 0.4, 0.25, False),
    "path_graph_d32": (0.5, 0.4, 0.25, False),
    "binary_tree_l2": (0.5, 0.4, 0.25, False),
    "binary_tree_l3": (0.5, 0.4, 0.25, False),
    "wave_interval_damped": (1.0, 0.5, 0.25, False),
    "transport_inflow": (0.5, 0.4, 0.25, False),
    "transport_periodic": (1.0, 0.5, 0.3, False),
    "wave_halfline_u0": (1.0, 3.0, 2.0, True),
    "wave_halfline_u05": (1.0, 3.0, 2.0, True),
    "wave_halfline_u1": (1.0, 3.0, 2.0, True),
    "wave_halfline_um1": (1.0, 3.0, 2.0, True),
    "wave_halfline_u09i": (1.0, 3.0, 2.0, True),
}


def test_criterion_09_simulation_energy_evidence(capsys):
    with _Reporter(capsys, 9, "certified contractions: discrete energy never "
                              "rises; conservation and accuracy refine"):
        for name, (t_final, c, w, halfline) in SIM_CASES.items():
            entry = CORPUS[name]
            assert entry.contraction
            sys = entry.system()
            x0 = smooth_bump(c, w, sys.dim_d, component=0)
            traces = {}
            for nx in (200, 400):
                t0 = time.monotonic()
                traces[nx] = simulate(sys, x0, t_final=t_final, nx=nx,
                                      cfl=0.45, L=10.0)
                assert time.monotonic() - t0 < 30.0, name
            e0 = traces[400].energy[0]
            assert traces[400].max_violation <= SIMULATE_RISE_ALLOWANCE * e0, name
            assert _violation_halves(traces[200].max_violation,
                                     traces[400].max_violation,
                                     floor=1e-12 * e0), name

        # unitary periodic transport: drift shrinks by >= 1.5 per doubling
        sys = CORPUS["transport_periodic"].system()
        drifts = []
        for nx in (100, 200, 400):
            tr = simulate(sys, smooth_bump(0.5, 0.3, 1), t_final=1.0,
                          nx=nx, cfl=0.9)
            drifts.append(abs(tr.energy[-1] - tr.energy[0]) / tr.energy[0])
        assert drifts[0] / drifts[1] >= 1.5
        assert drifts[1] / drifts[2] >= 1.5

        # transport against the exact translated profile
        sys = CORPUS["transport_inflow"].system()
        x0 = smooth_bump(0.3, 0.25, 1)
        tr = simulate(sys, x0, t_final=0.5, nx=400, cfl=0.9)
        exact = np.array([x0(z - 0.5)[0] for z in tr.cell_centers])
        err = np.linalg.norm(tr.final_state[0] - exact) / np.linalg.norm(exact)
        assert err <= 0.05


def test_criterion_10_negative_controls(capsys):
    with _Reporter(capsys, 10, "sign-flipped damper and u=2 wave refused by "
                               "every route; oracle finds a witness"):
        bad_wave = CORPUS["wave_interval_antidamped"].system()
        v = analyze_interval(bad_wave)
        assert v.consensus == "not_contraction"
        for cid in CONTRACTION_FAMILY:
            c = v[cid]
            if c.applicable:
                assert c.holds is False, cid
        rep = dissipativity_oracle(bad_wave)
        assert not rep.holds
        assert rep.max_value > 0.0
        assert rep.witness is not None

        v2 = analyze_halfline(build_wave("half_line", 2.0))
        assert v2.consensus == "not_contraction"
        for c in v2.conditions:
            if c.applicable and c.condition_id.startswith("TA."):
                assert c.holds is False, c.condition_id
