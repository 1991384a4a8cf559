"""The four workloads: inputs made from the seed, the timed calls, and the
output checks that decide whether a call failed.

Each builder does the whole set-up of its workload (drawing inputs,
reference verdicts, one warm-up call) and returns one round: the list of
calls the timed phase repeats.  The library is reached only through its
public entry points, looked up on the module at call time so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from phwell import cli, config, corpus, halfline, simulator
from phwell.errors import ParseError, SingularQ
from phwell.model import UNIT_INTERVAL

# Failure kinds that are known program defects at the time the benchmark
# was written.  They are counted as failed operations like any other
# failure; a run stays `correct` only if every failure it saw is one of
# these.  A fix shows as fewer failed operations.
KNOWN_DEFECTS = {
    "config_empty_boundary":
        "a half-line draw with k = 0 boundary rows serializes as "
        "\"WB_hat\": [] through config.system_to_dict, and "
        "config.system_from_dict rejects that document with a ParseError",
    "singular_q":
        "a draw with a tiny P_N passes validation, but "
        "model.split_boundary_operator then raises SingularQ (marked "
        "'cannot occur'): in corpus.random_system's own margin filter for "
        "interval_square (random_system(76037203)), and in cli.analyze for "
        "interval_rect, which skips that filter (random_system(52691923, "
        "klass='interval_rect'): N = 3, d = 1, P_3 = 2.3e-4)",
    "oracle_missed_violation":
        "dissipativity_oracle reports holds=True where T1.5 fails: on "
        "near-threshold systems the Re P0 term dominates every sampled "
        "layer width (pinned: random_system(2026557278))",
}


@dataclass
class Call:
    """One timed call into the library.

    group names the item span in the traced run; check maps the call's
    output (or the exception it raised) to a failure kind or None; units
    maps the output to the work it completed ({"items": n, ...}).
    """

    group: str
    run: object
    check: object
    units: object


@dataclass
class Workload:
    calls: list  # one round
    notes: dict = field(default_factory=dict)
    summary: object = None  # () -> dict printed after the timed phase


def _exception_kind(out):
    return f"exception:{type(out).__name__}" if isinstance(out, Exception) else None


def _one_item(out):
    return {"items": 0 if isinstance(out, Exception) else 1}


# ---------------------------------------------------------------------------
# check: `phwell analyze --json` traffic, in process

CHECK_RANDOM_PER_CLASS = 200
CHECK_CLASSES = (corpus.INTERVAL_SQUARE, corpus.HALFLINE, corpus.INTERVAL_RECT)
# The random systems come from a fixed stream, every draw kept.  About one
# draw in a hundred hits a known defect, and how many do varies with the
# stream, so a pool drawn from the benchmark seed would make the failed
# fraction differ from seed to seed while the code stays the same.  The
# benchmark seed sets the order of the random systems in the round instead.
CHECK_POOL_SEED = 1709
# The fixed pool holds no `singular_q` draw, so the two known ones are pinned
# in every round: the first raises in corpus.random_system, the second in
# cli.analyze.
CHECK_PINNED_DEFECTS = ((76037203, corpus.INTERVAL_SQUARE),
                        (52691923, corpus.INTERVAL_RECT))
# The corpus is cheap per pass next to 602 drawn systems; repeating it
# keeps the LAPACK-bound networks near a third of the timed phase.
CHECK_CORPUS_REPEATS = 12


def analyze_text(text):
    """The `phwell analyze --json` path: config text in, report text out."""
    system = config.system_from_dict(json.loads(text))
    return config.verdict_to_json(cli.analyze(system))


def verdict_key(report_text):
    """Discrete fields of one report: no floats, so last-bit noise cannot
    change the fingerprint."""
    doc = json.loads(report_text)
    conds = [(cid, c["applicable"], c["holds"])
             for cid, c in sorted(doc["conditions"].items())]
    return [doc["consensus"], doc["unitary"], doc["discrepancy"], conds]


def draw_and_analyze(seed, klass):
    """A random draw that raised in set-up: the call repeats the draw, so it
    fails the same way each round and is counted, not dropped."""
    system = corpus.random_system(seed, klass=klass)
    return analyze_text(json.dumps(config.system_to_dict(system)))


def build_check(seed, root):
    golden_dir = os.path.join(root, "tests", "golden")
    systems = []  # (call, expected verdicts or None, drawn with k == 0)
    for name, entry in corpus.CORPUS.items():
        with open(os.path.join(golden_dir, f"{name}.json")) as fh:
            golden = json.load(fh)
        expect = {"entry": (entry.contraction, entry.unitary),
                  "golden": (golden["consensus"], golden["unitary"])}
        text = json.dumps(config.system_to_dict(entry.system()))
        systems.append((functools.partial(analyze_text, text), expect, False))
    draws = []
    pool = np.random.default_rng(CHECK_POOL_SEED)
    for _ in range(CHECK_RANDOM_PER_CLASS):
        for klass in CHECK_CLASSES:
            draws.append((int(pool.integers(0, 2**31 - 1)), klass))
    for s, klass in draws + list(CHECK_PINNED_DEFECTS):
        try:
            system = corpus.random_system(s, klass=klass)
        except Exception:  # a library defect: the call below fails too
            systems.append((functools.partial(draw_and_analyze, s, klass), None, False))
            continue
        text = json.dumps(config.system_to_dict(system))
        systems.append((functools.partial(analyze_text, text), None,
                        system.n_conditions == 0))

    keys = [None] * len(systems)

    def make_check(i):
        _, expect, empty_boundary = systems[i]

        def check(out):
            if isinstance(out, Exception):
                key = ["error", type(out).__name__]
                if isinstance(out, ParseError) and empty_boundary:
                    kind = "config_empty_boundary"
                elif isinstance(out, SingularQ):
                    kind = "singular_q"
                else:
                    kind = _exception_kind(out)
            else:
                key = verdict_key(out)
                consensus, unitary, discrepancy = key[0], key[1], key[2]
                kind = None
                if discrepancy:
                    kind = "discrepancy"
                elif expect is not None:
                    if ((consensus == "contraction", unitary is True)
                            != expect["entry"]):
                        kind = "corpus_expectation"
                    elif (consensus, unitary) != expect["golden"]:
                        kind = "golden_mismatch"
            if keys[i] is None:
                keys[i] = key
            elif keys[i] != key:
                kind = kind or "verdict_changed_between_rounds"
            return kind

        return check

    def call(i):
        return Call("corpus" if i < len(corpus.CORPUS) else "random",
                    systems[i][0], make_check(i), _one_item)

    n_corpus = len(corpus.CORPUS)
    random_ids = [int(i) for i in np.random.default_rng(seed).permutation(
        np.arange(n_corpus, len(systems)))]
    chunk = -(-len(random_ids) // CHECK_CORPUS_REPEATS)
    calls = []
    for r in range(CHECK_CORPUS_REPEATS):
        calls.extend(call(i) for i in range(n_corpus))
        calls.extend(call(i) for i in random_ids[r * chunk:(r + 1) * chunk])

    systems[0][0]()  # warm-up item

    def summary():
        blob = json.dumps(keys, separators=(",", ":")).encode()
        return {"fingerprint": "sha256:" + hashlib.sha256(blob).hexdigest(),
                "fingerprint_systems": len(keys),
                "empty_boundary_draws": sum(s[2] for s in systems)}

    return Workload(calls, {"systems": len(systems), "corpus_repeats": CHECK_CORPUS_REPEATS,
                            "pool_seed": CHECK_POOL_SEED},
                    summary)


# ---------------------------------------------------------------------------
# oracle: `phwell oracle` traffic

ORACLE_SAMPLES = 64
# The oracle's cost per random system varies about 3x with N and with
# whether P0 vanishes (coefficient of variation ~0.9 per system), so a
# pool drawn from the benchmark seed would make items_per_s measure the
# draw.  The random systems therefore come from a fixed stream; the
# benchmark seed sets the oracle's own sampling seeds, which change the
# probe directions but not the work done.
ORACLE_POOL_SEED = 1709
ORACLE_POOL_SIZE = 8
# Each corpus entry runs twice a round (with two sampling seeds).  With one
# pass, the 9 cheap corpus calls and the 9 random ones split the round in
# half, so item_p50_ms fell between the two groups and rode on two single
# calls; with two, the median call lies inside the corpus group.
ORACLE_CORPUS_REPEATS = 2
PINNED_DEFECT_SEED = 2026557278
CROSS_CHECK_LIMIT = 1e-8


def build_oracle(seed, root):
    cheap = [(f"corpus:{name}", "corpus", e.system()) for name, e in corpus.CORPUS.items()]
    cheap = [e for e in cheap if e[2].interval == UNIT_INTERVAL] * ORACLE_CORPUS_REPEATS
    others = []
    pool = np.random.default_rng(ORACLE_POOL_SEED)
    for _ in range(ORACLE_POOL_SIZE):
        s = int(pool.integers(0, 2**31 - 1))
        others.append((f"random_system({s})", "random",
                       corpus.random_system(s, klass=corpus.INTERVAL_SQUARE)))
    others.append((f"random_system({PINNED_DEFECT_SEED})", "pinned",
                   corpus.random_system(PINNED_DEFECT_SEED, klass=corpus.INTERVAL_SQUARE)))
    # The cheap corpus calls are spread over the round, between the long
    # ones, so that one slow stretch of the host cannot move them all.
    per = len(cheap) // len(others)
    entries = []
    for k, other in enumerate(others):
        entries += cheap[k * per:(k + 1) * per] + [other]
    entries += cheap[len(others) * per:]

    failures_by_label = {}

    def make_call(i, label, group, system):
        t15 = cli.analyze(system)["T1.5"].holds  # reference verdict, set-up only
        sample_seed = seed * 1000 + i

        def check(out):
            kind = _exception_kind(out)
            if kind is None:
                if out.cross_check_max_diff > CROSS_CHECK_LIMIT:
                    kind = "oracle_cross_check"
                elif out.holds != t15:
                    kind = "oracle_missed_violation" if out.holds else "oracle_false_witness"
            if kind:
                failures_by_label[label] = kind
            return kind

        return Call(group, lambda: simulator.dissipativity_oracle(
            system, n_samples=ORACLE_SAMPLES, seed=sample_seed), check, _one_item)

    calls = [make_call(i, *e) for i, e in enumerate(entries)]
    simulator.dissipativity_oracle(entries[0][2], n_samples=ORACLE_SAMPLES, seed=0)  # warm-up

    return Workload(calls, {"calls": len(entries), "pool_seed": ORACLE_POOL_SEED,
                            "corpus_repeats": ORACLE_CORPUS_REPEATS,
                            "sampling_seeds": f"{seed * 1000}+i"},
                    lambda: {"disagreements": dict(sorted(failures_by_label.items()))})


# ---------------------------------------------------------------------------
# simulate: time-domain energy evidence

SIM_CFL = 0.45
SIM_HALFLINE_L = 10.0
ENERGY_RISE_LIMIT = 1e-3  # times E0, as in criterion 9


def _sim_cases():
    # name -> (system builder, nx, t_final, bump center, bump width).  The
    # runs are half as long as criterion 9's: a call costs the same per step,
    # and twice the rounds fit in a run, which steadies each call's median.
    return {
        "wave_interval_damped": (corpus.CORPUS["wave_interval_damped"].system,
                                 800, 0.5, 0.5, 0.25),
        "wave_piecewise_damped": (lambda: corpus.build_wave(
            UNIT_INTERVAL, 0.7, rho=([0.5], [1.0, 4.0])), 800, 0.5, 0.5, 0.25),
        "path_graph_d32": (corpus.CORPUS["path_graph_d32"].system, 400, 0.25, 0.4, 0.25),
        "transport_periodic": (corpus.CORPUS["transport_periodic"].system,
                               800, 0.5, 0.5, 0.3),
        "wave_halfline_u05": (corpus.CORPUS["wave_halfline_u05"].system,
                              800, 0.5, 3.0, 2.0),
    }


def _sim_check(out):
    kind = _exception_kind(out)
    if kind is None:
        if not np.all(np.isfinite(out.energy)):
            kind = "energy_not_finite"
        elif out.max_violation > ENERGY_RISE_LIMIT * out.energy[0]:
            kind = "energy_rise"
    return kind


def _sim_units(nx):
    def units(out):
        if isinstance(out, Exception):
            return {"items": 0, "steps": 0}
        steps = out.times.size - 1
        return {"items": nx * steps, "steps": steps}

    return units


def build_simulate(seed, root):
    rng = np.random.default_rng(seed)
    calls = []
    for name, (build, nx, t_final, center, width) in _sim_cases().items():
        system = build()
        # The seed moves the bump by up to a fifth of its width and scales it.
        x0 = simulator.smooth_bump(center + width * rng.uniform(-0.2, 0.2), width,
                                   system.dim_d, component=0,
                                   amplitude=rng.uniform(0.5, 2.0))

        def run(system=system, x0=x0, t_final=t_final, nx=nx):
            return simulator.simulate(system, x0, t_final=t_final, nx=nx,
                                      cfl=SIM_CFL, L=SIM_HALFLINE_L)

        calls.append(Call(name, run, _sim_check, _sim_units(nx)))
    warm = _sim_cases()["wave_interval_damped"][0]()
    simulator.simulate(warm, simulator.smooth_bump(0.5, 0.25, 2), t_final=0.05,
                       nx=32, cfl=SIM_CFL)  # warm-up
    return Workload(calls, {"cases": [c.group for c in calls]})


# ---------------------------------------------------------------------------
# resolvent: solve_resolvent_halfline

RES_L = 30.0
R1_CELLS = 30000
R2_LADDER = (1500, 3000, 6000)
R2_DRAWS = 3
R2_U = 0.6


def _res_units(r2):
    def units(out):
        if isinstance(out, Exception):
            return {"items": 0, "r2_points": 0}
        n = out[0].shape[1]
        return {"items": n, "r2_points": n if r2 else 0}

    return units


def build_resolvent(seed, root):
    # R1: closed form v = e^{-t}/2 for y = e^{-t}, positive block only.
    t = np.linspace(0.0, RES_L, R1_CELLS + 1)
    y1 = np.exp(-t)[None, :]
    exact = np.exp(-t) / 2
    dec1 = halfline.unit_decomposition(1, 0)

    def r1_check(out):
        kind = _exception_kind(out)
        if kind is None:
            v, res = out
            if res > 1e-6 or np.max(np.abs(v[0] - exact)) > 1e-5:
                kind = "resolvent_closed_form"
        return kind

    calls = [Call("R1", lambda: halfline.solve_resolvent_halfline(
        dec1, np.zeros((0, 1)), y1, L=RES_L), r1_check, _res_units(False))]

    # R2: coupled blocks, polynomial * e^{-t} data; every refinement must at
    # least halve the residual (order >= 1, as in criterion 8).
    dec2 = halfline.unit_decomposition(1, 1)
    U = np.array([[R2_U]])
    rng = np.random.default_rng(seed)
    residuals = {}
    for draw in range(R2_DRAWS):
        a, b, c = rng.normal(size=3)
        for m in R2_LADDER:
            tt = np.linspace(0.0, RES_L, m + 1)
            y = np.vstack([(a + b * tt + c * tt**2) * np.exp(-tt),
                           (a - c * tt) * np.exp(-tt)])

            def check(out, draw=draw, m=m):
                kind = _exception_kind(out)
                res = np.inf if kind else out[1]
                prev = residuals.get((draw, m // 2))
                if kind is None and prev is not None and res > prev / 2.0:
                    kind = "resolvent_order"
                residuals[(draw, m)] = res
                return kind

            calls.append(Call(f"R2_n{m}", lambda y=y: halfline.solve_resolvent_halfline(
                dec2, U, y, L=RES_L), check, _res_units(True)))

    ty = np.linspace(0.0, RES_L, 201)  # warm-up
    halfline.solve_resolvent_halfline(dec2, U, np.vstack([np.exp(-ty)] * 2), L=RES_L)
    return Workload(calls, {"r1_points": R1_CELLS + 1, "r2_ladder": list(R2_LADDER),
                            "r2_draws": R2_DRAWS})


BUILDERS = {
    "check": build_check,
    "oracle": build_oracle,
    "simulate": build_simulate,
    "resolvent": build_resolvent,
}
