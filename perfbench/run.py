"""phwell benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved
from this file).  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs the same rounds first plain and then with every layer
wrapped, and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
Earlier lines carry the environment record and the output summary (the
verdict fingerprint on `check`).  See perfbench/README.md.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# BLAS pinned to one thread in this process only; set before numpy loads.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)
sys.dont_write_bytecode = True  # the run leaves no files behind

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Set-up is timed in this process and in SETUP_SAMPLES - 1 fresh ones, and
# the median reported.  Most of it is importing scipy, which one process
# times with a quartile spread of about 0.25 over runs.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
WORKLOADS = ("check", "oracle", "simulate", "resolvent")
# Host speed probe.  On the shared host this benchmark was written on, the
# same code ran up to 2x slower for stretches of seconds to minutes, and
# the workloads' wall times moved with this fixed kernel.  So the probe
# runs between calls, after each PROBE_EVERY_S of timed work (outside
# every timed call), and each call's time is reported at reference speed:
# multiplied by REFERENCE_PROBE_S / the mean of the probes just before and
# just after it.  Over six runs each of check, oracle and simulate this gave
# quartile spreads of 0.03-0.05, against 0.06-0.13 for the median probe of
# the whole run and 0.03-0.09 for the median of the three probes each side.
REFERENCE_PROBE_S = 0.016
PROBE_EVERY_S = 0.25


def probe_s():
    """Wall time of a fixed kernel: an interpreter loop, small-array numpy
    steps, medium-array ufuncs and small matrix products."""
    t = time.perf_counter()
    acc = 0
    for i in range(125_000):
        acc += i
    a = np.ones(50)
    for _ in range(2_500):
        a = a * 1.0000001 + 1e-9
    x = np.linspace(0.0, 1.0, 4000)
    for _ in range(150):
        x = x + 1e-9 * (np.sin(x) * x + np.exp(-x))
    m = np.full((32, 32), 0.01)
    for _ in range(150):
        m = m @ m * 0.5 + 0.01
    return time.perf_counter() - t


class Phase:
    """Timings, failures and completed work of one run of whole rounds."""

    def __init__(self):
        self.rounds = []  # per round, the wall time of each call
        self.after = []  # per round, the index of the first probe after each call
        self.probes = []  # host speed probe times taken between calls
        self.failures = Counter()
        self.units = Counter()

    @property
    def calls(self):
        return sum(len(times) for times in self.rounds)

    @property
    def scale(self):
        return REFERENCE_PROBE_S / statistics.median(self.probes)

    def speed(self, k):
        """Probe time around the calls timed between probes k - 1 and k."""
        return (self.probes[k - 1] + self.probes[k]) / 2.0

    def robust_call_s(self, at_reference=True):
        """Each call's median wall time over the rounds.

        The calls are the same in every round, so this discards a call
        slowed by a burst of load on the host without dropping any work.
        With at_reference, each time is first scaled to reference host
        speed by the probes taken around it.
        """
        if not at_reference:
            return [statistics.median(ts) for ts in zip(*self.rounds)]
        return [statistics.median(t * REFERENCE_PROBE_S / self.speed(k) for t, k in zip(ts, ks))
                for ts, ks in zip(zip(*self.rounds), zip(*self.after))]


def run_rounds(workload, seconds, phase, tracer=None):
    """Repeat whole rounds; start another only if it fits in `seconds`.

    At least one round runs.  Output checks happen outside the timed calls.
    """
    clock = time.perf_counter
    start = clock()
    phase.probes.append(probe_s())
    waiting = []  # (probe indices of a round, call index) timed since the last probe
    since_probe = 0.0

    def probe():
        phase.probes.append(probe_s())
        for after, j in waiting:
            after[j] = len(phase.probes) - 1
        waiting.clear()

    while True:
        times, after = [], [None] * len(workload.calls)
        phase.rounds.append(times)
        phase.after.append(after)
        for j, call in enumerate(workload.calls):
            t = clock()
            try:
                if tracer is None:
                    out = call.run()
                else:
                    out = tracer.call("item:" + call.group, call.run)
            except Exception as exc:  # counted as a failed operation below
                out = exc
            times.append(clock() - t)
            waiting.append((after, j))
            since_probe += times[-1]
            if since_probe >= PROBE_EVERY_S:
                probe()
                since_probe = 0.0
            kind = call.check(out)
            if kind:
                phase.failures[kind] += 1
            phase.units.update(call.units(out))
            phase.units["calls"] += 1
            # Drop the result before the next call.  Holding it raised
            # peak_rss_mb by 3 MB on simulate from a round that varied
            # with the host's speed.
            del out
        if clock() - start + sum(times) > seconds:
            if waiting:
                probe()
            return phase


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_PIN,
        "phwell_tol": os.environ.get("PHWELL_TOL"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(phase, setup_s, at_reference=True):
    call_s = phase.robust_call_s(at_reference)
    failed = sum(phase.failures.values())
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (phase.units["items"] / len(phase.rounds) / sum(call_s), "1/s"),
        "item_p50_ms": (float(np.percentile(call_s, 50)) * 1e3, "ms"),
        "item_p95_ms": (float(np.percentile(call_s, 95)) * 1e3, "ms"),
        "ok_frac": (1.0 - failed / phase.calls, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_metrics(workload, build, args, phases, tracer_mod, layers):
    """Plain rounds, then the same rounds traced, then a traced set-up."""
    plain = run_rounds(workload, args.seconds / 2.0, phases[0])
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    try:
        traced = run_rounds(workload, args.seconds / 2.0, phases[1], tracer)
    finally:
        tracer.uninstall()
    setup_tracer = tracer_mod.Tracer()
    tracer_mod.install(setup_tracer)
    try:
        build(args.seed, ROOT)
    finally:
        setup_tracer.uninstall()
    leftover = tracer_mod.leftover_wrappers()
    if leftover:
        raise RuntimeError(f"wrappers left installed: {leftover}")
    overhead = 100.0 * (sum(traced.robust_call_s()) / sum(plain.robust_call_s()) - 1.0)
    ctx = layers.Ctx(tracer, traced.units, setup_tracer, overhead, traced.scale)
    return layers.compute(ctx), overhead


def setup_sample(args):
    """Import plus set-up time of the workload in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--setup-sample"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["import_s"] + sample["build_s"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "phwell", "__init__.py")):
        print(f"error: phwell sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import layers
    import tracer as tracer_mod
    import workloads

    import_s = time.perf_counter() - _T0
    t = time.perf_counter()
    workload = workloads.BUILDERS[args.workload](args.seed, ROOT)
    build_s = time.perf_counter() - t
    if args.setup_sample:
        print(json.dumps({"import_s": import_s, "build_s": build_s}))
        return 0
    setup_samples, setup_probes = [import_s + build_s], [probe_s()]
    while not args.trace and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_sample(args))
        setup_probes.append(probe_s())
    setup_raw_s = statistics.median(setup_samples)

    env = environment(args)
    phases = [Phase(), Phase()]
    if args.trace:
        metrics, overhead = traced_metrics(workload, workloads.BUILDERS[args.workload],
                                           args, phases, tracer_mod, layers)
        env["trace_overhead_pct"] = overhead
    else:
        run_rounds(workload, args.seconds, phases[0])
        # Set-up takes a few seconds, too few probes to scale it alone; the
        # host speed of this process's whole life is steadier.
        setup_s = setup_raw_s * REFERENCE_PROBE_S / statistics.median(
            setup_probes + phases[0].probes)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in end_to_end(phases[0], setup_s).items()}
        env["raw_wall_metrics"] = {k: v for k, (v, _) in
                                   end_to_end(phases[0], setup_raw_s, False).items()}
        env["trace_overhead_pct"] = None  # measured by --trace 1 only
    attempted = phases[0].calls + phases[1].calls
    env.update(calls=attempted, rounds=[len(phase.rounds) for phase in phases],
               calls_per_round=len(workload.calls),
               calls_beyond_p95=int(0.05 * len(workload.calls)),
               setup_samples_s=setup_samples, import_s=import_s,
               round_s=[[sum(r) for r in phase.rounds] for phase in phases],
               probe_s=[phase.probes for phase in phases], setup_probe_s=setup_probes)
    failures = phases[0].failures + phases[1].failures
    unknown = sorted(k for k in failures if k not in workloads.KNOWN_DEFECTS)
    outputs = {"failures": dict(failures), "unexpected_failures": unknown,
               "known_defects": {k: workloads.KNOWN_DEFECTS[k] for k in failures
                                 if k in workloads.KNOWN_DEFECTS},
               **workload.notes}
    if workload.summary is not None:
        outputs.update(workload.summary())

    print("env " + json.dumps(env, sort_keys=True))
    print("outputs " + json.dumps(outputs, sort_keys=True))
    print(json.dumps({"correct": not unknown, "attempted": attempted,
                      "failed": sum(failures.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
