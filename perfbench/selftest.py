"""Self-test of the benchmark itself (not of phwell).

    python3 perfbench/selftest.py

Runs every workload briefly and checks that
  * the metrics printed are exactly those BENCHMARK.json names, with the
    same units, and that BENCHMARK.json's per-layer list is layers.py's;
  * every count metric repeats exactly across two traced runs, and the
    `check` verdict fingerprint repeats across runs;
  * installing and removing the tracer leaves every phwell name bound to
    its original object, so untraced rounds measure unwrapped code;
  * every per-layer metric is documented in perfbench/README.md;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.  Takes about four minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import tracer  # noqa: E402

SECONDS = "1"  # one plain and one traced round per run
WORKLOADS = ("check", "oracle", "simulate", "resolvent")
problems = []


def expect(ok, message):
    if not ok:
        problems.append(message)


def run(workload, trace, cwd=ROOT, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    outputs = json.loads(next(ln for ln in lines if ln.startswith("outputs "))[8:])
    return json.loads(lines[-1]), outputs


def check_names(result, spec, where):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    expect(got == want, f"{where}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[k for k in want if k in got and got[k] != want[k]]}")


def test_wrappers_removed():
    from phwell import halfline, interval, numlin, simulator

    t = tracer.Tracer()
    tracer.install(t)
    patched = t.patched()
    expect(len(tracer.leftover_wrappers()) == len(patched),
           "install did not bind a wrapper to every patched name")
    for module in (numlin, interval, halfline, simulator):
        expect(any(owner is module for owner, _, _ in patched),
               f"install wrapped nothing in {module.__name__}")
    t.uninstall()
    expect(tracer.leftover_wrappers() == [], "wrappers left after uninstall")
    for owner, attr, original in patched:
        expect(vars(owner)[attr] is original,
               f"{getattr(owner, '__name__', owner)}.{attr} not restored")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == [(n, u, b) for n, u, b, *_ in layers.LAYER_METRICS],
           "BENCHMARK.json per_layer differs from layers.LAYER_METRICS")
    with open(os.path.join(HERE, "README.md")) as fh:
        readme = fh.read()
    for name, *_ in layers.LAYER_METRICS:
        expect(f"`{name}`" in readme, f"README.md does not document {name}")

    test_wrappers_removed()

    fingerprints = []
    for workload in WORKLOADS:
        plain = run(workload, 0)
        expect(plain.returncode == 0, f"{workload} --trace 0 failed: {plain.stderr[-500:]}")
        if plain.returncode:
            continue
        result, outputs = parse(plain)
        expect(result["correct"], f"{workload}: correct is false ({outputs['failures']})")
        check_names(result, bench["end_to_end"], f"{workload} --trace 0")
        counts = []
        for _ in range(2):
            traced = run(workload, 1)
            expect(traced.returncode == 0, f"{workload} --trace 1 failed: {traced.stderr[-500:]}")
            if traced.returncode:
                break
            result, outputs = parse(traced)
            check_names(result, bench["per_layer"], f"{workload} --trace 1")
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] == "count"})
            if workload == "check":
                fingerprints.append(outputs["fingerprint"])
        if len(counts) == 2:
            expect(counts[0] == counts[1], f"{workload}: counts differ between traced "
                                           f"runs: {counts[0]} vs {counts[1]}")
        if workload == "check":
            fingerprints.append(parse(plain)[1]["fingerprint"])
    expect(len(set(fingerprints)) == 1, f"check fingerprints differ: {fingerprints}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("check", 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "run.py without the sources must exit non-zero and print no result")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
