"""Snapshot the benchmark of one source tree into a BENCH_<n>.json file.

Runs perfbench/run.py of the tree this file sits in, each run in a fresh
process: every workload once per seed at --trace 0 (end-to-end metrics)
and once at --trace 1 (per-layer rows), one run at a time.  The file holds
the git commit of the tree, the `env` line of the first run (machine,
versions, BLAS pin), and per workload the median and quartiles of each
end-to-end metric over the seeds, the per-layer rows and each seed's
`outputs` line (failures, known defects, the `check` fingerprint).  Every
workload runs over seeds 1-3 for 25 s a run, the harness's own run length,
so a snapshot takes about 8 minutes.

    python tools/bench_snapshot.py BENCH_33.json

The git record names the commit and, when tracked files differ from it,
the git tree ids of the working tree's `src` and `perfbench`: a commit
whose `git rev-parse COMMIT:src` prints the same id ran the same code.
The objects behind those ids go to a temporary object directory, so the
repository's `.git` gains none.
To compare two trees, copy this file into the other tree's tools/ and run
it there on the same machine.  It prints one line per run and exits 1 if
a run fails or prints no result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("check", "oracle", "simulate", "resolvent")
SEEDS = (1, 2, 3)
SECONDS = 25.0


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py process: its env, outputs and result lines as dicts."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 3:
        raise SystemExit(f"{' '.join(cmd)} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    env, outputs, result = lines[-3:]
    return {"env": json.loads(env.removeprefix("env ")),
            "outputs": json.loads(outputs.removeprefix("outputs ")),
            "result": json.loads(result)}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "values": list(values)}


def git_commit(root: Path = ROOT) -> dict:
    def git(*args, env=None):
        out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                             env=env)
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    out = {"commit": git("rev-parse", "HEAD"),
           "dirty": None if status is None else bool(status)}
    if out["dirty"]:
        # a commit object of the working tree's tracked files, bound to no ref;
        # its new objects go to a throwaway directory that reads the
        # repository's objects as alternates, so the ids are the same
        objects = git("rev-parse", "--path-format=absolute", "--git-path", "objects")
        with tempfile.TemporaryDirectory() as scratch:
            env = {**os.environ, "GIT_OBJECT_DIRECTORY": scratch,
                   "GIT_ALTERNATE_OBJECT_DIRECTORIES": objects}
            stash = git("stash", "create", env=env)
            out["trees"] = {path: git("rev-parse", f"{stash}:{path}", env=env)
                            for path in ("src", "perfbench")}
    return out


def snapshot(workloads, seeds, seconds: float) -> dict:
    out = {**git_commit(), "seconds": seconds, "seeds": list(seeds), "env": None,
           "workloads": {}}
    for workload in workloads:
        plain = []
        for seed in seeds:
            run = run_once(workload, seed, seconds, trace=0)
            print(f"{workload} seed {seed}: "
                  f"{run['result']['metrics']['items_per_s']['value']:.6g} items/s",
                  flush=True)
            plain.append(run)
        traced = run_once(workload, seeds[0], seconds, trace=1)
        print(f"{workload} traced", flush=True)
        if out["env"] is None:
            out["env"] = plain[0]["env"]
        names = plain[0]["result"]["metrics"]
        out["workloads"][workload] = {
            "end_to_end": {
                name: {"unit": names[name]["unit"],
                       **quartiles([r["result"]["metrics"][name]["value"] for r in plain])}
                for name in names},
            "layers": traced["result"]["metrics"],
            "outputs": {str(seed): r["outputs"] for seed, r in zip(seeds, plain)},
            "correct": all(r["result"]["correct"] for r in [*plain, traced]),
        }
    return out


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} BENCH_<n>.json")
    out = Path(sys.argv[1])
    data = snapshot(WORKLOADS, SEEDS, SECONDS)
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
