"""Write every analysis report and oracle output of a fixed pool, for byte comparison.

The pool: `analyze --json` reports (each system written to a JSON config
and parsed back, as `phwell analyze` reads it) for the corpus and seeds
0..S-1 of the three random classes, plus `dissipativity_oracle` outputs on
every corpus entry and `random_system(seed, N=1)` for seeds 0..O-1.  Run it once per source tree and compare the two files; a change
that must not move a report leaves them byte-identical.

    PYTHONPATH=<tree>/src python tools/report_digest.py OUT.json [--seeds S] [--oracle-seeds O]

It prints the number of outputs and the sha256 of OUT.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import tempfile

import numpy as np

from phwell import analyze, config, corpus
from phwell.oracle import dissipativity_oracle

CLASSES = ("interval_square", "interval_rect", "halfline")


def _round_trip(system, tmp: str):
    path = os.path.join(tmp, "system.json")
    with open(path, "w") as fh:
        json.dump(config.system_to_dict(system), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return config.parse_config(path)


def _oracle(system) -> str:
    r = dissipativity_oracle(system)
    witness = None
    if r.witness is not None:  # each term's cutoff, and its coefficients' bytes hashed
        witness = [(kind, hashlib.sha256(np.ascontiguousarray(c).tobytes()).hexdigest())
                   for kind, c, _ in r.witness.terms]
    return repr((r.holds, r.kernel_dim, r.max_value, r.cross_check_max_diff, witness))


def digest(seeds: int, oracle_seeds: int) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in corpus.corpus_names():
            system = _round_trip(corpus.CORPUS[name].system(), tmp)
            out[f"corpus/{name}"] = config.verdict_to_json(analyze(system))
        for klass in CLASSES:
            for seed in range(seeds):
                system = _round_trip(corpus.random_system(seed, klass=klass), tmp)
                out[f"{klass}/{seed}"] = config.verdict_to_json(analyze(system))
    for name in corpus.corpus_names():
        out[f"oracle/{name}"] = _oracle(corpus.CORPUS[name].system())
    for seed in range(oracle_seeds):
        out[f"oracle/seed{seed}"] = _oracle(
            corpus.random_system(seed, N=1, klass="interval_square"))
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--seeds", type=int, default=300)
    ap.add_argument("--oracle-seeds", type=int, default=12)
    args = ap.parse_args(argv)
    out = digest(args.seeds, args.oracle_seeds)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
    with open(args.out, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    print(f"{len(out)} outputs, sha256 {sha}")


if __name__ == "__main__":
    main()
