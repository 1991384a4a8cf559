"""Command-line interface.

Subcommands: analyze, simulate, oracle, corpus, sweep.  Exit codes:
0 success, 1 usage error, 2 validation/parse error, 3 discrepancy
detected (two provably equivalent conditions disagreed numerically, a
corpus entry missed its recorded verdict, or the oracle or a simulation
contradicted analyze by oracle.oracle_contradiction or
simulator.energy_contradiction -- all bug signals).
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys

import numpy as np

from . import analyze
from . import corpus as corpus_mod
from .config import parse_config, verdict_to_json
from .errors import PhwellError
from .oracle import dissipativity_oracle, oracle_contradiction
from .simulator import energy_contradiction, simulate, smooth_bump

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_DISCREPANCY = 3


def _print_text_verdict(verdict):
    for c in verdict.conditions:
        if not c.applicable:
            status = "not applicable" + (f" ({c.reason})" if c.reason else "")
        else:
            status = "holds" if c.holds else "fails"
        print(f"  {c.condition_id:8s} {status}")
    print(f"consensus:   {verdict.consensus}")
    uni = {True: "yes", False: "no", None: "undetermined"}[verdict.unitary]
    print(f"unitary:     {uni}")
    print(f"discrepancy: {'YES (bug signal)' if verdict.discrepancy else 'no'}")
    for w in verdict.warnings:
        print(f"warning: {w}")


def _cmd_analyze(args) -> int:
    system = parse_config(args.config)
    verdict = analyze(system)
    if args.json:
        print(verdict_to_json(verdict))
    else:
        _print_text_verdict(verdict)
    return EXIT_DISCREPANCY if verdict.discrepancy else EXIT_OK


def _cmd_simulate(args) -> int:
    out_dir = os.path.dirname(args.out)
    if out_dir and not os.path.isdir(out_dir):
        raise PhwellError(f"--out directory {out_dir!r} does not exist")
    if os.path.isdir(args.out):
        raise PhwellError(f"--out {args.out!r} is a directory, not a file")
    system = parse_config(args.config)
    x0 = smooth_bump(args.bump_center, args.bump_width, system.dim_d,
                     component=args.component)
    try:
        snaps = [float(t) for t in args.snap.split(",")] if args.snap else []
    except ValueError:
        raise PhwellError(
            f"--snap takes comma-separated times, got {args.snap!r}") from None
    trace = simulate(system, x0, t_final=args.tfinal, nx=args.cells,
                     cfl=args.cfl, L=args.length, snapshot_times=snaps)
    trace.to_csv(args.out)
    for note in trace.notes:
        print(f"note: {note}")
    for t, state in trace.snapshots:
        path = f"{os.path.splitext(args.out)[0]}_t{t:g}.csv"
        np.savetxt(path, np.real(state.T), delimiter=",")
        print(f"snapshot t={t:g} -> {path}")
    print(f"E(0) = {trace.energy[0]:.6e}   E(T) = {trace.energy[-1]:.6e}   "
          f"max step increase = {trace.max_violation:.3e}")
    print(f"trace -> {args.out}")
    if reason := energy_contradiction(trace, analyze(system)):
        print(f"CONTRADICTION: {reason}")
        return EXIT_DISCREPANCY
    return EXIT_OK


def _cmd_oracle(args) -> int:
    system = parse_config(args.config)
    report = dissipativity_oracle(system)
    doc = {
        "holds": report.holds,
        "vacuous": report.vacuous,
        "kernel_dim": report.kernel_dim,
        "max_value": report.max_value,
        "cross_check_max_diff": report.cross_check_max_diff,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    if reason := oracle_contradiction(system, report, analyze(system)):
        print(f"CONTRADICTION: {reason}", file=_sys.stderr)
        return EXIT_DISCREPANCY
    return EXIT_OK


def _cmd_corpus(args) -> int:
    if args.run is None:
        for name in corpus_mod.corpus_names():
            entry = corpus_mod.get_entry(name)
            flags = f"contraction={entry.contraction} unitary={entry.unitary}"
            print(f"{name:24s} {flags}")
        return EXIT_OK
    try:
        entry = corpus_mod.get_entry(args.run)
    except KeyError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    system = entry.system()
    verdict = analyze(system)
    _print_text_verdict(verdict)
    print(f"note: {entry.note}")
    got = (verdict.consensus == "contraction", verdict.unitary is True)
    want = (entry.contraction, entry.unitary)
    if verdict.discrepancy or got != want:
        print(f"MISMATCH: expected contraction={want[0]} unitary={want[1]}")
        return EXIT_DISCREPANCY
    print("verdict matches the recorded expectation")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.count < 0 or args.seed < 0:
        raise PhwellError(f"--count and --seed must be >= 0, got {args.count} "
                          f"and {args.seed}")
    rng_seeds = np.random.default_rng(args.seed).integers(0, 2**31 - 1,
                                                          size=2 * args.count)
    bad = 0
    for klass, label, seeds in (("interval_square", "interval", rng_seeds[:args.count]),
                                ("halfline", "halfline", rng_seeds[args.count:])):
        for seed in seeds:
            if analyze(corpus_mod.random_system(int(seed), klass=klass)).discrepancy:
                bad += 1
                print(f"DISCREPANCY {label} seed={seed}")
    print(f"sweep: {2 * args.count} systems, {bad} discrepancies")
    return EXIT_DISCREPANCY if bad else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="phwell",
        description="well-posedness checks and energy simulation for 1-D "
                    "port-Hamiltonian systems")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run every applicable condition on a config")
    pa.add_argument("config")
    group = pa.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="JSON report")
    group.add_argument("--text", action="store_true", help="plain text (default)")
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("simulate", help="upwind energy simulation (N = 1)")
    ps.add_argument("config")
    ps.add_argument("--tfinal", type=float, required=True)
    ps.add_argument("--cells", type=int, required=True)
    ps.add_argument("--cfl", type=float, default=0.8)
    ps.add_argument("--length", type=float, default=10.0,
                    help="truncation length for half-line systems")
    ps.add_argument("--out", default="trace.csv")
    ps.add_argument("--bump-center", type=float, default=0.3)
    ps.add_argument("--bump-width", type=float, default=0.15)
    ps.add_argument("--component", type=int, default=0)
    ps.add_argument("--snap", default="",
                    help="comma-separated times for full state snapshots")
    ps.set_defaults(func=_cmd_simulate)

    po = sub.add_parser("oracle", help="quadrature dissipativity oracle")
    po.add_argument("config")
    po.set_defaults(func=_cmd_oracle)

    pc = sub.add_parser("corpus", help="list or run the built-in examples")
    pc.add_argument("--list", action="store_true", help="list entries (default)")
    pc.add_argument("--run", metavar="NAME", default=None)
    pc.set_defaults(func=_cmd_corpus)

    pw = sub.add_parser("sweep", help="random equivalence sweep; exit 3 on discrepancy")
    pw.add_argument("--count", type=int, default=50)
    pw.add_argument("--seed", type=int, default=0)
    pw.set_defaults(func=_cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except PhwellError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
