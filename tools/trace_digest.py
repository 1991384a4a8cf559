"""Write every EnergyTrace field of a fixed pool of simulate runs, for byte comparison.

The pool: the five cases of the benchmark's `simulate` workload at its
nx, cfl and half-line length (bump at the nominal centre, amplitude 1),
the recorded seed runs of tests/test_simulation.py, one system with a
complex non-symmetric P0 != 0, and one complex start state.  Every float is written as
float.hex, so a run that moves any state, energy or power by one ulp
changes the file.  Run it once per source tree and compare the two files;
a change that must not move a result leaves them byte-identical.

    PYTHONPATH=<tree>/src python tools/trace_digest.py OUT.json [--t-scale F]

--t-scale multiplies every run's t_final and snapshot times (default 1,
the full pool).  It prints the number of outputs and the sha256 of OUT.json.

Run as a script, it puts BLAS on one thread before numpy loads: the
path_graph_d32 energies are dot products over 12,800 entries, which a
multithreaded BLAS splits by the thread count, so without this one tree
gives another file on a host with another core count.  The last bits
still depend on the machine: the OpenBLAS dot kernel the CPU selects and
numpy's SIMD exp (the bumps) set them, so compare files made on one
machine.  Imported, it leaves the process's environment alone.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import argparse
import dataclasses
import hashlib
import json

import numpy as np

from phwell import HamiltonianDensity, corpus, simulate, smooth_bump, validate_system
from phwell.model import UNIT_INTERVAL

CFL = 0.45
HALF_LINE_L = 10.0


def _piecewise_wave():
    return corpus.build_wave(UNIT_INTERVAL, 0.7, rho=([0.5], [1.0, 4.0]))


def _p0_system():
    P0 = np.array([[-1.0 + 0.5j, 2.0 - 1.0j], [-0.3j, -2.0 + 0.2j]])
    return validate_system({
        "field": "complex", "interval": UNIT_INTERVAL, "N": 1, "d": 2,
        "P": [P0, np.array([[0.0, 1.0], [1.0, 0.0]])],
        "H": HamiltonianDensity.constant(np.array([[2.0, 0.5], [0.5, 1.0]])),
        "WB_hat": np.array([[0.7, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
    })


def _complex_start(nx):
    z = (np.arange(nx) + 0.5) / nx
    a = np.stack([np.exp(-80 * (z - 0.4) ** 2), np.sin(np.pi * z)])
    b = np.stack([np.cos(3 * z), np.exp(-60 * (z - 0.6) ** 2)])
    return a + 1j * b


def runs() -> dict:
    """name -> (system builder, nx, t_final, x0 (or (center, width)), snapshot times)."""
    bench = {
        "wave_interval_damped": (corpus.CORPUS["wave_interval_damped"].system,
                                 800, 0.5, (0.5, 0.25)),
        "wave_piecewise_damped": (_piecewise_wave, 800, 0.5, (0.5, 0.25)),
        "path_graph_d32": (corpus.CORPUS["path_graph_d32"].system, 400, 0.25, (0.4, 0.25)),
        "transport_periodic": (corpus.CORPUS["transport_periodic"].system,
                               800, 0.5, (0.5, 0.3)),
        "wave_halfline_u05": (corpus.CORPUS["wave_halfline_u05"].system,
                              800, 0.5, (3.0, 2.0)),
    }
    seed = {
        "wave_interval_damped": (lambda: corpus.build_wave(UNIT_INTERVAL, 0.7),
                                 200, 0.5, (0.5, 0.25)),
        "wave_piecewise_damped": (_piecewise_wave, 200, 0.5, (0.5, 0.25)),
        "path_graph_d8": (corpus.CORPUS["path_graph_d8"].system, 100, 0.25, (0.4, 0.25)),
        "transport_periodic": (corpus.CORPUS["transport_periodic"].system,
                               200, 0.5, (0.5, 0.3)),
        "wave_halfline_u05": (corpus.CORPUS["wave_halfline_u05"].system,
                              400, 1.5, (3.0, 2.0)),
    }
    out = {f"bench/{k}": (*v, ()) for k, v in bench.items()}
    out.update({f"seed/{k}": (*v, (v[2] / 2,)) for k, v in seed.items()})
    out["p0_complex"] = (_p0_system, 64, 0.2, (0.5, 0.25), (0.1,))
    out["complex_start"] = (corpus.CORPUS["wave_interval_damped"].system, 100, 0.3,
                            _complex_start(100), (0.1,))
    return out


def _hex(value):
    """value with every float as float.hex; complex arrays as their re and im parts."""
    if isinstance(value, tuple):
        return [_hex(v) for v in value]
    if isinstance(value, str):
        return value
    a = np.asarray(value)
    out = {"shape": list(a.shape),
           "re": [float(v).hex() for v in a.real.ravel()]}
    if np.iscomplexobj(a):
        out["im"] = [float(v).hex() for v in a.imag.ravel()]
    return out


def digest(t_scale: float = 1.0) -> dict:
    out = {}
    for name, (build, nx, t_final, x0, snaps) in runs().items():
        system = build()
        if isinstance(x0, tuple):
            x0 = smooth_bump(x0[0], x0[1], system.dim_d)
        trace = simulate(system, x0, t_final=t_final * t_scale, nx=nx, cfl=CFL,
                         L=HALF_LINE_L, snapshot_times=[t * t_scale for t in snaps])
        out[name] = {f.name: _hex(getattr(trace, f.name))
                     for f in dataclasses.fields(trace)}
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--t-scale", type=float, default=1.0)
    args = ap.parse_args(argv)
    out = digest(args.t_scale)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
    with open(args.out, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    print(f"{len(out)} outputs, sha256 {sha}")


if __name__ == "__main__":
    main()
