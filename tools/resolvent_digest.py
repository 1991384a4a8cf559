"""Write every output of a fixed pool of half-line resolvent solves, for byte comparison.

The pool: solve_resolvent_halfline on data of four dtypes (float64,
complex128, float32, complex64), with a real and a complex coupling U
(one empty U when n2 = 0, where U is not read), for (n1, n2) in
{0, 1, 2}^2 and grids of 6, 7, 61 and 601 points; the benchmark's shapes
(n1, n2) in {(1, 0), (1, 1), (2, 2)} with float64 and complex128 data
also run at 3,001 and 30,001 points.  Lambda = (1.3, 0.02)[:n1], Theta =
(-0.4, -3.0)[:n2] and L = 30; the data are fixed polynomials times
exp(-t).  Every float of v and the residual is written as float.hex, so
a run that moves any of them by one ulp changes the file.  Run it once
per source tree and compare the two files; a change that must not move
a result leaves them byte-identical.

    PYTHONPATH=<tree>/src python tools/resolvent_digest.py OUT.json [--max-points M]

--max-points drops the grids above M points (default: the whole pool).
It prints the number of outputs and the sha256 of OUT.json.

Run as a script, it puts BLAS on one thread before numpy loads, as
tools/trace_digest.py does.  The last bits still depend on the machine:
the OpenBLAS kernel the CPU selects (the coupling U @ v1(0)) and
numpy's SIMD exp (the data and the decay factors) set them, so compare
files made on one machine.  Imported, it leaves the process's
environment alone.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import argparse
import hashlib
import json

import numpy as np

from phwell.halfline import HalfLineDecomposition, solve_resolvent_halfline

L = 30.0
DTYPES = ("float64", "complex128", "float32", "complex64")
POINTS = (6, 7, 61, 601)
LARGE_POINTS = (3001, 30001)
LARGE_SHAPES = ((1, 0), (1, 1), (2, 2))


def calls(max_points: int | None = None) -> dict:
    """name -> (decomposition, U, y), every grid of at most max_points points."""
    rng = np.random.default_rng(40)
    out = {}
    for dtype in DTYPES:
        for n1 in range(3):
            for n2 in range(3):
                decomp = HalfLineDecomposition(S=np.eye(n1 + n2, dtype=complex),
                                               Lambda=np.array([1.3, 0.02])[:n1],
                                               Theta=np.array([-0.4, -3.0])[:n2])
                large = (n1, n2) in LARGE_SHAPES and dtype in ("float64", "complex128")
                for field in ("real", "complex") if n2 else ("real",):
                    for npts in POINTS + (LARGE_POINTS if large else ()):
                        t = np.linspace(0.0, L, npts)
                        y = rng.normal(size=(n1 + n2, 3)) @ np.vstack([t ** 0, t, t * t])
                        y = y * np.exp(-t)
                        if np.dtype(dtype).kind == "c":
                            y = y + 1j * rng.normal(size=y.shape) * np.exp(-t)
                        U = rng.normal(size=(n2, n1))
                        if field == "complex":
                            U = U + 1j * rng.normal(size=U.shape)
                        if max_points is None or npts <= max_points:
                            name = f"{dtype}/U_{field}/n1={n1},n2={n2}/{npts}"
                            out[name] = (decomp, U, y.astype(dtype))
    return out


def _hex(a) -> dict:
    """a's shape and every float as float.hex, complex entries as re and im parts."""
    a = np.asarray(a)
    out = {"shape": list(a.shape), "re": [float(v).hex() for v in a.real.ravel()]}
    if np.iscomplexobj(a):
        out["im"] = [float(v).hex() for v in a.imag.ravel()]
    return out


def digest(max_points: int | None = None) -> dict:
    out = {}
    for name, (decomp, U, y) in calls(max_points).items():
        v, residual = solve_resolvent_halfline(decomp, U, y, L=L)
        out[name] = {"v": _hex(v), "residual": residual.hex()}
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--max-points", type=int, default=None)
    args = ap.parse_args(argv)
    out = digest(args.max_points)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
    with open(args.out, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    print(f"{len(out)} outputs, sha256 {sha}")


if __name__ == "__main__":
    main()
