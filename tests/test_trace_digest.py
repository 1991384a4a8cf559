import hashlib
import importlib.util
import json
import os
import subprocess
from pathlib import Path
from sys import executable

import numpy as np

from phwell import simulate, smooth_bump
from phwell.corpus import CORPUS

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "trace_digest.py"
# the whole pool at --t-scale 0.02 with BLAS on one thread, which the script
# sets itself: path_graph_d32's 12,800-entry energy dot products round by the
# BLAS thread count.  The hash is also tied to the OpenBLAS dot kernel the CPU
# selects and to numpy's SIMD exp (the bumps); it was taken with numpy's
# OpenBLAS 0.3.31 (DYNAMIC_ARCH) on an AVX-512 x86-64 host.  On a host where
# the parent tree prints another value, this pin fails with no code change:
# re-derive it there from the parent before reading the failure as a trace
# regression.
SMALL_POOL_SHA256 = "048301f1d5aac8cc2ee619336f53ca1b00e0864d1308e0c2679fc0583a9432cd"


def test_trace_digest_writes_every_field_of_the_whole_pool(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    environ = dict(os.environ)
    spec.loader.exec_module(script)
    assert dict(os.environ) == environ  # only a script run pins BLAS threads
    out = tmp_path / "digest.json"
    script.main([str(out), "--t-scale", "0.02"])
    data = json.loads(out.read_text())
    assert sorted(data) == sorted(script.runs())
    assert len(data) == 12
    assert capsys.readouterr().out.startswith(f"{len(data)} outputs, sha256 ")

    # the file holds the run's own floats, bit for bit
    sys = CORPUS["path_graph_d32"].system()
    tr = simulate(sys, smooth_bump(0.4, 0.25, sys.dim_d), t_final=0.25 * 0.02, nx=400,
                  cfl=script.CFL)
    got = data["bench/path_graph_d32"]
    assert set(got) == {"times", "energy", "boundary_power", "interior_power",
                        "max_violation", "notes", "snapshots", "cell_centers",
                        "final_state"}
    assert got["energy"]["re"] == [v.hex() for v in tr.energy]
    final = got["final_state"]
    assert final["shape"] == [32, 400]
    state = (np.array([float.fromhex(v) for v in final["re"]])
             + 1j * np.array([float.fromhex(v) for v in final["im"]]))
    np.testing.assert_array_equal(state.reshape(32, 400), tr.final_state)
    # the P0 != 0 run and the snapshot runs record what they name
    assert any(v != "0x0.0p+0" for v in data["p0_complex"]["interior_power"]["re"])
    assert len(data["seed/path_graph_d8"]["snapshots"]) == 1
    assert len(data["complex_start"]["snapshots"]) == 1


def test_trace_digest_of_a_short_pool_is_pinned(tmp_path):
    # a change that moves any trace of the 12 runs by one ulp fails here;
    # the complex_start run guards the complex assembly of a real system
    # with a complex start state.  Two BLAS threads asked for in the
    # environment are overridden by the script's one.
    out = tmp_path / "digest.json"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "MKL_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([executable, str(SCRIPT), str(out), "--t-scale", "0.02"],
                         env=env, capture_output=True, text=True, check=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SMALL_POOL_SHA256
    assert run.stdout == f"12 outputs, sha256 {SMALL_POOL_SHA256}\n"
