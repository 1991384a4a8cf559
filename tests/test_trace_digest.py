import importlib.util
import json
from pathlib import Path

import numpy as np

from phwell import simulate, smooth_bump
from phwell.corpus import CORPUS

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "trace_digest.py"


def test_trace_digest_writes_every_field_of_the_whole_pool(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
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
