import importlib.util
import json
import os
from pathlib import Path

import numpy as np

from phwell.halfline import solve_resolvent_halfline

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "resolvent_digest.py"


def test_resolvent_digest_writes_every_output_of_the_short_pool(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("resolvent_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    environ = dict(os.environ)
    spec.loader.exec_module(script)
    assert dict(os.environ) == environ  # only a script run pins BLAS threads
    out = tmp_path / "digest.json"
    script.main([str(out), "--max-points", "61"])
    data = json.loads(out.read_text())
    pool = script.calls(61)
    assert sorted(data) == sorted(pool)
    # 4 dtypes x (3 shapes with n2 = 0 + 6 shapes x 2 kinds of U) x 3 grids
    assert len(data) == 4 * (3 + 6 * 2) * 3
    assert capsys.readouterr().out.startswith(f"{len(data)} outputs, sha256 ")
    # the short pool is the whole pool's prefix of small grids, data included
    whole = script.calls()
    assert all(np.array_equal(whole[name][2], pool[name][2]) for name in pool)
    assert max(int(name.rsplit("/", 1)[1]) for name in whole) == 30001
    assert {name.split("/")[0] for name in whole} == {"float64", "complex128", "float32",
                                                      "complex64"}

    # the file holds the solve's own floats, bit for bit
    name = "complex64/U_complex/n1=2,n2=2/61"
    decomp, U, y = pool[name]
    assert y.dtype == np.complex64 and np.iscomplexobj(U)
    v, residual = solve_resolvent_halfline(decomp, U, y, L=script.L)
    got = data[name]
    assert got["residual"] == residual.hex()
    assert got["v"]["shape"] == [4, 61]
    state = (np.array([float.fromhex(x) for x in got["v"]["re"]])
             + 1j * np.array([float.fromhex(x) for x in got["v"]["im"]]))
    np.testing.assert_array_equal(state.reshape(4, 61), v)
