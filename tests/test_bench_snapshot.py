import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_snapshot.py"


def test_bench_snapshot_records_every_row_of_one_workload(capsys):
    # the snapshot's layout only: a run this short measures nothing
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    data = json.loads(json.dumps(script.snapshot(["resolvent"], [1, 2], 0.02)))
    assert set(data) - {"trees"} == {"commit", "dirty", "env", "seconds", "seeds",
                                     "workloads"}
    # a tree id names what ran when the working tree differs from the commit
    assert ("trees" in data) == bool(data["dirty"])
    if data["dirty"]:
        assert sorted(data["trees"]) == ["perfbench", "src"]
        assert all(len(t) == 40 for t in data["trees"].values())
    assert data["seeds"] == [1, 2] and data["seconds"] == 0.02
    assert {"python", "numpy", "scipy", "blas", "cpu_count", "blas_threads"} <= set(data["env"])
    assert list(data["workloads"]) == ["resolvent"]
    bench = data["workloads"]["resolvent"]
    assert sorted(bench) == ["correct", "end_to_end", "layers", "outputs"]
    assert bench["correct"] is True
    assert sorted(bench["end_to_end"]) == sorted(["setup_s", "items_per_s", "item_p50_ms",
                                                 "item_p95_ms", "ok_frac", "peak_rss_mb"])
    for row in bench["end_to_end"].values():
        assert sorted(row) == ["median", "q1", "q3", "unit", "values"]
        assert len(row["values"]) == 2
        assert row["q1"] <= row["median"] <= row["q3"]
    assert "halfline.resolvent.R1.ms" in bench["layers"]
    assert sorted(bench["outputs"]) == ["1", "2"]
    assert all("known_defects" in o for o in bench["outputs"].values())
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["resolvent seed 1", "resolvent seed 2",
                                                      "resolvent traced"]
