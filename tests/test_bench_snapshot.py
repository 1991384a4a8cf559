import importlib.util
import json
import re
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_snapshot.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_bench_snapshot_records_every_row_of_one_workload(capsys):
    # the snapshot's layout only: a run this short measures nothing
    script = load_script()
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


def test_git_record_of_a_dirty_tree_writes_no_object(tmp_path, monkeypatch):
    for var in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{var}_NAME", "bench")
        monkeypatch.setenv(f"GIT_{var}_EMAIL", "bench@example.com")

    def git(*args):
        return subprocess.run(["git", *args], cwd=tmp_path, check=True,
                              capture_output=True, text=True).stdout.strip()

    def objects():
        counts = dict(line.split(": ") for line in git("count-objects", "-v").splitlines())
        return int(counts["count"]), int(counts["in-pack"])

    git("init", "-q")
    for path in ("src", "perfbench"):
        (tmp_path / path).mkdir()
        (tmp_path / path / "a.py").write_text(f"{path} = 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    (tmp_path / "src" / "a.py").write_text("src = 2\n")
    before = objects()
    record = load_script().git_commit(tmp_path)
    assert objects() == before
    assert record["dirty"] is True and record["commit"] == git("rev-parse", "HEAD")
    assert all(re.fullmatch("[0-9a-f]{40}", tree) for tree in record["trees"].values())
    # the ids are those of a stash written into the repository itself
    stash = git("stash", "create")
    assert record["trees"] == {path: git("rev-parse", f"{stash}:{path}")
                               for path in ("src", "perfbench")}
