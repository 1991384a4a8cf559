import importlib.util
import json
import re
import subprocess
import sys
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


def test_network_rows_time_build_and_analyze_apart(capsys):
    # row names and units at tiny sizes; the snapshot's own sizes are named
    script = load_script()
    assert script.NETWORKS == {
        "path_graph_128": ("build_path_graph", 128),
        "path_graph_512": ("build_path_graph", 512),
        "path_graph_1024": ("build_path_graph", 1024),
        "binary_tree_8": ("build_binary_tree", 8),
    }
    assert script.NETWORK_REPEATS == 3
    tiny = {"path_graph_4": ("build_path_graph", 4), "binary_tree_2": ("build_binary_tree", 2)}
    data = json.loads(json.dumps(script.network_rows(tiny, repeats=2)))
    assert sorted(data) == ["blas_threads", "repeats", "rows"] and data["repeats"] == 2
    assert list(data["rows"]) == list(tiny)
    for row in data["rows"].values():
        assert sorted(row) == ["analyze_s", "build_validate_s"]
        for timing in row.values():
            assert timing["unit"] == "s" and len(timing["values"]) == 2
            assert 0.0 < timing["q1"] <= timing["median"] <= timing["q3"]
    assert capsys.readouterr().out.splitlines()[0].startswith("path_graph_4: analyze ")


def test_tier1_row_records_wall_time_and_summary(capsys):
    # a stand-in command: tier-1 does not run inside tier-1
    script = load_script()
    assert script.TIER1[1:] == ("-m", "pytest", "-q", "--continue-on-collection-errors")
    row = script.tier1_row([sys.executable, "-c", "print('3 passed in 0.01s')"])
    assert sorted(row) == ["blas_threads", "returncode", "summary", "wall_s"]
    assert row["returncode"] == 0 and row["summary"] == "3 passed in 0.01s"
    assert row["wall_s"]["unit"] == "s" and row["wall_s"]["value"] > 0.0
    assert capsys.readouterr().out.startswith("tier-1: 3 passed in 0.01s (")
    failed = script.tier1_row([sys.executable, "-c", "import sys; sys.exit(1)"])
    assert failed["returncode"] == 1 and failed["summary"] == ""
