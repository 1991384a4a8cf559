import hashlib
import importlib.util
import json
from pathlib import Path

from phwell import corpus

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"
# the pool of --seeds 20 --oracle-seeds 4: every corpus report and oracle
# output, 60 random reports and 4 random oracle outputs
SMALL_POOL_SHA256 = "2daab4e0227fc3c3d4c3972c9f9b87486f8ef5a3c39b0d06c42205f7378e9a90"


def load_script():
    spec = importlib.util.spec_from_file_location("report_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_report_digest_writes_the_whole_pool(tmp_path, capsys):
    script = load_script()
    out = tmp_path / "digest.json"
    script.main([str(out), "--seeds", "2", "--oracle-seeds", "1"])
    data = json.loads(out.read_text())
    names = corpus.corpus_names()
    assert sorted(data) == sorted(
        [f"corpus/{n}" for n in names]
        + [f"{k}/{s}" for k in script.CLASSES for s in range(2)]
        + [f"oracle/{n}" for n in names] + ["oracle/seed0"])
    assert json.loads(data["corpus/wave_interval_damped"])["consensus"] == "contraction"
    assert capsys.readouterr().out.startswith(f"{len(data)} outputs, sha256 ")


def test_report_digest_of_a_small_pool_is_pinned(tmp_path, capsys):
    # a change that moves any report or oracle output of this pool fails here
    out = tmp_path / "digest.json"
    load_script().main([str(out), "--seeds", "20", "--oracle-seeds", "4"])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SMALL_POOL_SHA256
    assert capsys.readouterr().out == f"98 outputs, sha256 {SMALL_POOL_SHA256}\n"
