import importlib.util
import json
from pathlib import Path

from phwell import corpus
from phwell.model import UNIT_INTERVAL

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"


def test_report_digest_writes_the_whole_pool(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("report_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "digest.json"
    script.main([str(out), "--seeds", "2", "--oracle-seeds", "1"])
    data = json.loads(out.read_text())
    names = corpus.corpus_names()
    unit = [n for n in names if corpus.CORPUS[n].system().interval == UNIT_INTERVAL]
    assert sorted(data) == sorted(
        [f"corpus/{n}" for n in names]
        + [f"{k}/{s}" for k in script.CLASSES for s in range(2)]
        + [f"oracle/{n}" for n in unit] + ["oracle/seed0"])
    assert json.loads(data["corpus/wave_interval_damped"])["consensus"] == "contraction"
    assert capsys.readouterr().out.startswith(f"{len(data)} outputs, sha256 ")
