import json

import numpy as np
import pytest

from phwell.cli import main
from phwell.config import write_config
from phwell.corpus import build_transport, build_wave, get_entry


@pytest.fixture
def wave_cfg(tmp_path):
    path = tmp_path / "wave.json"
    write_config(build_wave("half_line", 0.5), path)
    return str(path)


def test_analyze_text(wave_cfg, capsys):
    assert main(["analyze", wave_cfg]) == 0
    out = capsys.readouterr().out
    assert "consensus:   contraction" in out
    assert "discrepancy: no" in out


def test_analyze_json_schema(wave_cfg, capsys):
    assert main(["analyze", wave_cfg, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["consensus"] == "contraction"
    assert doc["unitary"] is False
    assert doc["discrepancy"] is False
    assert set(doc["conditions"]) == {"TA.3", "TA.4", "TA2.3", "TA2.4"}
    for body in doc["conditions"].values():
        assert set(body) == {"applicable", "holds", "diagnostics", "reason"}


def test_analyze_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"N": 1, "d": 1, "P": [[[0.0]], [[0.0]]],
                               "H": [[1.0]], "WB_hat": [[1.0, 0.0]]}))
    assert main(["analyze", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_exit_code():
    assert main(["analyze"]) == 1
    assert main(["bogus"]) == 1


def test_simulate_writes_trace(tmp_path, capsys):
    cfg = tmp_path / "transport.json"
    write_config(build_transport(), cfg)
    out = tmp_path / "trace.csv"
    code = main(["simulate", str(cfg), "--tfinal", "0.3", "--cells", "64",
                 "--cfl", "0.8", "--out", str(out)])
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[1] == 4
    assert rows[0, 1] > 0  # initial energy


def test_simulate_snapshots(tmp_path):
    cfg = tmp_path / "transport.json"
    write_config(build_transport(), cfg)
    out = tmp_path / "tr.csv"
    code = main(["simulate", str(cfg), "--tfinal", "0.2", "--cells", "32",
                 "--out", str(out), "--snap", "0.1"])
    assert code == 0
    assert (tmp_path / "tr_t0.1.csv").exists() or any(
        p.name.startswith("tr_t0.1") for p in tmp_path.iterdir())


def test_oracle_command(tmp_path, capsys):
    cfg = tmp_path / "wave.json"
    write_config(build_wave("unit_interval", 0.7), cfg)
    assert main(["oracle", str(cfg), "--samples", "8", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is True
    assert doc["n_samples"] == 8


def test_corpus_list(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "path_graph_d8" in out
    assert "wave_halfline_u1" in out


def test_corpus_run_matches(capsys):
    assert main(["corpus", "--run", "path_graph_d8"]) == 0
    out = capsys.readouterr().out
    assert "matches the recorded expectation" in out


def test_corpus_run_unknown(capsys):
    assert main(["corpus", "--run", "nosuch"]) == 1
    assert "unknown corpus entry 'nosuch'" in capsys.readouterr().err


def test_library_key_error_is_not_a_usage_error(monkeypatch):
    import phwell.cli as cli_mod

    def broken(system):
        raise KeyError("library bug")

    monkeypatch.setattr(cli_mod, "analyze", broken)
    with pytest.raises(KeyError, match="library bug"):
        main(["corpus", "--run", "path_graph_d8"])


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_sweep_exit_zero(seed, capsys):
    assert main(["sweep", "--count", "5", "--seed", str(seed)]) == 0
    assert "0 discrepancies" in capsys.readouterr().out


def test_corpus_run_mismatch_exit_code(monkeypatch, capsys):
    import dataclasses

    from phwell import corpus as corpus_mod

    entry = corpus_mod.get_entry("path_graph_d8")
    wrong = dataclasses.replace(entry, unitary=True)
    monkeypatch.setitem(corpus_mod.CORPUS, "path_graph_d8", wrong)
    assert main(["corpus", "--run", "path_graph_d8"]) == 3
    assert "MISMATCH" in capsys.readouterr().out
