import dataclasses
import json
import pathlib

import numpy as np
import pytest

from phwell import smooth_bump
from phwell.cli import main
from phwell.config import system_to_dict
from phwell.corpus import CORPUS, build_transport, build_wave, get_entry

from conftest import write_config

GOLDEN = pathlib.Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_analyze_json_prints_the_golden_report(name, tmp_path, capsys):
    cfg = tmp_path / f"{name}.json"
    write_config(CORPUS[name].system(), cfg)
    assert main(["analyze", str(cfg), "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


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


@pytest.mark.parametrize("t_final", ["-1", "0", "nan", "inf"])
def test_simulate_rejects_bad_tfinal(t_final, tmp_path, capsys):
    cfg = tmp_path / "wave.json"
    write_config(build_wave("unit_interval", 0.7), cfg)
    code = main(["simulate", str(cfg), "--tfinal", t_final, "--cells", "32",
                 "--out", str(tmp_path / "trace.csv")])
    assert code == 2
    assert "t_final" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_simulate_refuses_a_run_beyond_the_step_limit(tmp_path, capsys):
    cfg = tmp_path / "wave.json"
    write_config(build_wave("unit_interval", 0.7), cfg)
    code = main(["simulate", str(cfg), "--tfinal", "1e9", "--cells", "16",
                 "--out", str(tmp_path / "trace.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "t_final = 1e+09 at nx = 16 needs" in err
    assert "Traceback" not in err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("extra, word", [
    (["--length", "0"], "L must"),
    (["--length", "-1"], "L must"),
    (["--snap", "-1"], "snapshot"),
    (["--snap", "5"], "snapshot"),
    (["--snap", "0.05,"], "--snap"),
    (["--bump-width", "0"], "width"),
    (["--bump-width", "-0.1"], "width"),
    (["--component", "7"], "component"),
])
def test_simulate_rejects_bad_inputs(extra, word, tmp_path, capsys):
    cfg = tmp_path / "wave.json"
    write_config(build_wave("half_line", 0.5), cfg)
    code = main(["simulate", str(cfg), "--tfinal", "0.1", "--cells", "32",
                 "--out", str(tmp_path / "trace.csv")] + extra)
    assert code == 2
    assert word in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["wave.json"]


def test_simulate_snapshot_lands_beside_its_trace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(build_transport(), tmp_path / "transport.json")
    (tmp_path / "runs.d").mkdir()
    code = main(["simulate", "transport.json", "--tfinal", "0.2", "--cells", "32",
                 "--out", "runs.d/trace", "--snap", "0.1"])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.d", "transport.json"]
    trace, snap = sorted(p.name for p in (tmp_path / "runs.d").iterdir())
    assert trace == "trace"
    assert snap.startswith("trace_t0.1") and snap.endswith(".csv")


def test_simulate_rejects_missing_out_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_config(build_transport(), tmp_path / "transport.json")
    code = main(["simulate", "transport.json", "--tfinal", "0.1", "--cells", "32",
                 "--out", "nodir/trace.csv"])
    assert code == 2
    captured = capsys.readouterr()
    assert "nodir" in captured.err and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["transport.json"]


def test_simulate_refuses_a_directory_as_out(tmp_path, monkeypatch, capsys):
    # formerly ran the whole simulation, then died with IsADirectoryError
    monkeypatch.chdir(tmp_path)
    write_config(build_transport(), tmp_path / "transport.json")
    (tmp_path / "runs").mkdir()
    code = main(["simulate", "transport.json", "--tfinal", "0.1", "--cells", "32",
                 "--out", "runs"])
    assert code == 2
    captured = capsys.readouterr()
    assert "is a directory" in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs", "transport.json"]
    assert list((tmp_path / "runs").iterdir()) == []


@pytest.mark.parametrize("data", [
    b"\xff\xfe{",  # a UTF-16 byte order mark, then half a character
    b'{"field": "r\xe9al"}',  # a Latin-1 byte inside a string
    b"[" * 100_000,  # nested beyond the recursion limit
], ids=["utf-16 cut", "latin-1", "deep"])
def test_analyze_refuses_a_file_it_cannot_decode(data, tmp_path, capsys):
    # formerly a UnicodeDecodeError or RecursionError traceback and exit 1
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_reads_utf16_text(tmp_path, capsys):
    path = tmp_path / "wave.json"
    text = json.dumps(system_to_dict(build_wave("half_line", 0.5)))
    path.write_bytes(text.encode("utf-16"))
    assert main(["analyze", str(path)]) == 0
    assert "consensus:   contraction" in capsys.readouterr().out


def test_simulate_snapshot_at_zero_is_the_initial_state(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(build_transport(), tmp_path / "transport.json")
    code = main(["simulate", "transport.json", "--tfinal", "0.1", "--cells", "32",
                 "--snap", "0"])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "trace.csv", "trace_t0.csv", "transport.json"]
    x0 = smooth_bump(0.3, 0.15, 1)  # the CLI's default bump
    centers = (np.arange(32) + 0.5) / 32
    np.testing.assert_array_equal(np.loadtxt("trace_t0.csv", delimiter=","),
                                  [x0(z)[0].real for z in centers])


def test_oracle_command(tmp_path, capsys):
    cfg = tmp_path / "wave.json"
    write_config(build_wave("unit_interval", 0.7), cfg)
    assert main(["oracle", str(cfg), "--samples", "8", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is True
    assert doc["n_samples"] == 8


def test_oracle_rejects_negative_samples(tmp_path, capsys):
    cfg = tmp_path / "wave.json"
    write_config(build_wave("unit_interval", 0.7), cfg)
    assert main(["oracle", str(cfg), "--samples", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_samples" in captured.err


def test_oracle_rejects_a_negative_seed(tmp_path, capsys):
    cfg = tmp_path / "wave.json"
    write_config(build_wave("unit_interval", 0.7), cfg)
    assert main(["oracle", str(cfg), "--samples", "8", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seed must be an integer >= 0")


@pytest.mark.parametrize("change", [{"holds": False}, {"cross_check_max_diff": 1e-6}])
def test_oracle_contradiction_exit_code(tmp_path, monkeypatch, capsys, change):
    import dataclasses

    import phwell.cli as cli_mod

    cfg = tmp_path / "wave.json"
    write_config(build_wave("unit_interval", 0.7), cfg)
    real = cli_mod.dissipativity_oracle
    monkeypatch.setattr(cli_mod, "dissipativity_oracle",
                        lambda *a, **kw: dataclasses.replace(real(*a, **kw), **change))
    assert main(["oracle", str(cfg), "--samples", "8"]) == 3
    assert json.loads(capsys.readouterr().out)["n_samples"] == 8


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


def test_sweep_rejects_negative_count(capsys):
    assert main(["sweep", "--count", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--count" in captured.err and captured.out == ""


def test_sweep_rejects_a_negative_seed(capsys):
    assert main(["sweep", "--count", "1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --count and --seed must be >= 0")
    assert captured.out == ""


@pytest.mark.parametrize("name,code", [("wave_interval_antidamped", 3),
                                       ("wave_interval_damped", 0)])
def test_simulate_contradiction_exit_code(name, code, tmp_path, monkeypatch, capsys):
    # the antidamped wave gains about 6 % of E(0) in one step at these
    # settings; a contraction verdict beside that is a bug signal
    import dataclasses

    import phwell.cli as cli_mod

    real = cli_mod.analyze
    monkeypatch.setattr(cli_mod, "analyze", lambda system: dataclasses.replace(
        real(system), consensus="contraction"))
    cfg = tmp_path / "cfg.json"
    write_config(get_entry(name).system(), cfg)
    assert main(["simulate", str(cfg), "--tfinal", "0.5", "--cells", "32",
                 "--out", str(tmp_path / "trace.csv")]) == code
    out = capsys.readouterr().out
    assert ("CONTRADICTION: analyze says contraction" in out) == (code == 3)
    assert (tmp_path / "trace.csv").exists()


def test_simulate_zero_initial_energy_is_no_contradiction(wave_cfg, tmp_path, capsys):
    # a narrow bump between cell centres samples to zero: E(0) = 0 and the
    # energy never rises, so the contraction verdict stands (no division)
    assert main(["simulate", wave_cfg, "--tfinal", "0.5", "--cells", "32",
                 "--bump-width", "0.01", "--out", str(tmp_path / "trace.csv")]) == 0
    assert "E(0) = 0.000000e+00" in capsys.readouterr().out


def test_simulate_prints_an_unbounded_rise_for_an_overflowed_run(tmp_path, capsys):
    # P0 = 2000 I: the energy overflows to NaN; not a contraction, so exit 0
    wave = build_wave("unit_interval", 0.7)
    cfg = tmp_path / "cfg.json"
    write_config(dataclasses.replace(wave, P=(2000.0 * np.eye(2), wave.P[1])), cfg)
    code = main(["simulate", str(cfg), "--tfinal", "1", "--cells", "64",
                 "--out", str(tmp_path / "trace.csv")])
    assert code == 0
    assert "E(T) = nan   max step increase = inf\n" in capsys.readouterr().out


def _verdict_fields(doc):
    return (doc["consensus"], doc["unitary"], doc["discrepancy"],
            {cid: (c["applicable"], c["holds"]) for cid, c in doc["conditions"].items()})


@pytest.mark.parametrize("via", ["tolerances", "PHWELL_TOL"])
@pytest.mark.parametrize("interval", ["half_line", "unit_interval"])
def test_validated_near_symmetric_p1_runs_every_command(interval, via, tmp_path,
                                                        monkeypatch, capsys):
    exact = tmp_path / "exact.json"
    write_config(build_wave(interval, 0.5), exact)
    assert main(["analyze", str(exact), "--json"]) == 0
    want = _verdict_fields(json.loads(capsys.readouterr().out))
    # P[1] is Hermitian within 1e-7: accepted at tau_struct = 1e-6
    doc = system_to_dict(build_wave(interval, 0.5))
    doc["P"][1] = [[0.0, 1.0000001], [1.0, 0.0]]
    del doc["tolerances"]
    if via == "tolerances":
        doc["tolerances"] = {"tau_struct": 1e-6}
    else:
        monkeypatch.setenv("PHWELL_TOL", "1e-6")
    cfg = str(tmp_path / "near.json")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    assert main(["analyze", cfg, "--json"]) == 0
    assert _verdict_fields(json.loads(capsys.readouterr().out)) == want
    assert main(["simulate", cfg, "--tfinal", "0.3", "--cells", "32",
                 "--out", str(tmp_path / "trace.csv")]) == 0
    if interval == "unit_interval":  # the oracle covers the unit interval only
        assert main(["oracle", cfg, "--samples", "8"]) == 0
