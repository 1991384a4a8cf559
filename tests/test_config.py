import json

import numpy as np
import pytest

from phwell import parse_config, system_from_dict, system_to_dict
from phwell.cli import analyze
from phwell.config import verdict_to_json, write_config
from phwell.corpus import CORPUS, random_system
from phwell.errors import ParseError, ShapeError


def wave_doc():
    return {
        "field": "real",
        "interval": "unit_interval",
        "N": 1,
        "d": 2,
        "P": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]],
        "H": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "WB_hat": [[0.7, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
    }


def test_parse_wave_config(tmp_path):
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(wave_doc()))
    sys = parse_config(path)
    assert sys.dim_d == 2
    assert sys.field == "real"


def test_parse_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_config(path)


def test_parse_rejects_missing_file(tmp_path):
    with pytest.raises(ParseError):
        parse_config(tmp_path / "absent.json")


def test_mismatched_matrix_width_names_path():
    doc = wave_doc()
    doc["P"][1] = [[0.0, 1.0], [1.0]]
    with pytest.raises(ParseError) as err:
        system_from_dict(doc)
    assert "P[1]" in str(err.value)


def test_wrong_pair_length_is_parse_error():
    doc = wave_doc()
    doc["field"] = "complex"
    doc["P"][1][0][0] = [0.5]
    with pytest.raises(ParseError):
        system_from_dict(doc)


def test_complex_entry_in_real_field_rejected():
    doc = wave_doc()
    doc["P"][1][0][0] = [0.0, 1.0]
    with pytest.raises(ParseError):
        system_from_dict(doc)


def test_complex_pairs_round_trip():
    doc = wave_doc()
    doc["field"] = "complex"
    doc["WB_hat"] = [[[0.35, 0.2], 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    sys = system_from_dict(doc)
    assert sys.WB_hat[0, 0] == pytest.approx(0.35 + 0.2j)
    again = system_from_dict(system_to_dict(sys))
    np.testing.assert_allclose(again.WB_hat, sys.WB_hat)


def test_shape_error_propagates():
    doc = wave_doc()
    doc["WB_hat"] = [[1.0, 0.0]]
    with pytest.raises(ShapeError):
        system_from_dict(doc)


def test_h_object_without_matrices_is_parse_error():
    doc = wave_doc()
    doc["H"] = {"kind": "constant"}
    with pytest.raises(ParseError):
        system_from_dict(doc)
    doc["H"] = {"kind": "grid"}
    with pytest.raises(ParseError):
        system_from_dict(doc)


def test_tolerance_overrides():
    doc = wave_doc()
    doc["tolerances"] = {"tau_rank": 1e-6}
    sys = system_from_dict(doc)
    assert sys.tol.tau_rank == 1e-6
    doc["tolerances"] = {"bogus": 1.0}
    with pytest.raises(ParseError):
        system_from_dict(doc)


def test_env_var_overrides_default_tolerance(monkeypatch):
    from phwell.model import default_tolerance

    monkeypatch.setenv("PHWELL_TOL", "1e-7")
    assert default_tolerance() == 1e-7
    sys = system_from_dict(wave_doc())  # flows into validated systems
    assert sys.tol.check == 1e-7
    monkeypatch.delenv("PHWELL_TOL")
    assert default_tolerance() == 1e-10


def test_piecewise_h_parsing():
    doc = wave_doc()
    doc["H"] = {
        "kind": "piecewise_constant",
        "breakpoints": [0.5],
        "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 0.5]]],
    }
    sys = system_from_dict(doc)
    assert sys.h_min_eig == pytest.approx(0.5)
    assert sys.h_max_eig == pytest.approx(2.0)
    np.testing.assert_allclose(sys.H.at(0.25), np.eye(2))
    np.testing.assert_allclose(sys.H.at(0.75), np.diag([2.0, 0.5]))


def test_grid_h_parsing():
    doc = wave_doc()
    doc["H"] = {"kind": "grid",
                "matrices": [[[1.0, 0.0], [0.0, 1.0]],
                             [[3.0, 0.0], [0.0, 1.0]]]}
    sys = system_from_dict(doc)
    np.testing.assert_allclose(sys.H.at(0.5), np.diag([2.0, 1.0]))


def test_corpus_round_trip_preserves_verdicts(tmp_path):
    for name, entry in CORPUS.items():
        sys = entry.system()
        path = tmp_path / f"{name}.json"
        write_config(sys, path)
        again = parse_config(path)
        v1 = analyze(sys)
        v2 = analyze(again)
        assert v1.consensus == v2.consensus, name
        assert v1.unitary == v2.unitary, name
        assert v1.discrepancy == v2.discrepancy == False, name


@pytest.mark.parametrize("seed", [1024879331, 1060008488, 1785171175, 1151426712])
def test_halfline_without_boundary_rows_round_trips(seed):
    sys = random_system(seed, klass="halfline")
    doc = json.loads(json.dumps(system_to_dict(sys)))
    assert doc["WB_hat"] == []
    again = system_from_dict(doc)
    assert again.WB_hat.shape == (0, sys.dim_d)
    v1, v2 = analyze(sys), analyze(again)
    assert v1.consensus == v2.consensus == "contraction"
    assert v1.discrepancy == v2.discrepancy == False
    assert verdict_to_json(v1) == verdict_to_json(v2)


def test_empty_boundary_rows_on_the_interval_have_width_2nd():
    doc = wave_doc()
    doc["WB_hat"] = []
    assert system_from_dict(doc).WB_hat.shape == (0, 4)
