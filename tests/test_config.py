import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phwell import config, parse_config, system_from_dict, system_to_dict
from phwell.cli import analyze, main
from phwell.config import verdict_to_json
from phwell.corpus import CORPUS, random_system
from phwell.errors import ParseError, ShapeError, StructureError, ValidationError
from phwell.verdict import ConditionResult, Verdict

from conftest import write_config


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


def test_complex_entry_in_real_field_rejected(tmp_path):
    # readable JSON: validate_system rejects it, naming the entry
    doc = wave_doc()
    doc["P"][1][0][0] = [0.0, 1.0]
    with pytest.raises(StructureError, match=re.escape(
            "real-field system has complex P[1][0][0]")) as err:
        system_from_dict(doc)
    assert err.value.path == "P[1]"
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2


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


def test_tolerance_overrides(tmp_path):
    doc = wave_doc()
    doc["tolerances"] = {"tau_rank": 1e-6}
    sys = system_from_dict(doc)
    assert sys.tol.tau_rank == 1e-6
    doc["tolerances"] = {"bogus": 1.0}
    with pytest.raises(ValidationError) as err:
        system_from_dict(doc)
    assert err.value.path == "tolerances"
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2


def test_env_var_overrides_default_tolerance(monkeypatch):
    from phwell.model import default_tolerance

    monkeypatch.setenv("PHWELL_TOL", "1e-7")
    assert default_tolerance() == 1e-7
    sys = system_from_dict(wave_doc())  # flows into validated systems
    assert sys.tol.check == 1e-7
    monkeypatch.delenv("PHWELL_TOL")
    assert default_tolerance() == 1e-10


@pytest.mark.parametrize("value", ["nan", "abc", "-1", "inf"])
def test_bad_env_tolerance_exits_2(value, monkeypatch, tmp_path, capsys):
    doc = system_to_dict(CORPUS["transport_periodic"].system())
    del doc["tolerances"]  # so that the default, PHWELL_TOL, applies
    path = tmp_path / "transport.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("PHWELL_TOL", value)
    assert main(["analyze", str(path)]) == 2
    assert "PHWELL_TOL" in capsys.readouterr().err
    assert main(["corpus", "--run", "transport_periodic"]) == 2


@pytest.mark.parametrize("value", [
    "abc", None, -1.0, True,
    pytest.param(10**400, id="beyond the float range"),  # was OverflowError, exit 1
    pytest.param("1e-3", id="number in a string"),  # was read as 0.001, exit 0
])
def test_bad_config_tolerance_exits_2(value, tmp_path, capsys):
    doc = wave_doc()
    doc["tolerances"] = {"check": value}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    assert "tolerances.check" in capsys.readouterr().err


def test_zero_tolerance_is_valid(monkeypatch):
    doc = wave_doc()
    doc["tolerances"] = {"check": 0}
    assert system_from_dict(doc).tol.check == 0.0
    monkeypatch.setenv("PHWELL_TOL", "0")
    assert system_from_dict(wave_doc()).tol.tau_rank == 0.0


@pytest.mark.parametrize("change", [
    {"N": True},
    {"d": True},
    {"H": {"kind": "piecewise_constant", "breakpoints": [0.5], "matrices": 5}},
    {"H": {"kind": "grid", "matrices": 5}},
    {"H": {"kind": "piecewise_constant", "breakpoints": [True],
           "matrices": [[[1.0, 0.0], [0.0, 1.0]]] * 2}},
])
def test_malformed_config_is_parse_error(change, tmp_path, capsys):
    # a bool N or d is readable JSON: validate_system decides it
    error = ShapeError if {"N", "d"} & set(change) else ParseError
    doc = dict(wave_doc(), **change)
    with pytest.raises(error):
        system_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("kind", ["grid", "piecewise_constant"])
def test_h_samples_of_different_shapes_exit_2(kind, tmp_path, capsys):
    # formerly numpy's ValueError traceback and exit 1
    doc = wave_doc()
    doc["H"] = {"kind": kind, "breakpoints": [0.5],
                "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[1.0]]]}
    with pytest.raises(ShapeError, match="H samples must be matrices of one shape"):
        system_from_dict(doc)
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    assert "H samples" in capsys.readouterr().err


def _non_finite_doc(case):
    """wave_doc with one number that Python's json reads but is no finite float."""
    doc = wave_doc()
    if case == "WB_hat NaN":
        doc["WB_hat"][0][0] = float("nan")
    elif case == "P[1] Infinity":
        doc["P"][1][0][1] = float("inf")
    elif case == "P[1] beyond the float range":
        doc["P"][1][0][1] = 10**400
    elif case == "re part NaN":
        doc["field"] = "complex"
        doc["P"][1][0][1] = [float("nan"), 0.0]
    elif case == "im part -Infinity":
        doc["field"] = "complex"
        doc["WB_hat"][1][2] = [1.0, float("-inf")]
    elif case == "breakpoint NaN":
        doc["H"] = {"kind": "piecewise_constant", "breakpoints": [float("nan")],
                    "matrices": [[[1.0, 0.0], [0.0, 1.0]]] * 2}
    return doc


@pytest.mark.parametrize("case", ["WB_hat NaN", "P[1] Infinity",
                                  "P[1] beyond the float range", "re part NaN",
                                  "im part -Infinity", "breakpoint NaN"])
def test_non_finite_numbers_are_parse_errors(case, tmp_path, capsys):
    doc = _non_finite_doc(case)
    with pytest.raises(ParseError, match="finite"):
        system_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("analyze", "oracle"):
        assert main([command, str(path)]) == 2
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("b", [0.0, 1.0, 1.5])
def test_breakpoints_outside_the_unit_interval_are_rejected(b, tmp_path, capsys):
    doc = wave_doc()
    doc["H"] = {"kind": "piecewise_constant", "breakpoints": [b],
                "matrices": [[[1.0, 0.0], [0.0, 1.0]]] * 2}
    with pytest.raises(ShapeError, match="H breakpoints"):
        system_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    assert "H breakpoints" in capsys.readouterr().err


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


_IDENTITY = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("doc, path, message", [
    (dict(wave_doc(), WB_hat=[0.7, 1.0, 0.0, 0.0]), "WB_hat",
     "WB_hat: expected an array of rows"),
    (dict(wave_doc(), H="identity"), "H",
     "H: expected a matrix or an object with 'kind'"),
    (dict(wave_doc(), H={"kind": "smooth", "matrices": [_IDENTITY] * 2}), "H",
     "H.kind: unknown kind 'smooth'"),
    ([wave_doc()], None, "top level must be an object"),
    (dict(wave_doc(), H={"kind": "piecewise_constant", "breakpoints": [10**400],
                         "matrices": [_IDENTITY] * 2}), "H",
     "H.breakpoints: expected finite numbers"),
], ids=["WB_hat rows", "H string", "H kind", "top level list", "breakpoint overflow"])
def test_unreadable_documents_are_parse_errors(doc, path, message, tmp_path, capsys):
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        system_from_dict(doc)
    assert exc.value.path == path
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(doc))
    assert main(["analyze", str(config_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("H", [
    {"kind": "piecewise_constant", "breakpoints": [0.25, 0.5],
     "matrices": [_IDENTITY, [[2.0, 0.5], [0.5, 1.0]], [[0.5, 0.0], [0.0, 3.0]]]},
    {"kind": "grid", "matrices": [_IDENTITY, [[2.0, 0.5], [0.5, 1.0]], _IDENTITY]},
], ids=lambda H: H["kind"])
def test_varying_h_round_trips(H):
    doc = dict(wave_doc(), H=H)
    sys = system_from_dict(doc)
    again = json.loads(json.dumps(system_to_dict(sys)))
    assert again["H"] == H
    back = system_from_dict(again)
    assert back.H.kind == sys.H.kind
    np.testing.assert_array_equal(back.H.matrices, sys.H.matrices)
    if H["kind"] == "piecewise_constant":
        np.testing.assert_array_equal(back.H.breakpoints, sys.H.breakpoints)
    assert verdict_to_json(analyze(back)) == verdict_to_json(analyze(sys))


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


def _by_entry(raw, path):
    """A matrix parsed one _entry at a time."""
    return np.array([[config._entry(v, f"{path}[{i}][{j}]")
                      for j, v in enumerate(row)] for i, row in enumerate(raw)],
                    dtype=complex)


_parts = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([0.0, -0.0, 0, 2**53 + 1, 2**63, 2**64 + 1, -2**70])
          | st.integers(-10**6, 10**6))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_matrix_is_bit_identical_to_entry_by_entry(nrows, ncols, data):
    entry = _parts | st.lists(_parts, min_size=2, max_size=2)
    raw = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    expected = _by_entry(raw, "P[0]")
    got = config._matrix(raw, "P[0]")
    assert got.dtype == complex and got.shape == (nrows, ncols)
    np.testing.assert_array_equal(got, expected)
    for part in ("real", "imag"):
        np.testing.assert_array_equal(np.signbit(getattr(got, part)),
                                      np.signbit(getattr(expected, part)))


NAN = float("nan")


# syntax: True when the reader, _matrix, rejects raw with a ParseError;
# False when raw is readable and validate_system rejects it as P[1] of a
# real-field system
@pytest.mark.parametrize("raw,syntax,message,path", [
    ([[True, 0.0], [0.0, NAN]], True,
     "P[1][0][0]: booleans are not numbers", "P[1][0][0]"),
    ([[0.0, 0.0], [False, 1.0]], True,
     "P[1][1][0]: booleans are not numbers", "P[1][1][0]"),
    ([[0.0, [0.0, False]], [0.0, 0.0]], True,
     "P[1][0][1]: [re, im] parts must be numbers", "P[1][0][1]"),
    ([[NAN, "x"], [0.0, 0.0]], True,
     "P[1][0][0]: entries must be finite numbers", "P[1][0][0]"),
    ([[0.0, "x"], [0.0]], True,
     "P[1][0][1]: expected a number or [re, im] pair", "P[1][0][1]"),
    ([[[1, True], 0.0], [0.0, 0.0]], True,
     "P[1][0][0]: [re, im] parts must be numbers", "P[1][0][0]"),
    ([[0.0, 0.0], [[1], 0.0]], True,
     "P[1][1][0]: complex entries are [re, im] pairs, got length 1", "P[1][1][0]"),
    ([[0.0, 0.0], [0.0, 10**400]], True,
     "P[1][1]: entries must be finite numbers", "P[1]"),
    ([[0.0, [10**400, 0]], [0.0, 0.0]], True,
     "P[1][0]: entries must be finite numbers", "P[1]"),
    ([[0.0, [0.0, float("inf")]], [0.0, 0.0]], True,
     "P[1][0][1]: [re, im] parts must be finite numbers", "P[1][0][1]"),
    ([[0.0, [0.0, 1.0]], [0.0, 0.0]], False,
     "real-field system has complex P[1][0][1]", "P[1]"),
    ([[0.0, None], [0.0, 0.0]], True,
     "P[1][0][1]: expected a number or [re, im] pair", "P[1][0][1]"),
    ([[0.0, 1.0], [2.0, 3.0, 4.0]], True,
     "P[1]: row 1 has length 3, expected 2", "P[1]"),
])
def test_malformed_matrix_names_its_first_bad_entry(raw, syntax, message, path):
    if syntax:
        with pytest.raises(ParseError) as err:
            config._matrix(raw, "P[1]")
    else:
        doc = wave_doc()
        doc["P"][1] = raw
        with pytest.raises(StructureError) as err:
            system_from_dict(doc)
    assert str(err.value) == message
    assert err.value.path == path


# ---------------------------------------------------------------------------
# The JSON report: verdict_to_json against the json.dumps document it replaced


def _reference_condition(c):
    diags = {}
    for k, v in sorted(c.diagnostics.items()):
        diags[k] = float(v) if isinstance(v, (int, float)) else v
    return {"applicable": c.applicable, "holds": c.holds,
            "diagnostics": diags, "reason": c.reason}


def reference_report(verdict):
    """The report as json.dumps wrote it from the old to_json documents."""
    doc = {"conditions": {c.condition_id: _reference_condition(c)
                          for c in verdict.conditions},
           "consensus": verdict.consensus, "unitary": verdict.unitary,
           "discrepancy": verdict.discrepancy, "warnings": list(verdict.warnings)}
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_report_matches_the_reference_encoder_on_the_corpus(name):
    verdict = analyze(CORPUS[name].system())
    assert verdict_to_json(verdict) == reference_report(verdict)


def test_report_matches_the_reference_encoder_on_the_check_pool():
    # the `check` benchmark's fixed pool: seed 1709, 200 draws per class
    pool = np.random.default_rng(1709)
    count = 0
    for _ in range(200):
        for klass in ("interval_square", "halfline", "interval_rect"):
            verdict = analyze(random_system(int(pool.integers(0, 2**31 - 1)),
                                            klass=klass))
            assert verdict_to_json(verdict) == reference_report(verdict)
            count += 1
    assert count == 600


def _verdict(*conditions, unitary=True, warnings=()):
    return Verdict(tuple(conditions), "contraction", unitary, False, tuple(warnings))


@pytest.mark.parametrize("value", [
    NAN, float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1,
    1.7976931348623157e308, 3, -2, 10**20, True, False, np.float64(2.5),
    np.float64(NAN), None, "text",
])
def test_report_prints_each_diagnostic_as_json_does(value):
    verdict = _verdict(ConditionResult("C2.6", True, {"x": value, "a": 1.5}))
    assert verdict_to_json(verdict) == reference_report(verdict)


def test_report_escapes_text_as_json_does():
    reason = 'a "quote", a back\\slash,\na newline, \t, \x01, é and ≤ \U0001d11e'
    verdict = Verdict(
        (ConditionResult("T1.3", None, {}, reason),
         ConditionResult("C2.6", False, {"é": 1.0, "\"k\"": 2.0}),
         ConditionResult("RANBED", True, {})),
        "not_contraction", None, True, ("first ≤ warning", 'second "warning"'))
    text = verdict_to_json(verdict)
    assert text == reference_report(verdict)
    assert text.isascii()
    assert "\\u00e9 and \\u2264" in text


@pytest.mark.parametrize("unitary", [True, False, None])
def test_report_without_conditions(unitary):
    verdict = Verdict((), "undetermined", unitary, False, ("one", "two"))
    text = verdict_to_json(verdict)
    assert text == reference_report(verdict)
    assert '"conditions": {}' in text and not text.endswith("\n")


def test_report_of_a_duplicate_condition_id_keeps_the_last():
    verdict = _verdict(ConditionResult("C2.6", True, {"x": 1.0}),
                       ConditionResult("C2.6", False, {}))
    assert verdict_to_json(verdict) == reference_report(verdict)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
           st.text(max_size=6),
           st.dictionaries(st.text(max_size=6),
                           st.one_of(st.floats(), st.integers(-10**6, 10**6),
                                     st.booleans(), st.none(), st.text(max_size=6)),
                           max_size=4),
           max_size=4),
       st.sampled_from([True, False, None]),
       st.lists(st.text(max_size=8), max_size=3),
       st.one_of(st.none(), st.text(max_size=8)))
def test_report_matches_the_reference_encoder_on_any_verdict(
        conditions, holds, warnings, reason):
    verdict = Verdict(
        tuple(ConditionResult(cid, holds, diags, reason)
              for cid, diags in conditions.items()),
        "contraction", holds, False, tuple(warnings))
    assert verdict_to_json(verdict) == reference_report(verdict)


@pytest.mark.parametrize("verdict", [
    _verdict(ConditionResult("C2.6", np.True_)),
    _verdict(ConditionResult("C2.6", True, {"x": np.float32(1.0)})),
    _verdict(ConditionResult("C2.6", True, {"x": np.array([1.0])})),
    _verdict(unitary=np.True_),
    Verdict((), "contraction", True, np.False_),
])
def test_report_rejects_what_json_rejects(verdict):
    with pytest.raises(TypeError):
        reference_report(verdict)
    with pytest.raises(TypeError):
        verdict_to_json(verdict)


def test_report_rejects_a_list_valued_diagnostic():
    # diagnostics are named scalars; json.dumps printed a list as an array
    verdict = _verdict(ConditionResult("C2.6", True, {"x": [1.0, 2.0]}))
    with pytest.raises(TypeError):
        verdict_to_json(verdict)


def test_analyze_json_prints_warnings_as_the_reference_encoder(tmp_path, capsys):
    doc = wave_doc()
    doc["WB_hat"] = [[0.7, 1.0, 0.0, 0.0], [1.4, 2.0, 0.0, 0.0]]  # dependent rows
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps(doc))
    verdict = analyze(parse_config(path))
    assert verdict.warnings
    assert main(["analyze", str(path), "--json"]) == 0
    assert capsys.readouterr().out == reference_report(verdict) + "\n"
