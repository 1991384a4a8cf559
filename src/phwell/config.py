"""JSON configuration files: parsing, validation wrapping and serialization.

Top-level keys: field ("real"|"complex"), interval ("unit_interval"|
"half_line"), N, d, P (array of N+1 row-major matrices), H (object with
kind and data), WB_hat, tolerances (optional overrides).  Complex entries
are written as [re, im] pairs; plain numbers are accepted as real entries.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .model import (
    UNIT_INTERVAL,
    HamiltonianDensity,
    PortHamiltonianSystem,
    Tolerances,
    validate_system,
)


def _entry(value, path: str, allow_complex: bool) -> complex:
    if isinstance(value, bool):
        raise ParseError(f"{path}: booleans are not numbers", path=path)
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list):
        if len(value) != 2:
            raise ParseError(
                f"{path}: complex entries are [re, im] pairs, got length {len(value)}",
                path=path)
        re, im = value
        if not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                   for p in (re, im)):
            raise ParseError(f"{path}: [re, im] parts must be numbers", path=path)
        if im != 0 and not allow_complex:
            raise ParseError(f"{path}: complex entry in a real-field system",
                             path=path)
        return complex(re, im)
    raise ParseError(f"{path}: expected a number or [re, im] pair", path=path)


def _matrix(raw, path: str, allow_complex: bool) -> np.ndarray:
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise ParseError(f"{path}: expected an array of rows", path=path)
    ncols = len(raw[0])
    rows = []
    for i, row in enumerate(raw):
        if len(row) != ncols:
            raise ParseError(f"{path}: row {i} has length {len(row)}, expected {ncols}",
                             path=path)
        rows.append([_entry(v, f"{path}[{i}][{j}]", allow_complex)
                     for j, v in enumerate(row)])
    return np.array(rows, dtype=complex)


def _parse_H(raw, path: str, allow_complex: bool) -> HamiltonianDensity:
    if isinstance(raw, list):
        return HamiltonianDensity.constant(_matrix(raw, path, allow_complex))
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ParseError(f"{path}: expected a matrix or an object with 'kind'",
                         path=path)
    kind = raw["kind"]
    key = "matrix" if kind == "constant" else "matrices"
    if kind in ("constant", "piecewise_constant", "grid") and key not in raw:
        raise ParseError(f"{path}: kind {kind!r} needs key {key!r}", path=path)
    if kind == "constant":
        return HamiltonianDensity.constant(
            _matrix(raw["matrix"], f"{path}.matrix", allow_complex))
    if kind == "piecewise_constant":
        bps = raw.get("breakpoints", [])
        if not isinstance(bps, list) or not all(
                isinstance(b, (int, float)) for b in bps):
            raise ParseError(f"{path}.breakpoints: expected numbers", path=path)
        mats = [
            _matrix(m, f"{path}.matrices[{i}]", allow_complex)
            for i, m in enumerate(raw["matrices"])
        ]
        return HamiltonianDensity.piecewise(bps, mats)
    if kind == "grid":
        mats = [
            _matrix(m, f"{path}.matrices[{i}]", allow_complex)
            for i, m in enumerate(raw["matrices"])
        ]
        return HamiltonianDensity.grid(mats)
    raise ParseError(f"{path}.kind: unknown kind {kind!r}", path=path)


def system_from_dict(doc: dict) -> PortHamiltonianSystem:
    """Build and validate a system from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("N", "d", "P", "H", "WB_hat"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}", path=key)
    field = doc.get("field", "complex")
    allow_complex = field != "real"
    N = doc["N"]
    d = doc["d"]
    if not isinstance(N, int) or not isinstance(d, int) or N < 1 or d < 1:
        raise ParseError("N and d must be positive integers", path="N")
    P_raw = doc["P"]
    if not isinstance(P_raw, list) or len(P_raw) != N + 1:
        raise ParseError(f"P must list N+1 = {N + 1} matrices", path="P")
    P = [_matrix(m, f"P[{k}]", allow_complex) for k, m in enumerate(P_raw)]
    H = _parse_H(doc["H"], "H", allow_complex)
    if isinstance(doc["WB_hat"], list) and not doc["WB_hat"]:
        # k = 0 boundary rows, as system_to_dict writes them
        interval = doc.get("interval", UNIT_INTERVAL)
        width = (2 if interval == UNIT_INTERVAL else 1) * N * d
        WB = np.zeros((0, width), dtype=complex)
    else:
        WB = _matrix(doc["WB_hat"], "WB_hat", allow_complex)
    tols = doc.get("tolerances")
    tolerances = None
    if tols is not None:
        if not isinstance(tols, dict):
            raise ParseError("tolerances must be an object", path="tolerances")
        known = {"tau_struct", "tau_rank", "tau_pd", "check", "v_norm_slack"}
        bad = set(tols) - known
        if bad:
            raise ParseError(f"unknown tolerance keys {sorted(bad)}", path="tolerances")
        tolerances = Tolerances(**{k: float(v) for k, v in tols.items()})
    raw = {
        "field": field,
        "interval": doc.get("interval", "unit_interval"),
        "N": N,
        "d": d,
        "P": P,
        "H": H,
        "WB_hat": WB,
    }
    if tolerances is not None:
        raw["tolerances"] = tolerances
    return validate_system(raw)


def parse_config(path) -> PortHamiltonianSystem:
    """Read, parse and validate a JSON system description file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}")
    return system_from_dict(doc)


def _num(x) -> object:
    x = complex(x)
    if x.imag == 0.0:
        return float(x.real)
    return [float(x.real), float(x.imag)]


def _mat(M) -> list:
    return [[_num(v) for v in row] for row in np.asarray(M)]


def system_to_dict(sys: PortHamiltonianSystem) -> dict:
    """Round-trippable JSON document for a validated system."""
    return {
        "field": sys.field,
        "interval": sys.interval,
        "N": sys.order_N,
        "d": sys.dim_d,
        "P": [_mat(Pk) for Pk in sys.P],
        "H": sys.H.to_json(),
        "WB_hat": _mat(sys.WB_hat),
        "tolerances": sys.tol.to_dict(),
    }


def write_config(sys: PortHamiltonianSystem, path) -> None:
    with open(path, "w") as fh:
        json.dump(system_to_dict(sys), fh, indent=2, sort_keys=True)
        fh.write("\n")


def verdict_to_json(verdict, indent=2) -> str:
    """Deterministic JSON text for a Verdict (sorted keys)."""
    return json.dumps(verdict.to_json(), indent=indent, sort_keys=True)
