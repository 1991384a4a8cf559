"""JSON configuration files: parsing, validation wrapping and serialization.

Top-level keys: field ("real"|"complex"), interval ("unit_interval"|
"half_line"), N, d, P (array of N+1 row-major matrices), H (object with
kind and data), WB_hat, tolerances (optional overrides).  Complex entries
are written as [re, im] pairs; plain numbers are accepted as real entries.

A matrix is read in one pass over its rows into one array; only a matrix
that pass rejects is read again entry by entry, and _entry words the
error for its first bad entry in row-major order.
"""

from __future__ import annotations

import dataclasses
import json
import math
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .errors import ParseError
from .model import (
    UNIT_INTERVAL,
    HamiltonianDensity,
    PortHamiltonianSystem,
    Tolerances,
    validate_system,
)


def _finite(value) -> bool:
    """True for a number with a finite float value.

    Python's json reads NaN, Infinity and integers beyond the float range.
    """
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _entry(value, path: str, allow_complex: bool) -> complex:
    """One matrix entry; an int beyond the float range raises OverflowError."""
    if isinstance(value, bool):
        raise ParseError(f"{path}: booleans are not numbers", path=path)
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise ParseError(f"{path}: entries must be finite numbers", path=path)
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
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ParseError(f"{path}: [re, im] parts must be finite numbers",
                             path=path)
        if im != 0 and not allow_complex:
            raise ParseError(f"{path}: complex entry in a real-field system",
                             path=path)
        return complex(re, im)
    raise ParseError(f"{path}: expected a number or [re, im] pair", path=path)


_NUMBER = (float, int)  # exact types: bool, an int subclass, is not a number


def _matrix(raw, path: str, allow_complex: bool) -> np.ndarray:
    """A matrix from its rows, in one pass and one array conversion.

    Entries go into one flat list of (re, im) parts, viewed as complex
    without arithmetic, so signed zeros survive.  Anything the pass does
    not take goes to _matrix_by_entry, which words the error of the first
    bad entry in row-major order.
    """
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise ParseError(f"{path}: expected an array of rows", path=path)
    ncols = len(raw[0])
    parts = []
    for row in raw:
        if len(row) != ncols:
            return _matrix_by_entry(raw, path, allow_complex)
        for v in row:
            if type(v) in _NUMBER:
                parts.append(v)
                parts.append(0.0)
            elif (type(v) is list and len(v) == 2
                  and type(v[0]) in _NUMBER and type(v[1]) in _NUMBER):
                parts += v
            else:
                return _matrix_by_entry(raw, path, allow_complex)
    try:
        flat = np.array(parts, dtype=float)
    except OverflowError:  # an int beyond the float range
        return _matrix_by_entry(raw, path, allow_complex)
    if not np.isfinite(flat).all() or (not allow_complex and flat[1::2].any()):
        return _matrix_by_entry(raw, path, allow_complex)
    return flat.view(complex).reshape(len(raw), ncols)


def _matrix_by_entry(raw, path: str, allow_complex: bool) -> np.ndarray:
    ncols = len(raw[0])
    rows = []
    for i, row in enumerate(raw):
        if len(row) != ncols:
            raise ParseError(f"{path}: row {i} has length {len(row)}, expected {ncols}",
                             path=path)
        try:
            rows.append([_entry(v, f"{path}[{i}][{j}]", allow_complex)
                         for j, v in enumerate(row)])
        except OverflowError:
            raise ParseError(f"{path}[{i}]: entries must be finite numbers",
                             path=path) from None
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
    if kind in ("piecewise_constant", "grid") and not isinstance(raw[key], list):
        raise ParseError(f"{path}.matrices: expected an array of matrices", path=path)
    if kind == "constant":
        return HamiltonianDensity.constant(
            _matrix(raw["matrix"], f"{path}.matrix", allow_complex))
    if kind == "piecewise_constant":
        bps = raw.get("breakpoints", [])
        if not isinstance(bps, list) or not all(
                isinstance(b, (int, float)) and not isinstance(b, bool) and _finite(b)
                for b in bps):
            raise ParseError(f"{path}.breakpoints: expected finite numbers", path=path)
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
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1
               for v in (N, d)):
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
        known = {f.name for f in dataclasses.fields(Tolerances)}
        bad = set(tols) - known
        if bad:
            raise ParseError(f"unknown tolerance keys {sorted(bad)}", path="tolerances")
        tolerances = Tolerances(**tols)
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


def _number(x):
    """A real entry as a number, a complex one as an [re, im] pair."""
    x = complex(x)
    if x.imag == 0.0:
        return float(x.real)
    return [float(x.real), float(x.imag)]


def _mat(M) -> list:
    return [[_number(v) for v in row] for row in np.asarray(M)]


def _hamiltonian(H: HamiltonianDensity) -> dict:
    if H.kind == "constant":
        return {"kind": "constant", "matrix": _mat(H.matrices[0])}
    if H.kind == "piecewise_constant":
        return {
            "kind": "piecewise_constant",
            "breakpoints": [float(b) for b in H.breakpoints],
            "matrices": [_mat(m) for m in H.matrices],
        }
    return {"kind": "grid", "matrices": [_mat(m) for m in H.matrices]}


def system_to_dict(sys: PortHamiltonianSystem) -> dict:
    """Round-trippable JSON document for a validated system."""
    return {
        "field": sys.field,
        "interval": sys.interval,
        "N": sys.order_N,
        "d": sys.dim_d,
        "P": [_mat(Pk) for Pk in sys.P],
        "H": _hamiltonian(sys.H),
        "WB_hat": _mat(sys.WB_hat),
        "tolerances": dataclasses.asdict(sys.tol),
    }


def write_config(sys: PortHamiltonianSystem, path) -> None:
    with open(path, "w") as fh:
        json.dump(system_to_dict(sys), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _literal(value) -> str:
    """true, false or null, chosen by identity: np.bool_ is not a JSON value."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    raise TypeError(f"expected True, False or None, got {value!r}")


def _diagnostic(value) -> str:
    """A diagnostic as json prints it: numbers (bools too) as floats."""
    if isinstance(value, (int, float)):
        x = float(value)
        if math.isfinite(x):
            return float.__repr__(x)
        return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    raise TypeError(f"a diagnostic is a number, a string or None, got {value!r}")


def _block(items, opening: str, closing: str, indent: str) -> str:
    """One JSON object or array body from its item lines, {} or [] if empty."""
    if not items:
        return opening + closing
    return opening + "\n" + ",\n".join(items) + "\n" + indent + closing


def verdict_to_json(verdict) -> str:
    """The JSON report of a Verdict; the one definition of its layout.

    The text json.dumps(..., indent=2, sort_keys=True) gives: keys sorted
    as str, ASCII with \\uXXXX escapes, every numeric diagnostic as a
    float in repr form (NaN, Infinity, -Infinity when not finite), and no
    trailing newline.
    """
    by_id = {c.condition_id: c for c in verdict.conditions}
    conditions = []
    for cid in sorted(by_id):
        c = by_id[cid]
        diags = c.diagnostics
        diagnostics = _block([f"        {_string(k)}: {_diagnostic(diags[k])}"
                              for k in sorted(diags)], "{", "}", "      ")
        reason = "null" if c.reason is None else _string(c.reason)
        conditions.append(
            f"    {_string(cid)}: {{\n"
            f"      \"applicable\": {_literal(c.applicable)},\n"
            f"      \"diagnostics\": {diagnostics},\n"
            f"      \"holds\": {_literal(c.holds)},\n"
            f"      \"reason\": {reason}\n"
            "    }")
    warnings = [f"    {_string(w)}" for w in verdict.warnings]
    return (
        "{\n"
        f"  \"conditions\": {_block(conditions, '{', '}', '  ')},\n"
        f"  \"consensus\": {_string(verdict.consensus)},\n"
        f"  \"discrepancy\": {_literal(verdict.discrepancy)},\n"
        f"  \"unitary\": {_literal(verdict.unitary)},\n"
        f"  \"warnings\": {_block(warnings, '[', ']', '  ')}\n"
        "}")
