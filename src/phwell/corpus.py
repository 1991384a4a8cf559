"""Built-in example systems and the random generator for property sweeps.

The network examples are finite truncations of infinite (sequence-space)
operators: the left shift becomes the nilpotent d x d shift with a zero
final row, the tree coupling gets zero rows for leaf edges.  Truncation
can change injectivity/surjectivity verdicts, so every truncated entry
carries a note saying which limit it approximates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import ValidationError
from .halfline import HalfLineAlgebra, decompose_P1
from .interval import BoundaryAlgebra
from .model import (
    HALF_LINE,
    UNIT_INTERVAL,
    HamiltonianDensity,
    PortHamiltonianSystem,
    build_q,
    derive_boundary_operator,
    validate_system,
)


def shift_matrix(d: int) -> np.ndarray:
    """Truncated left shift: L e_i = e_{i-1}, zero final row."""
    L = np.zeros((d, d))
    for j in range(d - 1):
        L[j, j + 1] = 1.0
    return L


def tree_coupling(d: int) -> np.ndarray:
    """Truncated binary-tree operator: row i has -1/2 at columns 2i+1, 2i+2.

    Rows whose children fall outside the truncation are zero (leaf edges
    absorb).  Indices here are 1-based as in the edge numbering.
    """
    T = np.zeros((d, d))
    for i in range(1, d + 1):
        c1, c2 = 2 * i + 1, 2 * i + 2
        if c2 <= d:
            T[i - 1, c1 - 1] = -0.5
            T[i - 1, c2 - 1] = -0.5
    return T


def _first_order(P1, WB, H=None, interval=UNIT_INTERVAL, field="real"):
    """A validated N = 1 system with P0 = 0 and, unless given, H = I."""
    d = P1.shape[0]
    return validate_system({
        "field": field,
        "interval": interval,
        "N": 1,
        "d": d,
        "P": [np.zeros((d, d)), P1],
        "H": np.eye(d) if H is None else H,
        "WB_hat": WB,
    })


def build_path_graph(d_edges: int) -> PortHamiltonianSystem:
    """Transport network on a chain of edges: x_i(1) = x_{i+1}(0).

    N=1, P1=I, P0=0, H=I and WB_hat = [I, -L] with the truncated shift L;
    the final edge has no successor and absorbs.
    """
    if d_edges < 2:
        raise ValueError("need at least 2 edges")
    d = d_edges
    return _first_order(np.eye(d), np.hstack([np.eye(d), -shift_matrix(d)]))


def build_binary_tree(levels: int) -> PortHamiltonianSystem:
    """Transport network on a binary tree with the given number of levels.

    d = 2^{levels+1} - 2 edges; each parent's outflow feeds the average of
    its two children, encoded as WB_hat = [I, T] with the truncated
    coupling T.
    """
    if levels < 2:
        raise ValueError("need at least 2 levels")
    d = 2 ** (levels + 1) - 2
    return _first_order(np.eye(d), np.hstack([np.eye(d), tree_coupling(d)]))


def build_wave(interval_kind: str = HALF_LINE, u_param=0.5, rho=1.0, T_mod=1.0,
               damper=None) -> PortHamiltonianSystem:
    """Vibrating-string system in first-order form, d=2.

    State (momentum, strain), P1 = [[0,1],[1,0]], H = diag(1/rho, T_mod);
    rho and T_mod may be scalars or (breakpoints, values) pairs for
    piecewise-constant material data.

    half_line: boundary (1/2)[u-1, u+1] (H x)(0) = 0 -- contraction iff
    |u| <= 1, unitary group iff |u| = 1.

    unit_interval: clamped left end plus damper at the right end,
    rows k*(Hx)_1(1) + (Hx)_2(1) = 0 and (Hx)_1(0) = 0 with k = damper
    (defaults to u_param); dissipative iff Re k >= 0.
    """
    u = complex(u_param)
    field = "real" if u.imag == 0.0 else "complex"

    if np.isscalar(rho) and np.isscalar(T_mod):
        H = HamiltonianDensity.constant(np.diag([1.0 / float(rho), float(T_mod)]))
    else:
        mats = [([], [val]) if np.isscalar(val) else val for val in (rho, T_mod)]
        bps = sorted(set().union(*(b for b, _ in mats)))
        # each material's level on every cell, read at the cell's left edge
        edges = [0.0] + bps
        r, t = (np.asarray(v, dtype=float)[np.searchsorted(b, edges, side="right")]
                for b, v in mats)
        H = HamiltonianDensity.piecewise(
            bps, [np.diag([1.0 / ri, ti]) for ri, ti in zip(r, t)])

    P1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    if interval_kind == HALF_LINE:
        WB = 0.5 * np.array([[u - 1.0, u + 1.0]])
        return _first_order(P1, WB, H, HALF_LINE, field)
    k = complex(damper) if damper is not None else u
    field = "real" if k.imag == 0.0 else "complex"
    WB = np.array([[k, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    return _first_order(P1, WB, H, UNIT_INTERVAL, field)


def build_transport(inflow_zero: bool = True) -> PortHamiltonianSystem:
    """Scalar right-moving transport on [0, 1]: dx/dt = -dx/dz.

    inflow_zero: boundary x(0) = 0 (dissipative: mass leaves at z=1);
    otherwise the ill-posed variant x(1) = 0 that clamps the outflow end.
    """
    WB = np.array([[0.0, 1.0]]) if inflow_zero else np.array([[1.0, 0.0]])
    return _first_order(-np.eye(1), WB)


def build_periodic_transport() -> PortHamiltonianSystem:
    """Scalar transport with matched endpoint values x(1) = x(0) (conservative)."""
    return _first_order(np.eye(1), np.array([[1.0, -1.0]]))


@dataclass(frozen=True)
class CorpusEntry:
    """A named example with its expected verdicts."""

    name: str
    build: object  # () -> PortHamiltonianSystem
    contraction: bool
    unitary: bool
    note: str

    def system(self) -> PortHamiltonianSystem:
        return self.build()


def _entries():
    entries = []
    trunc_note = ("finite truncation of a sequence-space network; the "
                  "infinite-dimensional verdict can differ from the truncated one")
    for d in (2, 8, 32):
        entries.append(CorpusEntry(
            f"path_graph_d{d}", lambda d=d: build_path_graph(d),
            contraction=True, unitary=False,
            note=f"transport chain, {d} edges, absorbing tail; " + trunc_note))
    for lv in (2, 3):
        entries.append(CorpusEntry(
            f"binary_tree_l{lv}", lambda lv=lv: build_binary_tree(lv),
            contraction=True, unitary=False,
            note=f"transport tree, {lv} levels, absorbing leaves; " + trunc_note))
    wave_cases = [
        ("wave_halfline_u0", 0.0, True, False),
        ("wave_halfline_u05", 0.5, True, False),
        ("wave_halfline_u1", 1.0, True, True),
        ("wave_halfline_um1", -1.0, True, True),
        ("wave_halfline_u09i", 0.9j, True, False),
        ("wave_halfline_u101", 1.01, False, False),
        ("wave_halfline_u2", 2.0, False, False),
        ("wave_halfline_um3", -3.0, False, False),
    ]
    for name, u, c, un in wave_cases:
        entries.append(CorpusEntry(
            name, lambda u=u: build_wave(HALF_LINE, u),
            contraction=c, unitary=un,
            note=f"semi-infinite string, boundary parameter u={u}; the verdict "
                 "flips exactly at |u| = 1"))
    entries.append(CorpusEntry(
        "wave_interval_damped", lambda: build_wave(UNIT_INTERVAL, 0.7),
        contraction=True, unitary=False,
        note="string on [0,1], clamped left end, damper k=0.7 at the right end"))
    entries.append(CorpusEntry(
        "wave_interval_antidamped", lambda: build_wave(UNIT_INTERVAL, -0.7),
        contraction=False, unitary=False,
        note="negative damper coefficient pumps energy in; negative control"))
    entries.append(CorpusEntry(
        "transport_inflow", build_transport,
        contraction=True, unitary=False,
        note="right-moving transport, zero inflow; energy leaves at z=1"))
    entries.append(CorpusEntry(
        "transport_periodic", build_periodic_transport,
        contraction=True, unitary=True,
        note="matched endpoint values conserve the energy exactly"))
    return {e.name: e for e in entries}


CORPUS = _entries()


def corpus_names():
    return list(CORPUS)


def get_entry(name: str) -> CorpusEntry:
    if name not in CORPUS:
        raise KeyError(f"unknown corpus entry {name!r}; see corpus_names()")
    return CORPUS[name]


# ---------------------------------------------------------------------------
# random systems for equivalence sweeps

INTERVAL_SQUARE = "interval_square"
INTERVAL_RECT = "interval_rect"
HALFLINE = "halfline"

MARGIN = 1e-6  # decisive scalars must clear their thresholds by this much


def _random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _random_symmetric_chain(rng, N, d):
    """P_1..P_N with P_k^* = (-1)^{k+1} P_k and P_N invertible."""
    while True:
        out = []
        for k in range(1, N + 1):
            M = _random_matrix(rng, d)
            if k % 2 == 1:
                M = 0.5 * (M + M.conj().T)
            else:
                M = 0.5 * (M - M.conj().T)
            out.append(M)
        s = numlin.singular_values(out[-1])
        if s[-1] > 1e-3 * s[0] and s[-1] > MARGIN:
            return out


def _random_p0(rng, d):
    if rng.random() < 0.4:
        return np.zeros((d, d), dtype=complex)
    G = _random_matrix(rng, d)
    shift = np.max(np.linalg.eigvalsh(0.5 * (G + G.conj().T)))
    return G - (shift + 0.1 + rng.random()) * np.eye(d)


def _relative(x: float, scale: float) -> float:
    return abs(x) / max(1.0, scale)


def _margin(sys) -> float:
    """Smallest distance of any decisive scalar from its decision threshold.

    The scalars are read off the checkers' own bundles, so the filter
    judges exactly the numbers analyze decides on.
    """
    if sys.interval == HALF_LINE:
        alg = HalfLineAlgebra.of(sys)
        margins = [float(np.min(np.abs(np.r_[alg.decomp.Lambda, alg.decomp.Theta])))]
        if alg.kernel_dim:
            margins.append(_relative(alg.kernel.min_eig, alg.kernel.norm))
        if alg.lambda_utu is not None and alg.fact.U.size:
            margins.append(_relative(alg.lambda_utu.min_eig, alg.lambda_utu.norm))
        if sys.n_conditions:
            margins.append(_relative(alg.smin_wb_hat, alg.smax_wb_hat))
    else:
        alg = BoundaryAlgebra.of(derive_boundary_operator(sys), sys.re_P0(), sys.tol)
        margins = [_relative(alg.ext.smin, alg.ext.smax),
                   _relative(alg.sigma.min_eig, alg.sigma.norm),
                   _relative(alg.smin_wb_hat, alg.smax_wb_hat)]
        if alg.kernel_dim:
            margins.append(_relative(alg.kernel.max_eig, alg.kernel.norm))
        if alg.v_norm is not None:
            margins.append(abs(alg.v_norm - 1.0))
    if alg.re_p0.norm > 0:
        margins.append(abs(alg.re_p0.max_eig))
    return float(min(margins))


def random_system(seed: int, N: int = None, d: int = None,
                  klass: str = INTERVAL_SQUARE) -> PortHamiltonianSystem:
    """Deterministic random validated system, margin-filtered.

    Draws alternate between dense boundary operators (usually not
    contractive) and factor-built ones with a controlled contraction
    factor, so sweeps exercise both verdict signs.  interval_square and
    halfline draws whose decisive scalars -- read off the checkers' own
    BoundaryAlgebra / HalfLineAlgebra bundles -- sit within 1e-6 (relative
    where the scalar has a scale) of a decision threshold are rejected and
    redrawn; interval_rect draws are not filtered.  Any other klass, an N
    or d given that is not a positive integer (a bool is not one), or
    N != 1 for halfline raises ValueError.
    """
    if klass not in (INTERVAL_SQUARE, INTERVAL_RECT, HALFLINE):
        raise ValueError(f"unknown klass {klass!r}; expected {INTERVAL_SQUARE!r}, "
                         f"{INTERVAL_RECT!r} or {HALFLINE!r}")
    for name, v in (("N", N), ("d", d)):
        if v is not None and (isinstance(v, bool)
                              or not isinstance(v, (int, np.integer)) or v < 1):
            raise ValueError(f"{name} must be a positive int, got {v!r}")
    if klass == HALFLINE and N not in (None, 1):
        raise ValueError(f"{HALFLINE!r} systems have N = 1, got N={N!r}")
    rng = np.random.default_rng(seed)
    for _ in range(200):
        if klass == HALFLINE:
            sys = _draw_halfline(rng, d)
        else:
            sys = _draw_interval(rng, N, d, square=klass == INTERVAL_SQUARE)
        if sys is not None and (klass == INTERVAL_RECT or _margin(sys) > MARGIN):
            return sys
    raise RuntimeError("margin filter rejected 200 consecutive draws")


def _draw_interval(rng, N, d, square=True):
    N = N if N is not None else int(rng.integers(1, 4))
    d = d if d is not None else int(rng.integers(1, 5))
    P1N = _random_symmetric_chain(rng, N, d)
    P0 = _random_p0(rng, d)
    nd = N * d
    style = rng.random()
    if square:
        k = nd
        if style < 0.5:
            WB = rng.normal(size=(k, 2 * nd)) + 1j * rng.normal(size=(k, 2 * nd))
        else:
            # factor-built: W_B = 0.5 S [I+V, I-V], then undo the transform
            Q = build_q(P1N)
            Sm = _random_matrix(rng, nd)
            V = _random_matrix(rng, nd)
            target = rng.uniform(0.2, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 2.0)
            V *= target / max(numlin.operator_norm(V), 1e-12)
            eye = np.eye(nd)
            W1 = 0.5 * Sm @ (eye + V)
            W2 = 0.5 * Sm @ (eye - V)
            WB = np.hstack([W1 @ Q + W2, -W1 @ Q + W2])
    else:
        k = int(rng.integers(1, 2 * nd + 1))
        while k == nd:
            k = int(rng.integers(1, 2 * nd + 1))
        WB = rng.normal(size=(k, 2 * nd)) + 1j * rng.normal(size=(k, 2 * nd))
    try:
        return validate_system({
            "field": "complex",
            "interval": UNIT_INTERVAL,
            "N": N,
            "d": d,
            "P": [P0] + P1N,
            "H": HamiltonianDensity.constant(np.eye(d)),
            "WB_hat": WB,
        })
    except ValidationError:
        return None


def _draw_halfline(rng, d):
    d = d if d is not None else int(rng.integers(2, 7))
    # Hermitian P1 with eigenvalues bounded away from zero, mixed signs.
    while True:
        A = _random_matrix(rng, d)
        P1 = 0.5 * (A + A.conj().T)
        w = np.linalg.eigvalsh(P1)
        if np.min(np.abs(w)) > 10 * MARGIN:
            break
    n2 = int(np.sum(w < 0))
    n1 = d - n2
    if n2 == 0:
        WB = np.zeros((0, d), dtype=complex)
    elif rng.random() < 0.5:
        WB = rng.normal(size=(n2, d)) + 1j * rng.normal(size=(n2, d))
    else:
        # factor-built with ||U|| controlled around the contraction boundary
        decomp = decompose_P1(P1)
        U = rng.normal(size=(n2, n1)) + 1j * rng.normal(size=(n2, n1))
        if U.size:
            lam_min = float(np.min(decomp.Lambda)) if n1 else 1.0
            theta_max = float(np.max(np.abs(decomp.Theta)))
            safe = np.sqrt(lam_min / theta_max)
            target = rng.uniform(0.2, 0.9) * safe if rng.random() < 0.5 \
                else rng.uniform(1.5, 3.0) * safe
            U *= target / max(numlin.operator_norm(U), 1e-12)
        B = _random_matrix(rng, n2)
        WB = B @ np.hstack([U, np.eye(n2)]) @ decomp.S
    P0 = _random_p0(rng, d)
    try:
        return validate_system({
            "field": "complex",
            "interval": HALF_LINE,
            "N": 1,
            "d": d,
            "P": [P0, P1],
            "H": HamiltonianDensity.constant(np.eye(d)),
            "WB_hat": WB,
        })
    except ValidationError:
        return None
