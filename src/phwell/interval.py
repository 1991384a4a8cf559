"""Equivalent well-posedness conditions on the unit interval, cross-checked.

For a system with square boundary operator (k = N*d) the contraction family
T1.3, T1.4, T1.5, C2.6, C2.7 is provably equivalent, as is the unitary
family T3.3, T3.4, T3.5, C3.6, C3.7; analyze_interval evaluates all of
them independently and flags any disagreement.  For k != N*d only the
kernel tests T1.5 / T3.5 apply and no generation verdict is certified.

Condition ids (fixed in the JSON schema):
  RANBED -- range containment ran(W1-W2) <= ran(W1+W2), informational
  T1.3   -- W1+W2 injective and W_B Sigma W_B^* >= 0
  T1.4   -- W1+W2 injective and ||V|| <= 1
  T1.5   -- model.boundary_form(Q) negative semidefinite on ker WB_hat
  C2.6   -- W_B surjective and W_B Sigma W_B^* >= 0
  C2.7   -- W_B surjective and ||V|| <= 1
  T3.x / C3.x -- the corresponding zero / isometry variants
All contraction-family conditions additionally require Re P0 <= 0; the
unitary family requires Re P0 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import ShapeError
from .model import (
    UNIT_INTERVAL,
    PortHamiltonianSystem,
    boundary_form,
    derive_boundary_operator,
)
from .verdict import ConditionResult, Verdict, decide


@dataclass(frozen=True)
class VExtraction:
    """Result of solving (W1+W2) V = W1-W2, from one SVD of W1+W2.

    rank, smin and smax are read off that SVD for every shape, as an
    injectivity test reads it (numlin's shape convention): smin is 0.0
    when W1+W2 is wide or empty.  V is None, with the reason, when W1+W2
    is not square or numerically singular.
    """

    V: np.ndarray | None
    smin: float
    smax: float
    rank: int
    reason: str | None = None


def sigma_form(W1, W2) -> np.ndarray:
    """W_B Sigma W_B^* = W1 W2^* + W2 W1^* (Hermitian by construction)."""
    W1 = np.asarray(W1, dtype=complex)
    W2 = np.asarray(W2, dtype=complex)
    return W1 @ W2.conj().T + W2 @ W1.conj().T


def kernel_energy_form(K, Q) -> np.ndarray:
    """G = K^* boundary_form(Q) K for a basis K (columns) of ker WB_hat."""
    K = np.asarray(K, dtype=complex)
    B = boundary_form(Q)
    if K.shape[0] != B.shape[0]:
        raise ShapeError("kernel basis height does not match blockdiag(Q, -Q)")
    return K.conj().T @ B @ K


def extract_v(W1, W2, tol: float = numlin.DEFAULT_TOL) -> VExtraction:
    """Unique V with [W1 W2] = 0.5 (W1+W2) [I+V, I-V], when it exists.

    V = (W1+W2)^{-1} (W1-W2).  In finite dimensions invertibility of
    W1+W2 stands in for injectivity plus the range containment
    ran(W1-W2) <= ran(W1+W2).
    """
    W1 = np.asarray(W1, dtype=complex)
    W2 = np.asarray(W2, dtype=complex)
    T = W1 + W2
    k, nd = T.shape
    s = numlin.singular_values(T)
    smin, smax = float(s[-1]), float(s[0])
    rank = numlin.rank_from_singular_values(s, tol)
    if k != nd:
        return VExtraction(None, smin, smax, rank, f"W1+W2 is {k}x{nd}, not square")
    if rank < k:
        return VExtraction(None, smin, smax, rank,
                           f"W1+W2 numerically singular (s_min={smin:.3e})")
    V = np.linalg.solve(T, W1 - W2)
    return VExtraction(V, smin, smax, rank)


def range_containment(r_t: int, r_td: int) -> ConditionResult:
    """RANBED: r_td = rank [W1+W2 | W1-W2] equals r_t = rank (W1+W2).

    [W1+W2 | W1-W2] = WB_hat [Q -Q; I I]^{-1} [[I, I], [I, -I]], so r_td is
    rank WB_hat; BoundaryAlgebra reads both ranks off SVDs it takes anyway.
    Informational: with W1+W2 injective (square case) the containment is
    automatic, so it never gates the equivalence family.
    """
    return ConditionResult(
        "RANBED", r_td == r_t,
        {"rank_w1_plus_w2": float(r_t), "rank_augmented": float(r_td)},
    )


def isometry_defect(V) -> float:
    """|| I - V V^* ||: zero iff V is a co-isometry (unitary when square)."""
    V = np.asarray(V, dtype=complex)
    return numlin.operator_norm(np.eye(V.shape[0]) - V @ V.conj().T)


@dataclass(frozen=True)
class BoundaryAlgebra:
    """Every input the interval conditions share, each computed once.

    of(sys) reads the system's WB_hat, Q, Re P0 and tolerances, and its
    split (W1, W2) from model.derive_boundary_operator, as
    halfline.HalfLineAlgebra.of reads the system alone.  Only computations
    that would otherwise be repeated bit for bit are shared.  One SVD of
    WB_hat gives its rank, its kernel basis and its extreme singular values;
    one SVD of W1+W2, in extract_v, gives V, the rank RANBED reads and the
    smallest singular value every condition reports, for any shape of W1+W2.
    The equivalent criteria -- the sigma form, V, the kernel form,
    injectivity of W1+W2 against surjectivity of WB_hat -- stay separate
    entries, so their agreement still detects a bug.  Every decision uses
    Tolerances.check except the tests on V: ||V|| <= 1 + v_norm_slack (T1.4,
    C2.7) is absolute, and the isometry defect (T3.4, C3.7) is allowed
    max(v_norm_slack, check ||V||^2).  Near ||V|| = 1 those thresholds and
    check's on the sigma and kernel forms disagree, which raises a false
    discrepancy (ROADMAP item 12).
    """

    k: int
    nd: int
    re_p0: numlin.DefinitenessReport
    sigma: numlin.DefinitenessReport
    kernel: numlin.DefinitenessReport
    kernel_dim: int
    ext: VExtraction  # the single decision on W1+W2, and its rank for RANBED
    rank_wb_hat: int  # rank [W1+W2 | W1-W2] for RANBED; rank == k is surjectivity
    inj_w2_minus_w1: bool
    smin_w2_minus_w1: float
    surjective: bool  # WB_hat has full row rank
    smin_wb_hat: float
    smax_wb_hat: float
    v_norm: float | None  # None when ext.V is None, like the two below
    isometry_defect: float | None
    v_contractive: bool | None  # ||V|| <= 1 + v_norm_slack
    v_unitary: bool | None  # isometry defect within its threshold

    @classmethod
    def of(cls, sys: PortHamiltonianSystem) -> "BoundaryAlgebra":
        tol = sys.tol
        check = tol.check
        W1, W2 = derive_boundary_operator(sys)
        k, nd = W1.shape
        s, rank, vh = numlin.svd_rank(sys.WB_hat, check)
        K = vh[rank:].conj().T
        ext = extract_v(W1, W2, check)
        s_m = numlin.singular_values(W2 - W1)
        v_norm = defect = v_contractive = v_unitary = None
        if ext.V is not None:
            v_norm = numlin.operator_norm(ext.V)
            defect = isometry_defect(ext.V)
            v_contractive = v_norm <= 1.0 + tol.v_norm_slack
            v_unitary = defect <= max(tol.v_norm_slack, check * max(1.0, v_norm * v_norm))
        return cls(
            k=k,
            nd=nd,
            re_p0=numlin.definiteness(sys.re_P0(), check),
            sigma=numlin.definiteness(sigma_form(W1, W2), check),
            kernel=numlin.definiteness(kernel_energy_form(K, sys.Q), check),
            kernel_dim=K.shape[1],
            ext=ext,
            rank_wb_hat=rank,
            inj_w2_minus_w1=numlin.rank_from_singular_values(s_m, check) == nd,
            smin_w2_minus_w1=float(s_m[-1]),
            surjective=rank == k,
            smin_wb_hat=float(s[-1]),
            smax_wb_hat=float(s[0]),
            v_norm=v_norm,
            isometry_defect=defect,
            v_contractive=v_contractive,
            v_unitary=v_unitary,
        )

    @property
    def square(self) -> bool:
        return self.k == self.nd

    @property
    def not_square(self) -> str | None:
        """Why the square-only conditions do not apply, or None."""
        if self.square:
            return None
        return f"needs k = N*d, got k={self.k}, N*d={self.nd}"


def check_kernel_dissipativity(alg: BoundaryAlgebra) -> ConditionResult:
    """T1.5: u^*Qu - y^*Qy <= 0 on ker WB_hat, plus Re P0 <= 0.

    This is the universal dissipativity test; it applies to any shape of
    WB_hat.  A trivial kernel passes vacuously.
    """
    return ConditionResult(
        "T1.5", alg.kernel.is_nsd and alg.re_p0.is_nsd,
        {
            "kernel_dim": float(alg.kernel_dim),
            "max_eig_kernel_form": alg.kernel.max_eig,
            "min_eig_kernel_form": alg.kernel.min_eig,
            "re_p0_max_eig": alg.re_p0.max_eig,
        },
    )


def check_injective_psd(alg: BoundaryAlgebra) -> ConditionResult:
    """T1.3: W1+W2 injective, W_B Sigma W_B^* >= 0 and Re P0 <= 0.

    Only applicable in the square case (k = N*d), where W1+W2 is
    injective exactly when extract_v finds V."""
    if not alg.square:
        return ConditionResult("T1.3", None, reason=alg.not_square)
    return ConditionResult(
        "T1.3", alg.ext.V is not None and alg.sigma.is_psd and alg.re_p0.is_nsd,
        {
            "smin_w1_plus_w2": alg.ext.smin,
            "min_eig_sigma_form": alg.sigma.min_eig,
            "max_eig_sigma_form": alg.sigma.max_eig,
            "re_p0_max_eig": alg.re_p0.max_eig,
        },
    )


def check_v_contraction(alg: BoundaryAlgebra) -> ConditionResult:
    """T1.4: the factor V exists with ||V|| <= 1, and Re P0 <= 0.

    ||V|| is compared with absolute slack (Tolerances.v_norm_slack) so
    that shift-type factors sitting exactly at norm 1 pass.  Not
    applicable when no V exists (the injectivity failure is then carried
    by T1.3)."""
    ext = alg.ext
    if ext.V is None:
        return ConditionResult("T1.4", None, {"smin_w1_plus_w2": ext.smin},
                               reason=ext.reason)
    return ConditionResult(
        "T1.4", alg.v_contractive and alg.re_p0.is_nsd,
        {"v_norm": alg.v_norm, "re_p0_max_eig": alg.re_p0.max_eig},
    )


def check_surjective_psd(alg: BoundaryAlgebra) -> ConditionResult:
    """C2.6: WB_hat full row rank, W_B Sigma W_B^* >= 0 and Re P0 <= 0."""
    if not alg.square:
        return ConditionResult("C2.6", None, reason=alg.not_square)
    return ConditionResult(
        "C2.6", alg.surjective and alg.sigma.is_psd and alg.re_p0.is_nsd,
        {
            "smin_wb_hat": alg.smin_wb_hat,
            "min_eig_sigma_form": alg.sigma.min_eig,
            "re_p0_max_eig": alg.re_p0.max_eig,
        },
    )


def check_surjective_v(alg: BoundaryAlgebra) -> ConditionResult:
    """C2.7: WB_hat full row rank, V exists with ||V|| <= 1, Re P0 <= 0.

    When W1+W2 is singular no factorization with surjective W_B can
    exist, so the condition is reported as failing."""
    if not alg.square:
        return ConditionResult("C2.7", None, reason=alg.not_square)
    ext = alg.ext
    diags = {"smin_wb_hat": alg.smin_wb_hat, "re_p0_max_eig": alg.re_p0.max_eig}
    if ext.V is None:
        diags["smin_w1_plus_w2"] = ext.smin
        return ConditionResult("C2.7", False, diags, reason=ext.reason)
    diags["v_norm"] = alg.v_norm
    return ConditionResult(
        "C2.7", alg.surjective and alg.v_contractive and alg.re_p0.is_nsd, diags)


def check_unitary_conditions(alg: BoundaryAlgebra):
    """Unitary-group family: T3.5, T3.3, T3.4, C3.6, C3.7 (in that order).

    T3.5 tests the kernel energy form for exact vanishing and applies to
    any shape; the others need the square case.  The V-based conditions
    test the factor for being unitary (isometry defect ~ 0): once both
    injectivity requirements hold this is what the norm-one condition
    amounts to, and it is the only reading under which the family stays
    equivalent on truncated shift operators.
    """
    square, not_square, ext = alg.square, alg.not_square, alg.ext
    p0_zero = alg.re_p0.is_zero
    p0_norm = alg.re_p0.norm
    snorm = alg.sigma.norm
    results = [ConditionResult(
        "T3.5", alg.kernel.is_zero and p0_zero,
        {
            "kernel_dim": float(alg.kernel_dim),
            "norm_kernel_form": alg.kernel.norm,
            "re_p0_norm": p0_norm,
        },
    )]

    results.append(ConditionResult(
        "T3.3", (ext.V is not None and alg.inj_w2_minus_w1 and alg.sigma.is_zero
                 and p0_zero) if square else None,
        {
            "smin_w1_plus_w2": ext.smin,
            "smin_w2_minus_w1": alg.smin_w2_minus_w1,
            "norm_sigma_form": snorm,
            "re_p0_norm": p0_norm,
        },
        reason=not_square,
    ))

    # V exists only in the square case
    if ext.V is None:
        results.append(ConditionResult(
            "T3.4", None, {"smin_w1_plus_w2": ext.smin},
            reason=ext.reason if square else not_square))
    else:
        results.append(ConditionResult(
            "T3.4", alg.inj_w2_minus_w1 and alg.v_unitary and p0_zero,
            {
                "v_norm": alg.v_norm,
                "isometry_defect": alg.isometry_defect,
                "smin_w2_minus_w1": alg.smin_w2_minus_w1,
                "re_p0_norm": p0_norm,
            },
        ))

    results.append(ConditionResult(
        "C3.6", (alg.surjective and alg.sigma.is_zero and p0_zero) if square else None,
        {"smin_wb_hat": alg.smin_wb_hat, "norm_sigma_form": snorm, "re_p0_norm": p0_norm},
        reason=not_square,
    ))

    if ext.V is None:
        results.append(ConditionResult(
            "C3.7", False if square else None,
            {"smin_wb_hat": alg.smin_wb_hat, "smin_w1_plus_w2": ext.smin},
            reason=ext.reason if square else not_square))
    else:
        results.append(ConditionResult(
            "C3.7", alg.surjective and alg.v_unitary and p0_zero,
            {
                "smin_wb_hat": alg.smin_wb_hat,
                "v_norm": alg.v_norm,
                "isometry_defect": alg.isometry_defect,
                "re_p0_norm": p0_norm,
            },
        ))
    return results


# each family's kernel test first, as verdict.decide reads them
CONTRACTION_FAMILY = ("T1.5", "T1.3", "T1.4", "C2.6", "C2.7")
UNITARY_FAMILY = ("T3.5", "T3.3", "T3.4", "C3.6", "C3.7")


def analyze_interval(sys: PortHamiltonianSystem) -> Verdict:
    """Evaluate every applicable condition and combine them into a verdict.

    For k = N*d the contraction and unitary families are each checked for
    internal agreement (disagreement sets the discrepancy flag).  For
    k != N*d only the kernel tests apply: the consensus is then
    dissipative_only or not_contraction and unitarity stays undetermined
    unless refuted.  Verdicts depend on WB_hat only through its kernel,
    so they are invariant under row scaling M @ WB_hat, M invertible.
    """
    if sys.interval != UNIT_INTERVAL:
        raise ShapeError("analyze_interval needs a unit_interval system")
    alg = BoundaryAlgebra.of(sys)

    warnings = []
    if not alg.surjective:
        warnings.append("WB_hat has linearly dependent rows; kernel tests are "
                        "unaffected but rank-based conditions will fail")

    conditions = [
        range_containment(alg.ext.rank, alg.rank_wb_hat),
        check_injective_psd(alg),
        check_v_contraction(alg),
        check_kernel_dissipativity(alg),
        check_surjective_psd(alg),
        check_surjective_v(alg),
        *check_unitary_conditions(alg),
    ]

    by_id = {c.condition_id: c for c in conditions}
    consensus, unitary, discrepancy = decide(
        [by_id[i] for i in CONTRACTION_FAMILY], [by_id[i] for i in UNITARY_FAMILY])
    return Verdict(tuple(conditions), consensus, unitary, discrepancy, tuple(warnings))
