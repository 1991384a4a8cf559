"""Condition results and the aggregate verdict shared by both checkers.

The JSON schema is fixed: one object per condition id carrying
{applicable, holds, diagnostics, reason}, plus consensus, unitary,
discrepancy and warnings at the top level.  config.verdict_to_json writes
that layout from these fields, applicable being holds is not None.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CONTRACTION = "contraction"
NOT_CONTRACTION = "not_contraction"
DISSIPATIVE_ONLY = "dissipative_only"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of one algebraic condition.

    holds is None exactly when the condition does not apply, so applicable
    is read from it, never stored; reason says why a condition was skipped
    or failed.  Diagnostics are named scalars (floats).
    """

    condition_id: str
    holds: bool | None
    diagnostics: dict = field(default_factory=dict)
    reason: str | None = None

    @property
    def applicable(self) -> bool:
        return self.holds is not None


@dataclass(frozen=True)
class Verdict:
    """Per-condition results plus the consensus of the equivalent family.

    consensus: contraction | not_contraction | dissipative_only | undetermined
    unitary:   True / False / None (None = conservative but not certifiable)
    discrepancy: True iff two applicable conditions that are provably
    equivalent disagree -- always a bug signal, never a modeling outcome.
    """

    conditions: tuple
    consensus: str
    unitary: bool | None
    discrepancy: bool
    warnings: tuple = ()

    def __getitem__(self, condition_id: str) -> ConditionResult:
        for c in self.conditions:
            if c.condition_id == condition_id:
                return c
        raise KeyError(condition_id)


def family_outcome(results):
    """Combine the applicable members of one equivalence family.

    Returns (value, discrepancy): value True/False when all applicable
    members agree, None when none is applicable or they disagree
    (disagreement also sets the flag).
    """
    vals = [r.holds for r in results if r.applicable]
    if not vals:
        return None, False
    if all(vals):
        return True, False
    if not any(vals):
        return False, False
    return None, True


def decide(contraction, unitary):
    """(consensus, unitary, discrepancy) from the two equivalence families.

    The one verdict rule of both checkers.  A family, its kernel test
    first, certifies generation when another member applies, and decides by
    the agreement of its applicable members; else its kernel test decides:
    it can show dissipativity (dissipative_only) or refute unitarity, never
    certify it.  A unitary certificate without contraction is a bug signal:
    it sets the discrepancy flag and unitary becomes None.  Once
    contraction is refuted, a certifying unitary family answers False.
    """
    c_value, disc_c = family_outcome(contraction)
    u_value, disc_u = family_outcome(unitary)
    discrepancy = disc_c or disc_u
    c_certified, u_certified = (any(r.applicable for r in f[1:])
                                for f in (contraction, unitary))
    if c_certified:
        consensus = {True: CONTRACTION, False: NOT_CONTRACTION,
                     None: UNDETERMINED}[c_value]
    else:
        consensus = DISSIPATIVE_ONLY if contraction[0].holds else NOT_CONTRACTION
    if not u_certified:
        u_value = None if unitary[0].holds else False
    if u_value is True and consensus != CONTRACTION:
        discrepancy = True
        u_value = None
    if u_certified and consensus == NOT_CONTRACTION and u_value is None:
        u_value = False
    return consensus, u_value, discrepancy
