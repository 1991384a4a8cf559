"""The one verdict rule both checkers share, on hand-built condition results."""

import dataclasses

import pytest

from phwell.verdict import (
    CONTRACTION,
    DISSIPATIVE_ONLY,
    NOT_CONTRACTION,
    UNDETERMINED,
    ConditionResult,
    decide,
)


@pytest.mark.parametrize("contraction, unitary, certified, expected", [
    # both families agree with themselves
    ((True, True), (False, False), (True, True), (CONTRACTION, False, False)),
    ((True, True), (True, True), (True, True), (CONTRACTION, True, False)),
    # skipped members do not vote
    ((True, None, True), (True, None, True), (True, True), (CONTRACTION, True, False)),
    # a family disagrees: its value is undetermined and the flag is set
    ((True, False), (False, False), (True, True), (UNDETERMINED, False, True)),
    ((True, True), (True, False), (True, True), (CONTRACTION, None, True)),
    # unitary without contraction is a bug signal; unitary becomes None
    ((True,), (True, True), (False, True), (DISSIPATIVE_ONLY, None, True)),
    ((True, False), (True, True), (True, True), (UNDETERMINED, None, True)),
    # ... and once contraction is refuted a certifying family answers False
    ((False, False), (True, True), (True, True), (NOT_CONTRACTION, False, True)),
    # a family that does not certify leaves the decision to its kernel test
    ((True,), (True,), (False, False), (DISSIPATIVE_ONLY, None, False)),
    ((False,), (True,), (False, False), (NOT_CONTRACTION, None, False)),
    ((True,), (False,), (False, False), (DISSIPATIVE_ONLY, False, False)),
    ((True, True), (True,), (True, False), (CONTRACTION, None, False)),
    # not_contraction with unitary None (its members disagree): a certifying
    # unitary family says False
    ((False, False), (True, False), (True, True), (NOT_CONTRACTION, False, True)),
    ((False, False), (True,), (True, False), (NOT_CONTRACTION, None, False)),
])
def test_decide_table(contraction, unitary, certified, expected):
    cfam = [ConditionResult(f"c{i}", h) for i, h in enumerate(contraction)]
    ufam = [ConditionResult(f"u{i}", h) for i, h in enumerate(unitary)]
    # each family's first member is its kernel test, as in the checkers; a
    # row's certification follows from its members: another one applies
    assert tuple(any(m.applicable for m in f[1:]) for f in (cfam, ufam)) == certified
    assert decide(cfam, ufam) == expected


def test_applicable_is_read_from_holds():
    # a result states its decision once: holds None is "does not apply"
    assert ConditionResult("T1.3", None).applicable is False
    assert ConditionResult("T1.3", False).applicable is True
    assert ConditionResult("T1.3", True).applicable is True
    assert "applicable" not in {f.name for f in dataclasses.fields(ConditionResult)}
