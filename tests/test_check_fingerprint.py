"""The `check` benchmark's verdict fingerprint, pinned in the test suite.

perfbench/workloads.py builds the `check` workload: the corpus and 602
fixed random systems through the `phwell analyze --json` path.  Its
fingerprint hashes the discrete fields of every report, so a change that
flips any verdict, condition or discrepancy flag fails here, not only in
a hand-run benchmark.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINT = "sha256:be73fb4d821feda216fba5a676c8e92475147a86e8652db5394f7639e7742808"


def test_check_round_keeps_its_fingerprint(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    workload = workloads.build_check(0, str(ROOT))
    failures = []
    for call in workload.calls:
        try:
            out = call.run()
        except Exception as exc:  # the check decides whether this is a failure
            out = exc
        kind = call.check(out)
        if kind:
            failures.append(kind)
    assert failures == []
    summary = workload.summary()
    assert summary["fingerprint_systems"] == 619
    assert summary["fingerprint"] == FINGERPRINT
