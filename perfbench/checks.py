"""Correctness checks: invariants on every run, references at full scale.

A run's fingerprint is its ``MetricsSummary`` with every float written
as ``float.hex()``, its ``events_executed`` and its identified and true
ATR sets.  ``references.json`` holds the fingerprints of every
full-scale seed in ``workloads.SEED_POOL`` (``record_references.py``
writes it).  ``table2`` and ``table2-pure`` share one reference group,
so every pure run is compared bit-for-bit with the compiled build's
result at the same seed: twin parity is measured on each run.

Every run is held to seed-independent invariants.  At full scale it
must also match its reference: a missing one (for example a campaign
cell whose config hash changed) is a failure, never a quiet fall-back
to the weaker invariants.  ``--scale tiny`` runs have no references.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

#: Lowest accuracy a full-scale run may have, per reference group.  The
#: paper reports ~99% at Pd = 90% on Table II (Fig. 3a); under per-packet
#: source rotation suppression degrades to the Bernoulli(Pd) gate.
MIN_ACCURACY = {"table2": 0.95, "spoof-churn": 0.85}

_RATES = (
    "accuracy", "traffic_reduction", "false_positive_rate",
    "false_negative_rate", "legit_drop_rate",
)


def fingerprint(summary, events_executed, identified_atrs, true_atrs) -> dict:
    """The bit-exact identity of one run's outputs."""
    return {
        "summary": {
            key: value.hex() if isinstance(value, float) else value
            for key, value in dataclasses.asdict(summary).items()
        },
        "events_executed": int(events_executed),
        "identified_atrs": sorted(identified_atrs),
        "true_atrs": sorted(true_atrs),
    }


def load_references() -> dict:
    """``{group: {key: fingerprint}}``; raises when the file is absent."""
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def invariant_failures(fp: dict, group: str, scale: str) -> list[str]:
    """Seed-independent properties every run of ``group`` must have."""
    summary = {
        key: float.fromhex(value) if isinstance(value, str) else value
        for key, value in fp["summary"].items()
    }
    problems = [
        f"{name}={summary[name]!r} outside [0, 1]"
        for name in _RATES if not 0.0 <= summary[name] <= 1.0
    ]
    if fp["events_executed"] <= 0:
        problems.append("no events executed")
    if summary["attack_dropped"] > summary["attack_examined"]:
        problems.append("more attack packets dropped than examined")
    if scale != "full" or group not in MIN_ACCURACY:
        return problems  # small cells end before the defense engages
    if summary["total_examined"] <= 0:
        problems.append("the defense examined no packets")
    if not set(fp["true_atrs"]) <= set(fp["identified_atrs"]):
        problems.append("pushback missed a true ATR")
    if summary["accuracy"] < MIN_ACCURACY[group]:
        problems.append(
            f"accuracy {summary['accuracy']:.4f} below the expected band "
            f"(>= {MIN_ACCURACY[group]})"
        )
    return problems


def check(fp: dict, references: dict, group: str, key, scale: str) -> list[str]:
    """Problems with one run's fingerprint (empty when it is correct).

    Every run is held to the invariants; a full-scale run must also
    match its recorded reference exactly.
    """
    problems = invariant_failures(fp, group, scale)
    if scale != "full":
        return problems
    expected = references.get(group, {}).get(str(key))
    if expected is None:
        problems.append(f"{group}/{key}: no reference recorded")
    elif fp != expected:
        diff = sorted(
            name for name in expected
            if fp.get(name) != expected[name]
        )
        problems.append(
            f"{group}/{key}: fingerprint differs from reference in {diff}"
        )
    return problems
