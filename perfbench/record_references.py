#!/usr/bin/env python3
"""Re-record ``references.json``: the fingerprint of every pool seed.

    python3 perfbench/record_references.py

Runs every seed of ``workloads.SEED_POOL`` at full scale: Table II on the
compiled and on the pure core (and refuses to record unless the two
agree bit-for-bit), ``rotation-stress`` on the compiled core, and every
campaign cell (all axis points x every pool seed) through an in-process
worker into a scratch store.  Only re-record when a change is meant to
alter simulation results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import build
import checks
import workloads
from run import ROOT, child_env


def _emit(group: str) -> dict:
    """Fingerprints of one group, computed in this (configured) process."""
    if group == "campaign":
        from repro.campaign.worker import run_worker
        spec = replace(workloads.campaign_spec(0, "full"),
                       seeds=workloads.SEED_POOL)
        root = ROOT / ".bench_out" / "tmp" / "references"
        shutil.rmtree(root, ignore_errors=True)
        try:
            store = workloads.prepare_store(spec, root)
            run_worker(store.directory, worker="references")
            out = {}
            for planned in spec.plan():
                stored = store.read_run(planned.run_id, load_series=False)
                out[planned.run_id] = checks.fingerprint(
                    stored.summary, stored.events_executed,
                    stored.identified_atrs, stored.true_atrs,
                )
            return out
        finally:
            shutil.rmtree(root, ignore_errors=True)

    from repro.experiments.runner import run_experiment

    out = {}
    for seed in workloads.SEED_POOL:
        result = run_experiment(workloads.run_config(group, seed, "full"))
        out[str(seed)] = checks.fingerprint(
            result.summary, result.events_executed,
            result.identified_atrs, result.true_atrs,
        )
    return out


def _record(group: str, workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--emit", group],
        cwd=ROOT, env=child_env(workload), stdout=subprocess.PIPE,
        text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        print(json.dumps(_emit(args.emit)))
        return 0

    build.ensure_built()
    table2 = _record("table2", "table2")
    pure = _record("table2-pure", "table2-pure")
    if pure != table2:
        differing = sorted(s for s in table2 if table2[s] != pure.get(s))
        print(f"FATAL: pure and compiled cores differ at seeds {differing}")
        return 1
    references = {
        "table2": table2,
        "spoof-churn": _record("spoof-churn", "spoof-churn"),
        "campaign": _record("campaign", workloads.CAMPAIGN),
    }
    checks.REFERENCES.write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {checks.REFERENCES} "
          f"({sum(len(v) for v in references.values())} fingerprints)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
