"""The benchmark's workloads: which configs run, on which engine core.

Every workload derives its experiment seeds from the workload seed given
on the command line; the program only ever sees the generated configs.
Seeds are drawn from ``SEED_POOL``, the seeds ``references.json`` holds
fingerprints for, so every full-scale run is checked bit-for-bit.

Why these workloads (see README.md for the layer map):

* ``table2`` -- Table II on the compiled core.  Forwarding (link, node,
  queues, packet) dominates; no SFT evictions.
* ``table2-pure`` -- the same configs on the pure-Python core: the only
  workload where the pure scheduler runs, and the twin-parity check.
* ``spoof-churn`` -- ``rotation-stress``: every packet a new flow with a
  legitimate-subnet spoofed source and a 512-entry SFT, so probing,
  defense tables, address legality and hashing do the work.
* ``campaign`` -- a 16-cell grid of small star cells through the
  2-worker pool into a fresh store, then ``campaign_report`` over it:
  worker spawn, leases and store I/O dominate, the event loop is small.
"""

from __future__ import annotations

import random
from typing import NamedTuple

SEED_POOL = tuple(range(1, 17))


class RunWorkload(NamedTuple):
    preset: str
    impl: str          # the engine core it must run on
    reference: str     # its group in references.json
    trace_runs: int    # runs in the fixed trace plan


RUN_WORKLOADS = {
    "table2": RunWorkload("paper-default", "compiled", "table2", 4),
    "table2-pure": RunWorkload("paper-default", "pure", "table2", 3),
    "spoof-churn": RunWorkload("rotation-stress", "compiled", "spoof-churn", 2),
}
CAMPAIGN = "campaign"
WORKLOADS = (*RUN_WORKLOADS, CAMPAIGN)

#: Pool workers on ``campaign`` (the reference host has 2 cores).
CAMPAIGN_JOBS = 2
CAMPAIGN_SEEDS = 4
#: Series bin width every campaign store is pinned to.
SERIES_BIN = 0.05

#: The campaign cell; ``--scale tiny`` shrinks the run workloads to it.
SMALL_CELL = {
    "total_flows": 8,
    "n_routers": 6,
    "duration": 1.5,
    "attack_start": 1.05,
    "topology": "star",
}


def impl_of(workload: str) -> str:
    """The engine core a workload must run on."""
    if workload in RUN_WORKLOADS:
        return RUN_WORKLOADS[workload].impl
    return "compiled"


def seed_list(workload_seed: int) -> list[int]:
    """The experiment seeds, in run order, for one workload seed."""
    return random.Random(workload_seed).sample(SEED_POOL, len(SEED_POOL))


def run_config(workload: str, seed: int, scale: str):
    """One run workload's config at ``seed``."""
    from repro.experiments.presets import get_preset

    config = get_preset(RUN_WORKLOADS[workload].preset)
    if scale == "tiny":
        return config.with_overrides(seed=seed, **SMALL_CELL)
    return config.with_overrides(seed=seed)


def campaign_spec(workload_seed: int, scale: str):
    """The campaign grid: 2 attack mixes x 2 drop probabilities x seeds."""
    from repro.campaign import AxisSpec, CampaignSpec

    count = 1 if scale == "tiny" else CAMPAIGN_SEEDS
    return CampaignSpec(
        name="perfbench",
        seeds=tuple(seed_list(workload_seed)[:count]),
        base=dict(SMALL_CELL),
        axes=(
            AxisSpec("attack_fraction", (0.25, 0.5)),
            AxisSpec("mafic.drop_probability", (0.7, 0.9)),
        ),
    )


def prepare_store(spec, root):
    """Spec planning, store creation and the manifest write."""
    from repro.campaign import open_store

    spec.plan()
    store = open_store(spec, root).ensure()
    store.pin_series_bin_width(SERIES_BIN)
    store.write_manifest(spec.to_dict(), series_bin_width=SERIES_BIN)
    return store


def import_program(workload: str) -> None:
    """Import what a workload's process needs before its first event."""
    if workload == CAMPAIGN:
        import repro.campaign.pool  # noqa: F401
    else:
        import repro.experiments.runner  # noqa: F401
        import repro.experiments.scenario  # noqa: F401


def set_up(workload: str, workload_seed: int, scale: str, root) -> None:
    """The work between the imports and a workload's first simulated
    event: the first ``build_scenario`` of a run workload, or the
    campaign's store preparation under ``root``."""
    if workload == CAMPAIGN:
        prepare_store(campaign_spec(workload_seed, scale), root)
    else:
        from repro.experiments.scenario import build_scenario

        seed = seed_list(workload_seed)[0]
        build_scenario(run_config(workload, seed, scale))
