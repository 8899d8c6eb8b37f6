"""The measuring process: ``python3 perfbench/child.py <mode> ...``.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the build
in ``.bench_build/lib`` and, for the pure workload, ``REPRO_NO_COMPILED=1``.
It prints one JSON object on stdout; everything else goes to stderr.

Modes:

``measure``  the closed loop for ``--seconds``, untraced: the
             end-to-end samples.  Between runs, at evenly spaced points
             of the window, it times set-up in fresh interpreters
             (``setup_probe.py``), so the ``setup_s`` samples see the
             same stretch of the host's drift as the runs do.
``trace``    a fixed plan run untraced, then again under ``cProfile``:
             per-layer self time, call counts and work counters.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
import workloads
from workloads import CAMPAIGN, CAMPAIGN_JOBS, RUN_WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11        # fresh set-up processes per measuring window
IMPORT_SAMPLES = 3        # fresh processes timing the imports of a trace
REPORT_RUNS = 4           # the multi-seed report covers this many runs
REPORT_BATCH = 50         # renders timed after each run (each is < 1 ms)
REPORT_MIN_BATCHES = 5
CAMPAIGN_REPORTS = 5      # campaign_report calls per finished grid
#: Per-layer metrics of the campaign pool, store and bus; the run
#: workloads do no work there and report them as 0.
CAMPAIGN_ONLY = (
    "campaign.store.artifacts", "campaign.store.bytes",
    "campaign.store.write_s", "campaign.query.report_s",
    "campaign.pool.deaths", "campaign.pool.respawns",
    "campaign.pool.busy_ratio", "obs.events_decoded",
)


def _peak_rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _core(expected: str) -> dict:
    """The active engine core; refuses to measure the wrong one."""
    from repro.sim._core import core_info

    info = core_info()
    if info["impl"] != expected:
        raise SystemExit(
            f"FATAL: expected the {expected!r} engine core but "
            f"{info['impl']!r} is active ({info['module']})"
        )
    return info


def _scratch(args) -> Path:
    path = ROOT / ".bench_out" / "tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class _SetupProbes:
    """Fresh-interpreter set-up samples (``setup_probe.py``), one per
    call of ``due`` once its share of the window has passed.

    A finished probe is reaped only by ``reap``: until then its rusage
    is not added to this process's ``RUSAGE_CHILDREN``, so on
    ``campaign`` a probe never stands in for the largest pool worker.
    """

    def __init__(self, args) -> None:
        self.args = args
        self.base = ROOT / ".bench_out" / "tmp" / f"setup-{os.getpid()}"
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.unreaped: list[subprocess.Popen] = []

    def probe(self) -> dict:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"),
             self.args.workload, str(self.args.seed), self.args.scale,
             str(self.base / "store")],
            stdout=subprocess.PIPE, text=True,
        )
        self.unreaped.append(proc)
        with proc.stdout:
            out = proc.stdout.read()  # EOF: the probe has exited
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.reap()  # reports the probe's exit status
            raise SystemExit(f"set-up probe printed no sample: {out!r}")

    def sample(self) -> None:
        taken = self.probe()
        self.setup_s.append(taken["setup_s"])
        self.import_s.append(taken["import_s"])

    def due(self, elapsed: float) -> None:
        share = self.args.seconds * len(self.setup_s) / SETUP_SAMPLES
        if len(self.setup_s) < SETUP_SAMPLES and elapsed >= share:
            self.sample()

    def finish(self, who=resource.RUSAGE_SELF) -> tuple[dict, float]:
        """The samples, topped up to ``SETUP_SAMPLES``, and the peak RSS
        of ``who`` read before the probes are reaped."""
        while len(self.setup_s) < SETUP_SAMPLES:
            self.sample()
        peak = _peak_rss_mib(who)
        self.reap()
        return {"setup_s": self.setup_s, "import_s": self.import_s}, peak

    def reap(self) -> None:
        codes = [proc.wait() for proc in self.unreaped]
        self.unreaped.clear()
        failed = [code for code in codes if code != 0]
        if failed:
            raise SystemExit(f"set-up probe exited with {failed[0]}")


# -------------------------------------------------------- run workloads


class _RunChecker:
    """Fingerprints each finished run against its reference."""

    def __init__(self, workload: str, scale: str) -> None:
        self.group = RUN_WORKLOADS[workload].reference
        self.scale = scale
        self.references = checks.load_references()
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def run(self, config, seed):
        """``(result, wall)``; result is None when the run raised."""
        from repro.experiments.runner import run_experiment

        self.attempted += 1
        begin = time.perf_counter()
        try:
            result = run_experiment(config)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.failed += 1
            self.problems.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - begin
        wall = time.perf_counter() - begin
        fp = checks.fingerprint(
            result.summary, result.events_executed,
            result.identified_atrs, result.true_atrs,
        )
        found = checks.check(fp, self.references, self.group, seed, self.scale)
        if found:
            self.failed += 1
            self.problems.extend(f"seed {seed}: {p}" for p in found)
        return result, wall


def _warm_up(workload: str) -> None:
    """Finish lazy imports and first-call caches before the clock, the
    report's included, so every run's peak RSS contains them alike."""
    from repro.experiments.runner import run_experiment

    result = run_experiment(workloads.run_config(workload, 1, "tiny")).detached()
    _report_sample([result, result])  # two runs: the t-quantile path


def _report_sample(results) -> float:
    """Mean wall of one multi-seed report (what ``repro run --seeds``
    prints) over ``results``, across a batch of renders."""
    from repro.analysis.aggregate import aggregate_runs

    begin = time.perf_counter()
    for _ in range(REPORT_BATCH):
        aggregate_runs(results).as_percent_table()
    return (time.perf_counter() - begin) / REPORT_BATCH


def measure_runs(args) -> dict:
    checker = _RunChecker(args.workload, args.scale)
    seeds = workloads.seed_list(args.seed)
    _warm_up(args.workload)
    probes = _SetupProbes(args)
    probes.probe()  # unmeasured: the first pays the cold file cache
    walls, events, finished, reports = [], [], [], []
    started = time.perf_counter()
    index = 0
    while True:
        seed = seeds[index % len(seeds)]
        index += 1
        config = workloads.run_config(args.workload, seed, args.scale)
        result, wall = checker.run(config, seed)
        if result is not None:
            walls.append(wall)
            events.append(result.events_executed)
            if len(finished) < REPORT_RUNS:
                finished.append(result.detached())
            del result
        # Report samples are spread over the loop, like the runs.
        if len(finished) == REPORT_RUNS:
            reports.append(_report_sample(finished))
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds:
            break
        probes.due(elapsed)
    while finished and len(reports) < REPORT_MIN_BATCHES:
        reports.append(_report_sample(finished))
    setup, peak = probes.finish()
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems[:20],
        "seeds_run": [seeds[i % len(seeds)] for i in range(index)],
        "samples": {"run_s": walls, "events": events, "report_s": reports,
                    **setup},
        "peak_rss_mib": peak,
    }


class _RunnerHooks:
    """Wraps the runner's build and run entry points for a trace.

    Records the wall of every ``build_scenario`` and ``run_experiment``
    call and the event-loop wall of each run; with ``counters`` set,
    folds each finished run into them with the profiler paused.
    """

    def __init__(self, counters=None, profile=None) -> None:
        self.counters = counters
        self.profile = profile
        self.builds: list[float] = []
        self.runs: list[float] = []
        self.loops: list[float] = []

    def __enter__(self) -> "_RunnerHooks":
        from repro.experiments import runner

        self._runner = runner
        self._build = build = runner.build_scenario
        self._run = run = runner.run_experiment

        def timed_build(*a, **kw):
            begin = time.perf_counter()
            try:
                return build(*a, **kw)
            finally:
                self.builds.append(time.perf_counter() - begin)

        def timed_run(*a, **kw):
            begin = time.perf_counter()
            result = run(*a, **kw)
            self.runs.append(time.perf_counter() - begin)
            self.loops.append(result.wall_seconds)
            if self.counters is not None:
                self.profile.disable()
                self.counters.add_result(result)
                self.profile.enable()
            return result

        runner.build_scenario = timed_build
        runner.run_experiment = timed_run
        return self

    def __exit__(self, *exc) -> None:
        self._runner.build_scenario = self._build
        self._runner.run_experiment = self._run

    def metrics(self) -> dict:
        build, run, loop = sum(self.builds), sum(self.runs), sum(self.loops)
        return {
            "experiments.build_s": build,
            "experiments.post_s": run - build - loop,
            "sim.engine.loop_s": loop,
        }


def trace_runs(args) -> dict:
    checker = _RunChecker(args.workload, args.scale)
    plan = workloads.seed_list(args.seed)[: RUN_WORKLOADS[args.workload].trace_runs]
    configs = [workloads.run_config(args.workload, s, args.scale) for s in plan]
    _warm_up(args.workload)

    with _RunnerHooks() as timing:
        begin = time.perf_counter()
        for config, seed in zip(configs, plan):
            checker.run(config, seed)
        untraced = time.perf_counter() - begin

    counters = layers.Counters()
    profile = cProfile.Profile()
    with _RunnerHooks(counters, profile):
        begin = time.perf_counter()
        for config, seed in zip(configs, plan):
            profile.enable()
            checker.run(config, seed)
            profile.disable()
        traced = time.perf_counter() - begin

    metrics = {**counters.metrics(), **timing.metrics()}
    metrics.update(dict.fromkeys(CAMPAIGN_ONLY, 0))
    return _trace_result(checker, profile, metrics, untraced, traced,
                         len(plan))


# ------------------------------------------------------------- campaign


class _BusTally:
    """A parent-bus subscriber: counts decoded worker-protocol events."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.events = 0
        self.cell_loop_s = 0.0

    def emit(self, event) -> None:
        with self.lock:
            self.events += 1
            if event.kind == "campaign.run":
                self.cell_loop_s += event.wall_seconds

    def close(self) -> None:
        """Nothing to release."""


def _bus():
    from repro.obs.bus import EventBus

    bus = EventBus()
    tally = bus.subscribe(_BusTally())
    return bus, tally


class _CampaignChecker:
    """Every planned cell filed, none quarantined, each fingerprinted."""

    def __init__(self, spec, scale: str) -> None:
        self.planned = spec.plan()
        self.scale = scale
        self.references = checks.load_references()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_store(self, store) -> int:
        """Check one finished store; returns the events its cells ran."""
        events = 0
        quarantined = store.quarantined_ids()
        for planned in self.planned:
            self.attempted += 1
            run_id = planned.run_id
            if run_id in quarantined or not store.has(run_id):
                self.failed += 1
                state = "quarantined" if run_id in quarantined else "not filed"
                self.problems.append(f"cell {run_id}: {state}")
                continue
            stored = store.read_run(run_id, load_series=False)
            events += stored.events_executed
            fp = checks.fingerprint(
                stored.summary, stored.events_executed,
                stored.identified_atrs, stored.true_atrs,
            )
            found = checks.check(fp, self.references, "campaign", run_id,
                                 self.scale)
            if found:
                self.failed += 1
                self.problems.extend(found)
        return events


def _warm_up_workers() -> None:
    """Compile the worker's modules once, so no grid pays for it."""
    subprocess.run(
        [sys.executable, "-c",
         "import repro.campaign.worker, repro.experiments.runner"],
        check=True,
    )


def _report_walls(spec, root, count: int) -> list[float]:
    from repro.campaign import campaign_report

    walls = []
    for _ in range(count):
        begin = time.perf_counter()
        campaign_report(spec, root=root)
        walls.append(time.perf_counter() - begin)
    return walls


def measure_campaign(args) -> dict:
    from repro.campaign import open_store
    from repro.campaign.pool import run_distributed

    spec = workloads.campaign_spec(args.seed, args.scale)
    checker = _CampaignChecker(spec, args.scale)
    scratch = _scratch(args)
    _warm_up_workers()
    probes = _SetupProbes(args)
    probes.probe()  # unmeasured: the first pays the cold file cache
    walls, cells, events, reports = [], [], [], []
    started = time.perf_counter()
    try:
        grid = 0
        while True:
            root = scratch / f"grid{grid}"
            grid += 1
            bus, _ = _bus()
            begin = time.perf_counter()
            report = run_distributed(
                spec, root=root, jobs=CAMPAIGN_JOBS,
                series_bin_width=workloads.SERIES_BIN, bus=bus,
            )
            walls.append(time.perf_counter() - begin)
            cells.append(report.executed)
            events.append(checker.check_store(open_store(spec, root)))
            if not reports:  # unmeasured: the first call pays lazy imports
                _report_walls(spec, root, 1)
            reports.extend(_report_walls(spec, root, CAMPAIGN_REPORTS))
            shutil.rmtree(root, ignore_errors=True)
            elapsed = time.perf_counter() - started
            if elapsed >= args.seconds:
                break
            probes.due(elapsed)
        setup, peak = probes.finish(resource.RUSAGE_CHILDREN)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems[:20],
        "seeds_run": list(spec.seeds),
        "samples": {
            "run_s": walls, "cells": cells, "events": events,
            "report_s": reports, **setup,
        },
        "peak_rss_mib": peak,
    }


def trace_campaign(args) -> dict:
    from repro.campaign import CampaignStore
    from repro.campaign.pool import run_pool
    from repro.campaign.worker import run_worker

    spec = workloads.campaign_spec(args.seed, args.scale)
    checker = _CampaignChecker(spec, args.scale)
    scratch = _scratch(args)
    _warm_up_workers()
    metrics: dict = {}
    try:
        # The pool, untraced: its lifecycle counters and the bus.
        store = workloads.prepare_store(spec, scratch / "pool")
        bus, tally = _bus()
        pool = run_pool(store.directory, jobs=CAMPAIGN_JOBS, bus=bus)
        checker.check_store(store)
        metrics["campaign.pool.deaths"] = pool.deaths
        metrics["campaign.pool.respawns"] = pool.respawns
        metrics["campaign.pool.busy_ratio"] = (
            tally.cell_loop_s / (pool.jobs * pool.wall_seconds)
        )
        metrics["obs.events_decoded"] = tally.events

        # The same plan through one in-process worker, untraced.  The
        # pool's workers are other processes, which the profiler in this
        # one cannot see.
        root = scratch / "untraced"
        store = workloads.prepare_store(spec, root)
        writes: list[float] = []
        write = CampaignStore.write_result

        def timed_write(self, *a, **kw):
            begin = time.perf_counter()
            try:
                return write(self, *a, **kw)
            finally:
                writes.append(time.perf_counter() - begin)

        CampaignStore.write_result = timed_write
        try:
            with _RunnerHooks() as timing:
                begin = time.perf_counter()
                run_worker(store.directory, worker="perfbench")
                reports = _report_walls(spec, root, CAMPAIGN_REPORTS)
                untraced = time.perf_counter() - begin
        finally:
            CampaignStore.write_result = write
        checker.check_store(store)
        files = [p for p in store.directory.rglob("*") if p.is_file()]
        metrics["campaign.store.artifacts"] = len(store.run_ids())
        metrics["campaign.store.bytes"] = sum(p.stat().st_size for p in files)
        metrics["campaign.store.write_s"] = sum(writes)
        metrics["campaign.query.report_s"] = statistics.median(reports)
        metrics.update(timing.metrics())

        # Traced: the same plan again under the profiler.
        root = scratch / "traced"
        store = workloads.prepare_store(spec, root)
        counters = layers.Counters()
        profile = cProfile.Profile()
        with _RunnerHooks(counters, profile):
            begin = time.perf_counter()
            profile.enable()
            run_worker(store.directory, worker="perfbench")
            _report_walls(spec, root, CAMPAIGN_REPORTS)
            profile.disable()
            traced = time.perf_counter() - begin
        checker.check_store(store)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics.update(counters.metrics())
    return _trace_result(checker, profile, metrics, untraced, traced,
                         len(checker.planned))


# -------------------------------------------------------------- output


def _trace_result(checker, profile, metrics, untraced, traced,
                  runs) -> dict:
    by_layer = layers.layer_profile(profile)
    for layer in (*layers.LAYERS, layers.EXTERNAL):
        entry = by_layer.get(layer, {"self_s": 0.0, "calls": 0})
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.calls"] = entry["calls"]
    metrics["counting.loglog.items_added"] = layers.function_calls(
        profile, "counting.loglog:_add_hashed"
    )
    metrics["trace.runs"] = runs
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems[:20],
        "layers": by_layer,
        "top_functions": layers.top_functions(profile, 25),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["measure", "trace"])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = parser.parse_args()
    workloads.import_program(args.workload)
    engine = _core(workloads.impl_of(args.workload))
    if args.mode == "measure":
        run = measure_campaign if args.workload == CAMPAIGN else measure_runs
        out = run(args)
    else:
        # This process imported the harness first, so the imports are
        # timed in fresh interpreters, as set-up is.
        probes = _SetupProbes(args)
        probes.probe()  # unmeasured: the first pays the cold file cache
        import_s = [probes.probe()["import_s"] for _ in range(IMPORT_SAMPLES)]
        probes.reap()
        run = trace_campaign if args.workload == CAMPAIGN else trace_runs
        out = run(args)
        out["metrics"]["experiments.import_s"] = statistics.median(import_s)
    out["engine"] = engine
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
