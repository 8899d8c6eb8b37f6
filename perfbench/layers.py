"""Per-layer accounting for the traced run.

Self time and call counts come from profiling the workload process with
``cProfile``: a function's self time is its span minus the spans of the
calls it made.  Functions are grouped into layers by the ``repro``
module they live in.  Time spent in builtins and in non-``repro``
Python (stdlib, numpy) is charged to the ``repro`` layer that called it,
following the profiler's caller edges; the compiled engine core's
methods belong to ``sim.engine``.

Work counters come from the objects a run leaves behind, through their
public attributes and ``stats()`` methods (:class:`Counters`).
"""

from __future__ import annotations

import os
import pstats
from dataclasses import dataclass, field

#: Module (dotted, relative to ``repro``) -> layer; longest prefix wins.
LAYER_OF_MODULE = {
    "experiments": "experiments",
    "sim.engine": "sim.engine",
    "sim._core": "sim.engine",
    "sim.link": "sim.link",
    "sim.queues": "sim.queues",
    "sim.node": "sim.node",
    "sim.routing": "sim.routing",
    "sim.address": "sim.address",
    "sim.topology": "sim.topology",
    "sim.packet": "sim.packet",
    "sim": "sim.other",
    "transport": "transport",
    "core": "core",
    "counting": "counting",
    "util.hashing": "util.hashing",
    "util": "util.other",
    "attacks": "attacks",
    "metrics": "metrics",
    "campaign": "campaign",
    "obs": "obs",
    "analysis": "analysis",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))
EXTERNAL = "external"  # time no repro caller could be found for


def _package_dir() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _module_of(filename: str, package: str) -> str | None:
    """``sim.link`` for ``<package>/sim/link.py``; None outside it."""
    if not filename.startswith(package) or not filename.endswith(".py"):
        return None
    module = filename[len(package):-3].replace(os.sep, ".")
    return module[: -len(".__init__")] if module.endswith(".__init__") else module


def layer_of(func: tuple, package: str) -> str | None:
    """The layer of one profiler entry, or None for foreign code."""
    filename, _, name = func
    if filename == "~":
        return "sim.engine" if "_corec" in name else None
    module = _module_of(filename, package)
    if module is None:
        return None
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = LAYER_OF_MODULE.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return "other"


def layer_profile(profile) -> dict:
    """``{layer: {"self_s": float, "calls": int}}`` from a cProfile run."""
    stats = pstats.Stats(profile).stats
    package = _package_dir()
    result: dict[str, dict] = {}
    memo: dict[tuple, dict] = {}

    def charge(layer: str, seconds: float, calls: int = 0) -> None:
        entry = result.setdefault(layer, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += seconds
        entry["calls"] += calls

    def shares(func: tuple) -> dict:
        """How time spent in ``func`` splits over layers, by caller edge."""
        layer = layer_of(func, package)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {EXTERNAL: 1.0}  # also what a recursive cycle sees
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        total = sum(edge[2] for edge in callers.values())
        if total > 0.0:
            split: dict[str, float] = {}
            for caller, edge in callers.items():
                for name, share in shares(caller).items():
                    split[name] = split.get(name, 0.0) + share * edge[2] / total
            memo[func] = split
        return memo[func]

    for func, (_, calls, tottime, _, callers) in stats.items():
        layer = layer_of(func, package)
        if layer is not None:
            charge(layer, tottime, calls)
            continue
        for caller, edge in callers.items():
            for name, share in shares(caller).items():
                charge(name, edge[2] * share)
        unattributed = tottime - sum(edge[2] for edge in callers.values())
        if unattributed > 0.0:
            charge(EXTERNAL, unattributed)
    return result


def function_calls(profile, qualname: str) -> int:
    """Total calls of the ``repro`` function named ``module:function``
    (for counters the program resets during a run)."""
    module, name = qualname.split(":")
    package = _package_dir()
    return sum(
        entry[1]
        for (filename, _, func), entry in pstats.Stats(profile).stats.items()
        if func == name and _module_of(filename, package) == module
    )


def top_functions(profile, count: int) -> list[dict]:
    """The ``count`` functions with the most self time (for the record)."""
    stats = pstats.Stats(profile).stats
    package = _package_dir()
    ranked = sorted(stats.items(), key=lambda item: -item[1][2])[:count]
    return [
        {
            "function": f"{_module_of(filename, package) or filename}:"
                        f"{line}:{name}",
            "layer": layer_of((filename, line, name), package),
            "calls": entry[1],
            "self_s": entry[2],
        }
        for (filename, line, name), entry in ranked
    ]


@dataclass
class Counters:
    """Deterministic work counters summed over the runs of a trace."""

    values: dict = field(default_factory=dict)
    peaks: dict = field(default_factory=dict)

    def add(self, name: str, amount) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def peak(self, name: str, amount) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), amount)

    def add_result(self, result) -> None:
        """Fold one finished run (with its live scenario) into the sums."""
        from repro.metrics.collectors import FlowTruth
        from repro.sim.packet import packet_pool_stats

        scenario = result.scenario
        queue = scenario.sim.queue_stats()
        self.add("sim.engine.events", result.events_executed)
        self.add("sim.engine.pushes", queue["pushes"])
        self.add("sim.engine.event_pool_reused", queue["event_pool_reused"])
        self.peak("sim.engine.peak_pending", queue["peak_occupancy"])
        for link in scenario.topology.links:
            stats = link.stats()
            self.add("sim.link.packets_offered", stats["packets_offered"])
            self.add("sim.link.packets_sent", stats["packets_sent"])
            self.add("sim.link.hook_drops", stats["hook_drops"])
            self.add("sim.queues.drops", link.queue.drops)
        nodes = [*scenario.topology.routers.values(),
                 *scenario.topology.hosts.values()]
        self.add("sim.node.packets_forwarded",
                 sum(node.packets_forwarded for node in nodes))
        pool = packet_pool_stats()
        self.add("sim.packet.allocated", pool["allocated"])
        self.add("sim.packet.reused", pool["reused"])
        self.add("transport.tcp.retransmissions",
                 sum(s.stats.retransmissions for s in scenario.tcp_senders))
        if scenario.tcp_sink is not None:
            self.add("transport.sink.acks_sent", scenario.tcp_sink.acks_sent)
        for agent in scenario.agents.values():
            stats = agent.stats
            self.add("core.mafic.packets_examined", stats.packets_examined)
            self.add("core.mafic.dropped", (
                stats.packets_dropped_probe + stats.packets_dropped_pdt
                + stats.packets_dropped_illegal + stats.packets_dropped_policy
            ))
            self.add("core.mafic.probes_initiated", stats.probes_initiated)
            self.add("core.tables.sft_evictions",
                     agent.tables.counters.sft_evictions)
        defense = scenario.defense_collector
        self.add("core.attack_drops", defense.of(FlowTruth.ATTACK).dropped)
        self.add("core.all_drops", defense.total_dropped)
        self.add("counting.pushback.requests",
                 len(scenario.coordinator.requests))
        victim = scenario.victim_collector
        self.add("metrics.victim_arrivals",
                 victim.attack_packets + victim.legit_packets)

    def metrics(self) -> dict:
        """Counter metrics, derived ratios included."""
        out = {**self.values, **self.peaks}
        drops = out.pop("core.all_drops", 0)
        attack = out.pop("core.attack_drops", 0)
        out["core.drop_precision"] = attack / drops if drops else 0.0
        touched = out.get("sim.packet.allocated", 0) \
            + out.get("sim.packet.reused", 0)
        out["sim.packet.reuse_ratio"] = (
            out.get("sim.packet.reused", 0) / touched if touched else 0.0
        )
        return out
