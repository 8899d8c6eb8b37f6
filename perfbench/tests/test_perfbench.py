"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python -m pytest perfbench/tests -q

Smoke runs use ``--scale tiny`` (small star cells, about a second each),
so they check the plumbing, the correctness checks and the output
contract, not performance.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Counts the traced run must repeat exactly at a fixed seed.
DETERMINISTIC = (
    "sim.engine.pushes", "sim.packet.allocated", "sim.packet.reused",
    "sim.packet.reuse_ratio", "core.tables.sft_evictions",
    "sim.link.packets_offered",
)


def _bench(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_meets_the_output_contract(workload):
    result = _bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _bench(workload, trace=1), _bench(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    names = [n for n in first["metrics"]
             if n.endswith(".calls") or n in DETERMINISTIC]
    assert len(names) > len(DETERMINISTIC)
    for name in names:
        assert first["metrics"][name] == second["metrics"][name], name


def test_benchmark_never_selects_legacy_formulations():
    for path in HERE.glob("*.py"):
        text = path.read_text()
        for banned in ("repro.perf", "engine_mode", "legacy_mode", "calendar"):
            assert banned not in text, f"{path.name} uses {banned}"


def test_fingerprint_mismatch_is_reported():
    references = checks.load_references()
    seed, expected = next(iter(references["table2"].items()))
    assert checks.check(expected, references, "table2", seed, "full") == []
    tampered = json.loads(json.dumps(expected))
    tampered["events_executed"] += 1
    problems = checks.check(tampered, references, "table2", seed, "full")
    assert problems and "events_executed" in problems[0]


def test_full_scale_run_without_a_reference_fails():
    references = checks.load_references()
    fp = next(iter(references["campaign"].values()))
    problems = checks.check(fp, references, "campaign", "unknown", "full")
    assert problems == ["campaign/unknown: no reference recorded"]
    assert checks.check(fp, references, "campaign", "unknown", "tiny") == []


def test_missing_references_file_is_an_error(monkeypatch, tmp_path):
    monkeypatch.setattr(checks, "REFERENCES", tmp_path / "absent.json")
    with pytest.raises(FileNotFoundError):
        checks.load_references()


def test_setup_clock_starts_before_any_harness_import():
    tree = ast.parse((HERE / "setup_probe.py").read_text())
    body = [node for node in tree.body
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant))]
    clock = next(i for i, node in enumerate(body)
                 if isinstance(node, ast.Assign)
                 and node.targets[0].id == "started")
    before = body[:clock]
    assert all(isinstance(node, ast.Import) for node in before)
    assert {a.name for node in before for a in node.names} == {"sys", "time"}


def test_references_cover_the_seed_pool():
    references = checks.load_references()
    for group in ("table2", "spoof-churn"):
        assert set(references[group]) == {str(s) for s in workloads.SEED_POOL}
    assert len(references["campaign"]) == 4 * len(workloads.SEED_POOL)


def test_invariants_reject_a_run_that_missed_the_attack():
    references = checks.load_references()
    fp = json.loads(json.dumps(next(iter(references["table2"].values()))))
    assert checks.invariant_failures(fp, "table2", "full") == []
    fp["summary"]["accuracy"] = (0.5).hex()
    fp["identified_atrs"] = []
    problems = checks.invariant_failures(fp, "table2", "full")
    assert any("accuracy" in p for p in problems)
    assert any("ATR" in p for p in problems)


def test_seed_list_is_a_deterministic_permutation_of_the_pool():
    assert workloads.seed_list(7) == workloads.seed_list(7)
    assert workloads.seed_list(7) != workloads.seed_list(8)
    assert sorted(workloads.seed_list(7)) == list(workloads.SEED_POOL)


def test_layer_of_maps_modules_and_the_compiled_core():
    package = "/x/repro/"
    assert layers.layer_of((package + "sim/link.py", 1, "send"), package) \
        == "sim.link"
    assert layers.layer_of((package + "util/rng.py", 1, "f"), package) \
        == "util.other"
    assert layers.layer_of(
        ("~", 0, "<method 'run' of 'repro.sim._corec.Simulator' objects>"),
        package,
    ) == "sim.engine"
    assert layers.layer_of(("~", 0, "<built-in method len>"), package) is None
    assert layers.layer_of(("/usr/lib/json/x.py", 1, "f"), package) is None


def test_benchmark_json_matches_the_contract_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
