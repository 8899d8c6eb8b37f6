#!/usr/bin/env python3
"""The MAFIC reproduction's benchmark: one command per workload.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The command

1. builds the program from ``src/`` into ``.bench_build/`` (cached; the
   build time is printed as information, never counted in ``setup_s``);
2. with ``--trace 0``, runs the workload's closed loop for ``--seconds``
   in a measuring process, which also times set-up in fresh interpreters
   spread over the window (``setup_s`` is their median);
   with ``--trace 1``, runs the workload's fixed trace plan untraced and
   then under the profiler for the per-layer metrics;
3. checks every run's outputs (``checks.py``), prints every metric with
   its unit and a provenance block, writes the whole record to
   ``.bench_out/``, and prints the result as the last line of stdout.

Metric names and units come from ``BENCHMARK.json``: ``end_to_end`` for
``--trace 0``, ``per_layer`` for ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import build
from workloads import CAMPAIGN, WORKLOADS, impl_of, seed_list

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
#: Hard cap on one invocation, so a wedged run cannot exceed 180 s.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # An installed program has byte-code caches; without them every
    # set-up sample would compile repro's sources again.  The prefix
    # keeps every cache the benchmark writes inside .bench_build.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(build.BUILD / "pycache")
    env["PYTHONPATH"] = os.pathsep.join([str(build.LIB), str(HERE)])
    env["TMPDIR"] = str(OUT / "tmp")  # keep every write inside the checkout
    if impl_of(workload) == "pure":
        env["REPRO_NO_COMPILED"] = "1"
    return env


def _child(mode: str, args, deadline: float) -> dict:
    """Run ``child.py <mode>`` in its own process group; its JSON."""
    cmd = [
        sys.executable, str(HERE / "child.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", args.scale,
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(args.workload),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process overran the deadline") from None
    finally:
        try:  # the child and anything it spawned (pool workers)
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def _git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _end_to_end(workload: str, result: dict) -> dict:
    samples = result["samples"]
    walls = samples["run_s"]
    if not walls:
        raise BenchError("no run finished")
    cells = samples["cells"] if workload == CAMPAIGN else [1] * len(walls)
    return {
        "events_per_s": sum(samples["events"]) / sum(walls),
        "run_s.p50": statistics.median(walls),
        "cells_per_s": sum(cells) / sum(walls),
        # A mean, not a median: a report takes well under 1 ms, and the
        # median of such short samples jumps between the host's fast
        # and slow phases from run to run; the mean over the window
        # moves with their time-weighted mix, as events_per_s does.
        "report_s": statistics.fmean(samples["report_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mib": result["peak_rss_mib"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="MAFIC reproduction benchmark (see perfbench/README.md)"
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small configs for smoke tests "
                        "(checked by invariants, not references)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        built = build.ensure_built()
    except (OSError, ValueError, build.BuildFailed) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    provenance = {
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seed_list": seed_list(args.seed),
        "scale": args.scale,
        "build": built,
    }
    try:
        if args.trace:
            result = _child("trace", args, deadline)
            metrics = result["metrics"]
            wanted = spec["per_layer"]
        else:
            result = _child("measure", args, deadline)
            metrics = _end_to_end(args.workload, result)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    provenance["engine"] = result["engine"]
    provenance["loadavg_end"] = list(os.getloadavg())

    attempted, failed = result["attempted"], result["failed"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    final = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }

    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"provenance": provenance, "result": final, "detail": result},
        indent=1,
    ) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(provenance))
    if not args.trace:
        print(f"  (run_s.p50 over {len(result['samples']['run_s'])} runs, "
              f"setup_s over {len(result['samples']['setup_s'])} "
              "fresh processes)")
    for m in wanted:
        print(f"  {m['name']:32s} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {failed / max(1, attempted):>16.6g} "
          f"fraction ({failed}/{attempted})")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
