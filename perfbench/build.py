"""Build the program under test into ``.bench_build/`` from ``src/``.

The build is what ``pip install .`` would produce, laid out for import:
``.bench_build/lib/repro`` is a copy of ``src/repro`` plus the compiled
engine core, built by the repo's own ``setup.py build_ext`` (so with the
flags the repo ships) into ``repro/sim/_corec*.so``.  Nothing under
``src/`` is written.  The build is cached on a digest of every source
file, ``setup.py`` and the interpreter version, so only the first run in
a checkout pays for it; its wall time is reported as information, never
as part of ``setup_s``.

The pure workload imports the same tree with ``REPRO_NO_COMPILED=1``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BUILD = ROOT / ".bench_build"
LIB = BUILD / "lib"
EXT_SOURCE = SRC / "sim" / "_corec.c"
SETUP_PY = ROOT / "setup.py"


class BuildFailed(RuntimeError):
    """The checkout has no buildable program."""


def _source_files() -> list[Path]:
    return sorted(
        path for path in SRC.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
        and path.suffix not in (".so", ".pyd", ".pyc")
    )


def _digest(files: list[Path]) -> str:
    digest = hashlib.sha256(sys.version.encode())
    digest.update(SETUP_PY.read_bytes())
    for path in files:
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_built() -> dict:
    """Build (or reuse) ``.bench_build/lib``; return what happened."""
    if not all(p.is_file() for p in (SRC / "__init__.py", EXT_SOURCE,
                                     SETUP_PY)):
        raise BuildFailed(
            f"no program to benchmark: {SRC}, {EXT_SOURCE} or {SETUP_PY} "
            "is missing "
            "(run from the root of a full checkout)"
        )
    files = _source_files()
    digest = _digest(files)
    stamp = BUILD / "stamp.json"
    if stamp.is_file() and list(LIB.glob("repro/sim/_corec*.so")):
        try:
            if json.loads(stamp.read_text())["digest"] == digest:
                return {"lib": str(LIB), "cached": True, "build_s": 0.0}
        except (ValueError, KeyError):
            pass
    started = time.perf_counter()
    shutil.rmtree(LIB, ignore_errors=True)
    for path in files:
        target = LIB / "repro" / path.relative_to(SRC)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, target)
    temp = BUILD / "tmp"
    temp.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(SETUP_PY), "-q", "build_ext",
         "--build-lib", str(LIB), "--build-temp", str(temp)],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "TMPDIR": str(temp)},  # the compiler's scratch
    )
    if proc.returncode != 0 or not list(LIB.glob("repro/sim/_corec*.so")):
        raise BuildFailed(
            "building the compiled engine core failed:\n"
            + proc.stdout + proc.stderr
        )
    stamp.write_text(json.dumps({"digest": digest}))
    return {
        "lib": str(LIB), "cached": False,
        "build_s": time.perf_counter() - started,
    }
