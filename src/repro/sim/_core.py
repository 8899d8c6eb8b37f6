"""Select the compiled engine core, falling back to pure Python.

The compiled core (``repro.sim._corec``, a C extension built by
``python setup.py build_ext --inplace``) is a bit-exact twin of the
pure-Python engine in :mod:`repro.sim.engine`: same event order, same
seq draws, same counters, same exception messages.  The golden-master
suite and the scheduler fuzz test pin the equivalence, so which core
runs is purely a speed decision.

It also holds ``stable_hash64``, the twin of the pure reference in
:mod:`repro.util.hashing` (the spec it is property-tested against).
This module exports whichever one is selected; the per-packet hash call
sites (flow labels, LogLog counters) import it from here.

Selection rules:

* ``REPRO_NO_COMPILED`` set (to anything non-empty) forces the pure
  engine — the escape hatch for debugging and for measuring the
  pure-Python baseline in benchmarks.
* Otherwise the extension is imported if present; *any* failure (not
  built, ABI mismatch, missing compiler, a stale build without
  ``stable_hash64``) falls back silently, for the scheduler and the hash
  together.  Importing repro must never require a C toolchain.

``ENGINE_IMPL`` is ``"compiled"`` or ``"pure"``; :func:`core_info`
returns a dict for CLI/CI introspection (``repro run --engine-info``).
"""

from __future__ import annotations

import os

from repro.util.hashing import stable_hash64

ENGINE_IMPL = "pure"
compiled = None  # the _corec module when active, else None

if not os.environ.get("REPRO_NO_COMPILED"):
    try:
        from repro.sim import _corec as compiled  # type: ignore[no-redef]
        stable_hash64 = compiled.stable_hash64
    except Exception:  # pragma: no cover - absent/broken extension
        compiled = None
    else:
        ENGINE_IMPL = "compiled"


def core_info() -> dict:
    """Which engine core is active, and why (for ``--engine-info``)."""
    return {
        "impl": ENGINE_IMPL,
        "module": compiled.__name__ if compiled is not None else
                  "repro.sim.engine",
        "forced_pure": bool(os.environ.get("REPRO_NO_COMPILED")),
    }
