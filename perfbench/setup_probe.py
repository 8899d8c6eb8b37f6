"""One ``setup_s`` sample, in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <workload-seed> <scale> <dir>

``child.py`` starts this script with the measuring process's
environment.  The clock starts before anything but ``sys`` and ``time``
is imported, so it covers every module the program loads, the standard
library's included.  ``import_s`` stops after the imports, ``setup_s``
once ``workloads.set_up`` has done the rest of the work before the first
simulated event (``<dir>`` is where the campaign prepares its store).
Only then is the engine core checked and the sample printed as JSON.
"""

import sys
import time

started = time.perf_counter()
import workloads  # noqa: E402  (the harness's own share: a few lines)

workload, workload_seed, scale, root = sys.argv[1:5]
workloads.import_program(workload)
imported = time.perf_counter()
workloads.set_up(workload, int(workload_seed), scale, root)
finished = time.perf_counter()

import json  # noqa: E402

from repro.sim._core import core_info  # noqa: E402

impl = core_info()["impl"]
if impl != workloads.impl_of(workload):
    sys.exit(f"FATAL: the {impl!r} engine core is active in set-up")
print(json.dumps({
    "setup_s": finished - started,
    "import_s": imported - started,
}))
