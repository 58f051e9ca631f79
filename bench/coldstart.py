"""Fresh-process probe, run by the harness with the package source on
PYTHONPATH: time to import the CLI module and to load every shipped table
on first use.  Prints one JSON line.

    python3 bench/coldstart.py [module ...]

Modules named on the command line are imported before the clock starts, so
their share of the import time can be measured by difference.
"""

import importlib
import json
import sys
import time

for name in sys.argv[1:]:
    try:
        importlib.import_module(name)
    except ImportError:
        pass          # not installed: nothing to preload

t0 = time.perf_counter()
import robustfinite.cli  # noqa: E402
t1 = time.perf_counter()

from robustfinite import factors  # noqa: E402

TABLES = ("bias_table", "nvar_table", "re_table", "bias_large_table",
          "nvar_large_table", "breakdown_table")
t2 = time.perf_counter()
for name in TABLES:
    factors.load_table(name)
t3 = time.perf_counter()

print(json.dumps({"import_s": t1 - t0, "table_load_ms": (t3 - t2) * 1e3,
                  "module": robustfinite.cli.__file__}))
