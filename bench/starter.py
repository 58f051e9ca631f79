"""Cold-start helper of the benchmark: for each line read from standard
input, run one fresh ``python -m robustfinite.cli factors --n 5`` and print
a JSON line with its wall time, exit status and standard output.

``run.py`` starts it while its own memory is still small.  A spawned
child's peak RSS includes the memory of the process that spawned it, so
spawning the cold starts from here keeps the workload's memory out of them
and out of ``peak_rss_mb``.
"""

import json
import subprocess
import sys
import time

ARGV = [sys.executable, "-m", "robustfinite.cli", "factors", "--n", "5"]

for _ in sys.stdin:
    t0 = time.perf_counter()
    proc = subprocess.run(ARGV, capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    print(json.dumps({"s": dt, "returncode": proc.returncode, "stdout": proc.stdout}),
          flush=True)
