"""Run one command and report its wall time and peak resident set.

Usage: ``python3 -S launch.py REPORT.json PROGRAM ARGS...``; exits with
the command's exit code.

The kernel folds the resident set of the address space that ``exec``
replaces into the new program's peak, so a command started straight from
the benchmark process (which holds its references in memory) would report
at least the benchmark's own size.  Forked from this small process, the
command reports its own peak, which ``wait4`` takes as the maximum over
the command and every descendant it waited for, pool workers included.
"""

import json
import os
import sys
import time

report, argv = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(argv[0], argv)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
code = os.waitstatus_to_exitcode(status)
with open(report, "w") as fh:
    json.dump({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "code": code}, fh)
sys.exit(code)
