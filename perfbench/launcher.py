"""Starts CLI processes for run.py and reports their wall time and max RSS.

A process's ``ru_maxrss`` survives ``execve``, and a child that
``subprocess`` starts begins from its parent's memory, so every CLI process
started from run.py, which holds numpy and scipy, would report at least
run.py's own peak.  This launcher is started before those imports and
stays small.

Reads one JSON request per line on stdin, ``{"argv", "cwd", "env",
"stderr"}``, and answers each with ``[wall s, max RSS KiB, exit code]``.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    request = json.loads(line)
    with open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss, proc.returncode]), flush=True)
