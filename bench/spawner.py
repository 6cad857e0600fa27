"""Starts the benchmark's child processes from a process that stays small.

Linux keeps a process's peak RSS across exec, and a child created with vfork
(as ``subprocess`` does) starts from its parent's peak. A CLI child started
by the benchmark itself, which holds numpy and the generated inputs, would
report the benchmark's peak instead of its own. This helper imports no numpy
and holds no data, so its children's ``ru_maxrss`` is their own.

Usage: ``python3 spawner.py TIMEOUT_S``. Each stdin line is a JSON list
``[argv, stdout_path]``; the child runs with this process's environment and
working directory. Each reply is one stdout line, a JSON list
``[exit_code, wall_s, cpu_s, maxrss_kib]``. The helper exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        argv, stdout_path = json.loads(line)
        with open(stdout_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = [proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
