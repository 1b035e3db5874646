"""Runs the benchmark's `ineq` invocations from a process that stays small.

At exec, Linux folds the peak RSS of the address space being replaced into
the new program's ru_maxrss.  A child spawned straight from the benchmark,
which holds its inputs and oracles in memory, would report the benchmark's
peak as its own.  Children spawned from this small process report theirs.

Reads one JSON request per line on stdin, ``{"argv": [...], "stdout": path,
"stderr": path}``, runs it to completion and answers with one JSON line
``{"wall": seconds, "code": exit code, "maxrss_kb": peak RSS}``.  Exits at
the end of its input.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
