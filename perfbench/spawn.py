"""Run a list of commands one after another and time them.

    python3 perfbench/spawn.py JOBS.json RESULTS.json

JOBS.json is a list of {"argv", "cwd", "stderr"}; each command runs with
that working directory and standard error, with standard input and output
on /dev/null.  RESULTS.json receives {"wall": seconds for the whole list,
"jobs": [{"wall", "code", "maxrss_kib"}]}.

This runs in its own small interpreter, with few imports, so that it stays
smaller than the commands it starts: Linux carries the peak RSS of the
spawning process into a child's ``ru_maxrss``.  A command still running
after TIMEOUT_S is killed.
"""

import json
import os
import signal
import sys
import time

TIMEOUT_S = 150


def run_jobs(jobs: list) -> dict:
    results = []
    current = {"pid": None}

    def on_alarm(_signum, _frame):
        if current["pid"] is not None:
            os.kill(current["pid"], signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    devnull = os.open(os.devnull, os.O_RDWR)
    t0 = time.perf_counter()
    for job in jobs:
        err = os.open(job["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.chdir(job["cwd"])
        start = time.perf_counter()
        pid = os.posix_spawn(job["argv"][0], job["argv"], os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, devnull, 0),
            (os.POSIX_SPAWN_DUP2, devnull, 1),
            (os.POSIX_SPAWN_DUP2, err, 2),
        ])
        current["pid"] = pid
        signal.alarm(TIMEOUT_S)
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        current["pid"] = None
        results.append({"wall": time.perf_counter() - start,
                        "code": os.waitstatus_to_exitcode(status),
                        "maxrss_kib": usage.ru_maxrss})
        os.close(err)
    wall = time.perf_counter() - t0
    os.close(devnull)
    return {"wall": wall, "jobs": results}


def main() -> int:
    if len(sys.argv) != 3:
        sys.stderr.write("usage: spawn.py JOBS.json RESULTS.json\n")
        return 2
    with open(sys.argv[1], encoding="utf-8") as fh:
        jobs = json.load(fh)
    out = run_jobs(jobs)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
