"""Run one CLI command as a child process and account for what it used.

Each command gets its own process group.  The wall time covers fork to
reap; CPU time and peak RSS come from wait4, which on Linux folds in every
descendant the command reaped before it exited, so a ProcessPoolExecutor's
workers are included.  On timeout the whole group is killed, so no worker
outlives its command.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class Outcome:
    code: int  # exit code; negative for a signal
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


def _wait_group_gone(pgid: int, deadline: float) -> None:
    """Wait until no process of the group is left (they have been killed)."""
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        time.sleep(0.01)


def run(argv: list, *, cwd: str, env: dict, timeout: float, out_path: str) -> Outcome:
    """Run argv to completion (or timeout) with stdout/stderr in files."""
    err_path = out_path + ".err"
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)

        def kill():
            with lock:
                if not state["exited"]:
                    state["timed_out"] = True
                    os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # Wait for exit without reaping, so the pid (and group id) stays
            # ours until the timer can no longer fire.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["exited"] = True
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): take the command's group down too.
            kill()
            proc.wait()
            _wait_group_gone(proc.pid, time.monotonic() + 10)
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if state["timed_out"]:
        _wait_group_gone(proc.pid, time.monotonic() + 10)
    else:
        # A command that exits normally has joined its workers; anything
        # left in the group is a leak, and is not allowed to outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        else:
            _wait_group_gone(proc.pid, time.monotonic() + 10)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Outcome(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, stdout, stderr, state["timed_out"])
