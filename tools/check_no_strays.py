"""Run a command and fail if it leaves a process running.

    python3 tools/check_no_strays.py -- CMD [ARG ...]

The tool first makes itself a *child subreaper* (Linux
``prctl(PR_SET_CHILD_SUBREAPER)``), so a descendant of CMD that is
orphaned — a server started with ``&``, a daemon in its own session, a
``multiprocessing`` resource tracker — re-parents to the tool instead
of to init.  It then runs CMD.  After CMD exits, every child still
left is printed to stderr (pid and command line), sent SIGTERM, then
SIGKILL if it is still alive 5 s later, and reaped; children orphaned
by that in turn are handled the same way.  The exit code is 1 if
anything was left, otherwise CMD's own exit code (2 when the tool
cannot run at all).
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time

PR_SET_CHILD_SUBREAPER = 36
#: Seconds between SIGTERM and SIGKILL.
GRACE_S = 5.0


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap_exited() -> None:
    """Collect children that already exited on their own (zombies)."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def live_children() -> "dict[int, str]":
    """``pid -> command line`` of this process's children still running."""
    me = os.getpid()
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                # The command name may hold spaces and parentheses: the
                # fields after the last ")" are state, ppid, ...
                state, parent = handle.read().rsplit(b")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(
                    errors="replace").strip()
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        if int(parent) == me and state != b"Z":
            found[int(entry)] = command
    return found


def _signal(pids, signum) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def stop(pids) -> None:
    """SIGTERM ``pids``, SIGKILL whichever outlive the grace period,
    and reap them all."""
    pending = set(pids)
    _signal(pending, signal.SIGTERM)
    deadline = time.monotonic() + GRACE_S
    while pending and time.monotonic() < deadline:
        for pid in list(pending):
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                pending.discard(pid)
        time.sleep(0.05)
    _signal(pending, signal.SIGKILL)
    for pid in pending:
        os.waitpid(pid, 0)


def main(argv: "list[str]") -> int:
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print("usage: check_no_strays.py -- CMD [ARG ...]", file=sys.stderr)
        return 2
    try:
        become_subreaper()
    except (OSError, AttributeError) as exc:
        print(f"check_no_strays: cannot become a subreaper: {exc}",
              file=sys.stderr)
        return 2
    try:
        code = subprocess.call(argv)
    except OSError as exc:
        print(f"check_no_strays: cannot run {argv[0]}: {exc}",
              file=sys.stderr)
        code = 127
    left = 0
    while True:
        reap_exited()
        strays = live_children()
        if not strays:
            break
        for pid, command in sorted(strays.items()):
            print(f"check_no_strays: left running: pid {pid}: {command}",
                  file=sys.stderr)
        left += len(strays)
        stop(strays)
    if left:
        print(f"check_no_strays: {left} process(es) outlived the command; "
              f"stopped", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
