"""Repo-wide pytest glue: per-test timeouts and a leaked-process check.

The resilience contract says no query may hang, and the suite enforces
it with a per-test wall-clock cap (the ``timeout`` ini setting in
pyproject.toml).  When the real pytest-timeout plugin is installed it
owns that setting; on environments without it this shim provides the
same guarantee through SIGALRM, so a hang still fails the test instead
of wedging the run.  Living at the repo root, it covers ``tests/`` and
``benchmarks/`` alike.

The session also fails if it leaves a process behind: every fixture
that starts ``sama serve``, a ``ProcessShardPool`` worker or any other
child must reap it, and ``pytest_sessionfinish`` below checks.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time

import pytest

try:
    import pytest_timeout  # noqa: F401  (plugin registers the ini itself)
    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

if not _HAVE_PYTEST_TIMEOUT:
    import signal
    import threading

    def pytest_addoption(parser):
        parser.addini("timeout", default="0",
                      help="per-test timeout in seconds "
                           "(fallback shim for pytest-timeout)")

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(item):
        seconds = float(item.config.getini("timeout") or 0)
        usable = (seconds > 0 and hasattr(signal, "SIGALRM")
                  and threading.current_thread() is threading.main_thread())
        if not usable:
            return (yield)

        def _timed_out(signum, frame):
            raise TimeoutError(
                f"{item.nodeid} exceeded the {seconds:g}s per-test cap")

        previous = signal.signal(signal.SIGALRM, _timed_out)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return (yield)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


# -- no process may outlive the session ---------------------------------


def _live_children() -> "dict[int, str]":
    """``pid -> command line`` of this process's live children."""
    found = {child.pid: f"multiprocessing child {child.name!r}"
             for child in multiprocessing.active_children()}
    if not os.path.isdir("/proc"):
        return found
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, parent = handle.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(
                    errors="replace").strip()
        except (OSError, ValueError, IndexError):
            continue            # gone while we looked
        if int(parent) != me or state == "Z":
            continue
        # multiprocessing's own bookkeeping child; it exits with us.
        if "multiprocessing.resource_tracker" in command:
            continue
        found[int(entry)] = command or found.get(int(entry), "?")
    return found


def pytest_sessionfinish(session, exitstatus):
    """Fail the session if a child process is still running.

    ``repro.parallel``'s atexit hook is run first (it stops the shared
    worker pools the way interpreter exit would), children get a short
    grace to finish dying, and whatever is left is named — pid and
    command line — and turns the exit status into a failure.
    """
    parallel = sys.modules.get("repro.parallel")
    if parallel is not None:
        parallel._shutdown()
    deadline = time.monotonic() + 3.0
    leaked = _live_children()
    while leaked and time.monotonic() < deadline:
        time.sleep(0.1)
        leaked = _live_children()
    if not leaked:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    lines = [f"  pid {pid}: {command}" for pid, command in sorted(leaked.items())]
    message = ("process(es) left running at session end — a fixture did "
               "not reap what it started:\n" + "\n".join(lines))
    if reporter is not None:
        reporter.write_line("")
        reporter.write_line(message, red=True)
    else:
        print(message, file=sys.stderr)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
