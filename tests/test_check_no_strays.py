"""``tools/check_no_strays.py``: a command that leaves a process behind fails."""

import os
import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "check_no_strays.py"

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="needs prctl and /proc")


def _run(*command):
    return subprocess.run([sys.executable, str(TOOL), "--", *command],
                          capture_output=True, text=True, timeout=30)


def test_clean_command_exits_zero():
    done = _run(sys.executable, "-c", "print('hello')")
    assert done.returncode == 0
    assert done.stdout == "hello\n"
    assert done.stderr == ""


def test_command_exit_code_passes_through():
    assert _run(sys.executable, "-c", "raise SystemExit(3)").returncode == 3


def test_sleeper_in_new_session_is_named_and_stopped():
    leaver = ("import subprocess\n"
              "p = subprocess.Popen(['sleep', '30'], start_new_session=True)\n"
              "print(p.pid)\n")
    done = _run(sys.executable, "-c", leaver)
    assert done.returncode == 1
    pid = int(done.stdout.strip())
    assert f"pid {pid}: sleep 30" in done.stderr
    # Reaped by the tool: the pid no longer names a process.
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
