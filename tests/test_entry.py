"""Process entry: `python -m spirallike` and the `spirallike` console script.

Both call cli.entry, which runs cli.main and then freezes the garbage
collector, so that interpreter shutdown does not walk the objects the import
and the call left.  Each test starts a fresh interpreter: what is checked is
how the process exits.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spirallike.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _python(*args, **kwargs):
    return subprocess.run([sys.executable, *args], env=_env(), capture_output=True, **kwargs)


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["eval", "--gallery", "koebe", "--z", "0.5"], 0, b"f = 2+0i\n", b""),
        (["eval", "--gallery", "nope"], 2, b"", b"invalid choice: 'nope'"),
        (["eval", "--gallery", "koebe", "--z", "2+0i"], 3, b"", b"error: "),
    ],
    ids=["ok", "invalid-input", "domain-error"],
)
def test_python_m_exits_with_mains_code(argv, code, out, err):
    proc = _python("-m", "spirallike", *argv)
    assert proc.returncode == code
    assert proc.stdout.startswith(out)
    assert (err in proc.stderr) if err else proc.stderr == b""
    assert b"Traceback" not in proc.stderr


def test_shutdown_still_runs_atexit_and_flushes_stdout(capsys):
    proc = _python(
        "-c",
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write('atexit ran\\n'))\n"
        "sys.argv = ['spirallike', 'qtheta', '--qtheta-grid', '1000']\n"
        "runpy.run_module('spirallike', run_name='__main__')\n",
    )
    assert proc.returncode == 0
    assert proc.stderr == b"atexit ran\n"
    assert main(["qtheta", "--qtheta-grid", "1000"]) == 0
    assert proc.stdout == capsys.readouterr().out.encode()
    assert len(proc.stdout.splitlines()) == 1004


def test_only_the_entry_freezes_the_collector():
    proc = _python(
        "-c",
        "import gc, os, sys, spirallike.cli as cli\n"
        "before = gc.get_freeze_count()\n"
        "code = cli.main(['qtheta', '--qtheta-grid', '1000', '--out', os.devnull])\n"
        "print(code, before, gc.get_freeze_count())\n"
        "sys.argv = ['spirallike', 'qtheta', '--qtheta-grid', '1000', '--out', os.devnull]\n"
        "print(cli.entry(), gc.get_freeze_count() > 0)\n",
        check=True,
    )
    main_line, entry_line = proc.stdout.decode().splitlines()
    code, before, after = main_line.split()
    assert code == "0"
    assert after == before
    assert entry_line == "0 True"


def _console_script_target():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^spirallike\s*=\s*"([\w.]+:\w+)"', section, re.M)
    return target


def test_console_script_target_is_what_python_m_calls():
    # stand a marker in for the console script's target, then run the
    # package as `python -m spirallike` does: the marker's code is the exit code
    module, name = _console_script_target().split(":")
    proc = _python(
        "-c",
        "import importlib, runpy\n"
        f"module = importlib.import_module({module!r})\n"
        f"setattr(module, {name!r}, lambda: print('target ran') or 7)\n"
        "runpy.run_module('spirallike', run_name='__main__')\n",
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (7, b"target ran\n", b"")


@pytest.mark.parametrize("lines_read", [1, 0], ids=["after-one-line", "before-any-output"])
def test_closed_pipe_exits_0_without_stderr(lines_read):
    # the reader takes lines_read lines of the 100,000-row table and closes
    # the pipe.  Closed after a line, the rest of the table's one write is
    # dropped; closed before the child writes, the write raises
    # BrokenPipeError, which main catches
    proc = subprocess.Popen(
        [sys.executable, "-m", "spirallike", "qtheta"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first == [b"# sup_Q = 2\n"][:lines_read]
    assert err == b""
