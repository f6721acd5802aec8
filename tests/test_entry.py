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
from spirallike.formatting import _CHUNK_ROWS as BLOCK

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


@pytest.mark.parametrize(
    "argv,code",
    [(["qtheta", "--qtheta-grid", "999"], 2), (["eval", "--gallery", "koebe", "--z", "2+0i"], 3)],
    ids=["usage-error", "domain-error"],
)
def test_error_exits_before_out_is_created(tmp_path, argv, code):
    target = tmp_path / "out.txt"
    proc = _python("-m", "spirallike", *argv, "--out", str(target))
    assert (proc.returncode, proc.stdout) == (code, b"")
    assert b"error: " in proc.stderr
    assert not target.exists()


# the lines a reader takes of the 100,000-row qtheta table before it closes
# the pipe: 4 header lines and the rows that end inside the first block
CLOSES = {"after-one-line": 1, "before-any-output": 0, "after-the-first-block": 4 + BLOCK - 1}


def _read_then_close(argv, lines_read):
    """(exit code, lines read, stderr) of a child whose stdout pipe closes after lines_read lines."""
    proc = subprocess.Popen(argv, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), first, err


@pytest.mark.parametrize("lines_read", CLOSES.values(), ids=CLOSES.keys())
def test_closed_pipe_exits_0_without_stderr(lines_read):
    # the table goes out a block at a time, so the first write after the
    # close raises BrokenPipeError, which main's writer catches
    code, first, err = _read_then_close([sys.executable, "-m", "spirallike", "qtheta"], lines_read)
    assert code == 0
    assert first[:1] == [b"# sup_Q = 2\n"][:lines_read]
    assert len(first) == lines_read and all(line.endswith(b"\n") for line in first)
    assert err == b""


# runs `verify` as `python -m spirallike` does, with a margin that fails
FAILING_VERIFY = """\
import runpy, sys
import spirallike.analysis as analysis

analysis.spirallikeness_margin = lambda *args, **kwargs: -0.25
sys.argv = ["spirallike", "verify", "--gallery", "koebe"]
runpy.run_module("spirallike", run_name="__main__")
"""


def test_closed_pipe_keeps_the_subcommands_exit_code():
    # a failed verification exits 1, also when the reader has gone
    code, _, err = _read_then_close([sys.executable, "-c", FAILING_VERIFY], 0)
    assert (code, err) == (1, b"")
    proc = _python("-c", FAILING_VERIFY)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"margin = -0.25\n", b"")


# runs the package as `python -m spirallike` does, and writes to the file
# named by its first argument, once main has returned, whether stdout is
# /dev/null: the writer's BrokenPipeError branch points it there
OBSERVED_MAIN = """\
import os, runpy, sys
import spirallike.cli as cli

main, marker = cli.main, sys.argv.pop(1)

def observed_main(argv=None):
    code = main(argv)
    with open(marker, "w") as fh:
        fh.write(str(os.path.samestat(os.fstat(1), os.stat(os.devnull))))
    return code

cli.main = observed_main
runpy.run_module("spirallike", run_name="__main__")
"""


@pytest.mark.parametrize("lines_read", CLOSES.values(), ids=CLOSES.keys())
def test_closed_pipe_goes_through_mains_broken_pipe_branch(tmp_path, lines_read):
    marker = tmp_path / "stdout_is_devnull"
    argv = [sys.executable, "-c", OBSERVED_MAIN, str(marker), "qtheta"]
    assert _read_then_close(argv, lines_read)[::2] == (0, b"")
    assert marker.read_text() == "True"


def test_a_reader_of_the_whole_table_leaves_stdout_alone(tmp_path):
    marker = tmp_path / "stdout_is_devnull"
    proc = _python("-c", OBSERVED_MAIN, str(marker), "qtheta", "--qtheta-grid", "1000")
    assert (proc.returncode, len(proc.stdout.splitlines()), proc.stderr) == (0, 1004, b"")
    assert marker.read_text() == "False"
