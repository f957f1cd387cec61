"""Every script in `tools/` ends quietly, with exit code 141, when the
reader of its output closes the pipe early (`tools/_harness.py`)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CLOSED_PIPE = 141

# each tool with arguments that keep its run short
TOOLS = [
    ("battery_layers.py", "--passes", "1"),
    ("cli_drift.py",),
    ("code_lines.py",),
    ("mul_traffic.py", "point-sweep"),
    ("pool_drift.py", "point-sweep"),
]


def _start(args, stdout):
    """The tool with its stdout block-buffered, as a pipe makes it by default."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, str(ROOT / "tools" / args[0]), *args[1:]],
                            stdout=stdout, stderr=subprocess.PIPE, cwd=ROOT, env=env)


def test_every_tool_is_covered():
    scripts = {p.name for p in (ROOT / "tools").glob("*.py") if not p.name.startswith("_")}
    assert scripts == {args[0] for args in TOOLS}


def test_a_reader_that_closes_after_one_line(tmp_path):
    # more output than a pipe holds, so the script is still writing, from
    # main, when the reader closes
    for i in range(2000):
        (tmp_path / f"module_{i:04d}_with_a_long_name_to_fill_the_pipe.py").write_bytes(b"")
    proc = _start(("code_lines.py", str(tmp_path)), subprocess.PIPE)
    assert proc.stdout.readline().split() == [b"lines", b"code", b"bytes", b"nodes", b"file"]
    proc.stdout.close()
    assert proc.wait(timeout=60) == CLOSED_PIPE
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("args", TOOLS, ids=[args[0] for args in TOOLS])
def test_a_pipe_closed_before_the_first_line(args):
    # no reader at all: the first write fails, for a short output at the
    # final flush
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _start(args, write)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (CLOSED_PIPE, b"")
