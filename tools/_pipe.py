"""The entry point the scripts of `tools/` share: run a script's main so
that a reader that closes the pipe early ends it quietly.

    if __name__ == "__main__":
        import _pipe
        _pipe.run(main)

`run(main)` calls main(sys.argv[1:]) and exits with its return code.  When
stdout is a pipe whose reader has closed it, the next write or the final
flush raises BrokenPipeError; `run` then points stdout at the null device,
so that the interpreter's own flush at exit does not raise again, and
exits with CLOSED_PIPE, 128 + SIGPIPE, the status a shell reports for a
program killed by SIGPIPE, with nothing on stderr.
"""

from __future__ import annotations

import os
import sys

CLOSED_PIPE = 141  # 128 + SIGPIPE (13)


def run(main) -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CLOSED_PIPE
    sys.exit(code)
