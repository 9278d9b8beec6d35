"""Run the command-line entry point in process and keep what it printed.

    result = Invoker(env={"QUANTCAT_PRESHEAF_CAP": "3"}).invoke(main, ["laws"])

`env` entries are set for the call; the environment is restored after it.
`output` interleaves stdout and stderr in the order they were written.  Any
exception other than SystemExit is kept, not raised, with exit code 1; a
SystemExit with a non-zero code is kept too.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from unittest import mock


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: BaseException | None


class _Copying(io.StringIO):
    """A stream that also copies every write into a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


class Invoker:
    def __init__(self, env: dict[str, str] | None = None):
        self.env = dict(env or {})

    def invoke(self, main, args: list[str]) -> Result:
        output = io.StringIO()
        out, err = _Copying(output), _Copying(output)
        code, exception = 0, None
        with (
            mock.patch.dict(os.environ, self.env),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            try:
                main(args=list(args), prog_name="quantcat")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                exception = exc if code else None
            except Exception as exc:
                code, exception = 1, exc
        return Result(code, out.getvalue(), err.getvalue(), output.getvalue(), exception)
