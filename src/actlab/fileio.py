"""Text files: atomic output, and input that fails as a typed error.

Every file the package writes (checkpoints, dataset exports and the CLI's run
outputs) goes through `atomic_write`, so a crash mid-write leaves the old
file, or none, and never a truncated one; every file it reads, `read_text`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ParseError


@contextmanager
def atomic_write(path, newline=None):
    """Open a text file that replaces `path` only if the block exits cleanly.

    The temporary file sits in the target's directory, so `os.replace` is a
    rename within one filesystem. It is removed on any error. `newline` is
    passed to `open`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_text(path, what):
    """The text of the `what` file at `path`, or a `ParseError` naming both."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {what} {path}: {e}") from e
