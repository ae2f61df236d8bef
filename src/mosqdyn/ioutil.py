"""Small file-output helpers: atomic writes, stable float formatting."""

from __future__ import annotations

import errno
import json
import os
import stat
from pathlib import Path
from typing import Callable, Iterable, TextIO

__all__ = ["FLOAT_FIELD", "fmt", "json_text", "atomic_write_text", "atomic_write_lines"]

# The one spelling of every float written as text: 17 significant digits
# in scientific notation, which round-trips a double.  CSV row templates
# splice it in; `fmt` applies it to one value.
FLOAT_FIELD = "%.16e"


def fmt(v: float) -> str:
    """`v` as FLOAT_FIELD spells it, as the CSV row templates write it
    (inf and nan too)."""
    return FLOAT_FIELD % v


def json_text(obj) -> str:
    """Every JSON output: strict (NaN, inf raise), sorted keys, indented."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _named(exc: OSError, target: Path) -> OSError:
    # the same error naming the file asked for, not the random temp name
    return OSError(exc.errno, exc.strerror, str(target))


def _atomic_write(path, write: Callable[[TextIO], object]) -> None:
    """Call `write` on a new temp file in the target directory,
    `<name>.<random hex>.part`, then rename it over `path`.  Either the
    old content or the complete new content exists at any moment, never a
    torn file.  The temp file is created by a plain exclusive open(), so
    the OS gives it the mode of any new file (0666 less the umask), and
    the process umask is never touched.  A `path` that names something
    other than a regular file or a directory (a FIFO, a device node) is
    refused before the temp file exists: the rename would put a regular
    file in its place.  A directory is left to the rename, which fails.
    """
    target = Path(path)
    try:
        mode = os.stat(target).st_mode
    except OSError:
        pass  # nothing there yet, or nothing to stat: the open() below says which
    else:
        if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
            raise OSError(errno.EEXIST, "File exists and is not a regular file", str(target))
    tmp = target.parent / f"{target.name}.{os.urandom(8).hex()}.part"
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise _named(exc, target) from exc
    try:
        with fh:
            write(fh)
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise _named(exc, target) from exc
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_lines(path, lines: Iterable[str]) -> None:
    """Atomically write LF-terminated lines (see `_atomic_write`)."""
    _atomic_write(path, lambda fh: fh.writelines(line + "\n" for line in lines))


def atomic_write_text(path, text: str) -> None:
    """Atomically write `text` as it is (see `_atomic_write`)."""
    _atomic_write(path, lambda fh: fh.write(text))
