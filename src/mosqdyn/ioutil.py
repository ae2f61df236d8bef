"""Small file-output helpers: atomic writes, stable float formatting."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable, TextIO

__all__ = ["FLOAT_FIELD", "fmt", "json_text", "atomic_write_text", "atomic_write_lines", "atomic_write_json"]

# The one spec of every float written as text: 17 significant digits in
# scientific notation, which round-trips a double.  `fmt` applies it with
# format(); CSV row templates splice in FLOAT_FIELD, the same spec as a
# %-field, which gives the same text for every double, inf and nan too.
FLOAT_SPEC = ".16e"
FLOAT_FIELD = "%" + FLOAT_SPEC


def fmt(v: float) -> str:
    """`v` in FLOAT_SPEC, as the CSV row templates write it (FLOAT_FIELD)."""
    return format(float(v), FLOAT_SPEC)


def json_text(obj) -> str:
    """Every JSON output: strict (NaN, inf raise), sorted keys, indented."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _atomic_write(path, write: Callable[[TextIO], object]) -> None:
    """Call `write` on a temp file in the target directory, then rename it
    over `path`.  Either the old content or the complete new content
    exists at any moment, never a torn file.  The file gets the mode a
    plain open() would give a new file (0666 less the umask), not the
    0600 of mkstemp.
    """
    target = Path(path)
    parent = target.parent if str(target.parent) else Path(".")
    fd, tmp = tempfile.mkstemp(dir=str(parent), prefix=target.name + ".", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            # the umask can only be read by setting it (single-threaded program)
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            write(fh)
        os.replace(tmp, target)
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


def atomic_write_json(path, obj) -> None:
    """Atomically write `json_text(obj)`."""
    atomic_write_text(path, json_text(obj))
