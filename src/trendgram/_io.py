"""Path-or-stream helpers for the file readers and writers."""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

from .errors import TrendgramError


@contextmanager
def open_for_read(source, newline=""):
    """Context manager yielding a text stream for `source`.

    `source` may be a path or an already-open file-like object; the
    latter is not closed. A path is read as UTF-8 with an optional
    byte-order mark; bytes that are not UTF-8 raise `TrendgramError`
    naming the file.
    """
    if hasattr(source, "read"):
        yield source
        return
    with open(source, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start]
            raise TrendgramError(f"{source}: not UTF-8 text (byte 0x{bad:02x})") from None


def location(source, line=None):
    """The prefix of an error about `source`, a path or a stream:
    `FILE:LINE: ` or `FILE: ` for a path, `line LINE: ` or nothing for
    a stream, which has no name to give."""
    if hasattr(source, "read"):
        return "" if line is None else f"line {line}: "
    return f"{source}: " if line is None else f"{source}:{line}: "


def read_text(path):
    """The whole file at `path`, decoded as by `open_for_read`, with
    universal newlines."""
    with open_for_read(path, newline=None) as fh:
        return fh.read()


def open_for_write(dest):
    """Writing counterpart of `open_for_read`."""
    if hasattr(dest, "write"):
        return nullcontext(dest)
    return open(dest, "w", encoding="utf-8", newline="")
