"""Path-or-stream helpers for the file readers and writers, and the
quoting rule of every CSV cell the writers write (`csv_cell`)."""

import os
import stat
from contextlib import contextmanager, nullcontext, suppress

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


@contextmanager
def checked_csv(source, header, error, what):
    """Context manager yielding a csv reader over `source`, opened by
    `open_for_read`, past its header row, for a machine-written `what`
    file in which any fault is fatal. An empty file or a header other
    than `header` raises `error` naming the file; an `error` or
    `csv.Error` raised in the header or the block is raised again as
    `error` at `FILE:LINE`, the line the reader had reached."""
    import csv  # here, so that a command that reads only an index does not load it

    with open_for_read(source) as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader)
        except StopIteration:
            raise error(f"{location(source)}{what} file is empty") from None
        except csv.Error as exc:  # such as a field over the csv module's size limit
            raise error(f"{location(source, reader.line_num)}{exc}") from None
        if found != list(header):
            raise error(f"{location(source)}unexpected {what} header: {found!r}")
        try:
            yield reader
        except (error, csv.Error) as exc:
            raise error(f"{location(source, reader.line_num)}{exc}") from None


def needs_quotes(text):
    """Whether a CSV cell holding `text` must be quoted."""
    return "," in text or '"' in text or "\n" in text or "\r" in text


def quoted(cell):
    """`cell` quoted, with its quotes doubled."""
    return '"' + cell.replace('"', '""') + '"'


def csv_cell(cell):
    """`cell` as written in a CSV row: `quoted` if it `needs_quotes`,
    else as it is. Unlike `csv.writer` on Python 3.10 to 3.12, this
    quotes a lone `\r`, which the reader would take for a line end."""
    return quoted(cell) if needs_quotes(cell) else cell


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
    """Writing counterpart of `open_for_read`: a stream is written as
    is and not closed; a path is written as UTF-8 through `replacing`,
    unless it names something other than a regular file (such as
    `/dev/null` or a pipe), which is written in place."""
    if hasattr(dest, "write"):
        return nullcontext(dest)
    try:
        special = not stat.S_ISREG(os.stat(dest).st_mode)
    except OSError:  # no such file yet; `replacing` reports any other problem
        special = False
    if special:
        return open(dest, "w", encoding="utf-8", newline="")
    return replacing(dest, encoding="utf-8", newline="")


@contextmanager
def replacing(path, binary=False, **open_args):
    """Context manager yielding a new file (text, or bytes if `binary`)
    that replaces the file at `path`, through any symlink, when the block
    completes. It is written under a unique temporary name in the same
    directory, so an interrupted writer leaves the old file, or none,
    and never a partial one; on an exception the temporary file is
    removed. An existing file's permission bits are kept."""
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    try:
        mode_bits = stat.S_IMODE(os.stat(target).st_mode)
    except OSError:
        mode_bits = None
    while True:
        temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fh = open(temp, "xb" if binary else "x", **open_args)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # name the destination, not the temporary file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            if mode_bits is not None:
                os.chmod(temp, mode_bits)
            yield fh
        os.replace(temp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise
