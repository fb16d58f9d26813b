"""On-disk conventions: CSV tables with a header row and ``key = value`` files.

A table field is ``None``, a string, an ``int`` (``bool`` included) or a
``float`` (``np.float64`` included), such as ``ndarray.tolist`` gives; the
``csv`` writer writes it unconverted, ``""`` for ``None`` and a float as its
``repr`` (the shortest round-trip string).  Every file is written whole:
into a temporary file in the target's directory that then replaces the
target by one rename.  A write makes the directory if it is missing and,
when it fails, removes each directory it made, so a command that fails
before its first file is written leaves no directory behind.  A command
with several outputs first removes them all (:func:`remove`), so a failure
while writing leaves each output new or absent, never one of an earlier
run.  There is no ``fsync``, so this guards against a failed or killed
writer, not a power cut.
"""

import contextlib
import csv
import math
import os

import numpy as np

from .errors import DataError


@contextlib.contextmanager
def _replacing(path):
    path = os.fspath(path)
    made = []  # the directories this write makes, deepest first
    parent = os.path.dirname(path)
    while parent and not os.path.lexists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.{os.urandom(6).hex()}.tmp"
        # Created as open(path, "w") creates a file, so the umask applies.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", newline="") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except BaseException as exc:
        for directory in made:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        if isinstance(exc, OSError) and exc.filename is None:
            exc.filename = path  # a failed write names no file
        raise


def remove(*paths) -> None:
    """Remove each of ``paths`` that exists: a command calls this on all
    its outputs before it writes the first, so they form one generation."""
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


def sha256(path) -> str:
    """The hex sha256 digest of the file at ``path``."""
    import hashlib  # here, so a stage that hashes nothing loads no _hashlib (3-8 ms)

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_table(path, header, rows) -> None:
    """Write a CSV table: the header row, then one row per item of ``rows``."""
    with _replacing(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_table(path, what: str, header_ok) -> np.ndarray:
    """Read the rows of a numeric CSV table below its header, as an
    ``(rows, columns)`` float array; an empty field reads as NaN.

    An unreadable or empty file, a header that ``header_ok`` rejects, no
    rows, a row unlike the header in width, or a field that is not a
    number (named with its row) raises :class:`DataError`.
    """
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable {what}: {exc}") from None
    if not table:
        raise DataError(f"{path}: empty {what}")
    header, rows = table[0], table[1:]
    if not header_ok(header):
        raise DataError(f"{path}: bad header {header!r}")
    if not rows:
        raise DataError(f"{path}: {what} contains no rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i} has {len(row)} fields, expected {len(header)}")
    for i, row in enumerate(rows):
        try:
            rows[i] = [float(v) if v else math.nan for v in row]
        except ValueError as exc:
            raise DataError(f"{path}: row {i}: {exc}") from None
    return np.array(rows)


def write_settings(path, settings: dict) -> None:
    """Write one ``key = value`` line per item; :func:`read_settings` gives back
    the same strings if none has a line break or outer whitespace and no key
    holds ``=`` or starts with ``#``."""
    with _replacing(path) as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in settings.items())


def read_settings(path, error) -> dict[str, str]:
    """Read ``key = value`` lines, skipping blank lines and ``#`` comments.

    A missing or undecodable file, or a line without ``=``, raises the
    exception class ``error``.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None
    values = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            key, eq, value = stripped.partition("=")
            if not eq:
                raise error(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
            values[key.strip()] = value.strip()
    return values
