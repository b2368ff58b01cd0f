"""The rules every text file of the library is read and written by.

Reading.  Files are ASCII only: decode() yields (lineno, tokens) for every
line and raises ParseError at the line of the first byte outside ASCII,
inside a comment or not.  The mesh formats, OBJ and the .vhdr header read
the data_lines() view, which drops '#' comments and blank lines.  The .arbf
model format is positional (magic, basis, lambda, N, then N center lines and
N weight lines), so load_model reads decode() itself: a blank line there is
an error at that line, not a line to skip.  Numbers go through floats(),
which checks the field count and finiteness, and ints(), which checks the
field count.  A header count never sizes an allocation: rows() gathers the
lines it promises from the file and stops at the end of the file.  Every
error is a ParseError that names path:line.

Writing.  create() makes the output's parent directory, then opens the file;
write_rows() formats a whole table with a single '%'.
"""

from __future__ import annotations

import itertools
import math
import os
import sys

import numpy as np

from .errors import ParseError


def decode(path: str):
    """Yield (line_number, tokens) for every line of the ASCII file at ``path``."""
    # Bytes outside ASCII decode to lone surrogates U+DC80..U+DCFF, so the
    # error can name the line and the byte.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
                raise ParseError(f"non-ASCII byte 0x{byte:02x}", path, lineno)
            yield lineno, line.split()


def data_lines(path: str):
    """decode() without '#' comments and blank lines."""
    for lineno, tokens in decode(path):
        tokens = " ".join(tokens).split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def next_line(lines, path: str, missing: str):
    """(line_number, tokens) of the next line; ParseError(missing) at end of file."""
    lineno, tokens = next(lines, (None, None))
    if tokens is None:
        raise ParseError(missing, path)
    return lineno, tokens


def rows(lines, n: int, path: str, what: str) -> list:
    """The next ``n`` (line_number, tokens) pairs; ParseError if the file ends first."""
    got = list(itertools.islice(lines, min(n, sys.maxsize)))  # islice stops at most there
    if len(got) < n:
        raise ParseError(f"expected {n} {what}, file ended at {len(got)}", path)
    return got


def floats(tokens, n: int, path: str, lineno: int) -> list[float]:
    """Exactly ``n`` finite numbers."""
    if len(tokens) != n:
        raise ParseError(f"expected {n} fields, got {len(tokens)}", path, lineno)
    try:
        vals = [float(t) for t in tokens]
    except ValueError:
        raise ParseError(f"malformed number in {tokens!r}", path, lineno) from None
    if not all(map(math.isfinite, vals)):
        raise ParseError(f"non-finite number in {tokens!r}", path, lineno)
    return vals


def ints(tokens, n: int, path: str, lineno: int) -> list[int]:
    """Exactly ``n`` integers."""
    if len(tokens) != n:
        raise ParseError(f"expected {n} fields, got {len(tokens)}", path, lineno)
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"malformed integer in {tokens!r}", path, lineno) from None


def cell_row(indices, nv: int, base: int, path: str, lineno: int) -> list[int]:
    """0-based vertex indices of one cell line; each must name one of the nv vertices."""
    for v in indices:
        if not base <= v < base + nv:
            raise ParseError(f"vertex index {v} out of range: valid indices are "
                             f"{base}..{base + nv - 1}", path, lineno)
    return [v - base for v in indices]


def check_counts(path: str, lineno: int, **counts) -> None:
    for name, value in counts.items():
        if value < 1:
            raise ParseError(f"{name} count must be positive, got {value}", path, lineno)


def create(path: str, mode: str):
    """Open ``path`` for writing ('w' as ASCII text, 'wb' as bytes), making its directory."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, mode, encoding=None if "b" in mode else "ascii")


def write_rows(fh, fmt: str, table) -> None:
    """Write one ``fmt`` line per row of the 2-D ``table``, formatted with a single '%'.

    Entries are formatted as Python numbers: '%r' of a float is repr(float),
    '%.17g' is f'{x:.17g}', and '%d' is str(int).
    """
    table = np.asarray(table)
    fh.write((fmt * len(table)) % tuple(table.ravel().tolist()))
