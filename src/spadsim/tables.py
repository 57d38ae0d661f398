"""Reader for the CSV tables spadsim writes and reads.

A table is comma-separated text: an optional `# manifest: <hash>` line,
optional `# key=value, key=value` metadata lines, a column header line
(absent from the grid tables), then one row per line. Blank lines are
skipped wherever they occur.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

import numpy as np

# A metadata value runs up to the next ", key=", so it may itself hold commas
# (origin_um=0,0).
_FIELD = re.compile(r"([A-Za-z_]\w*)\s*=\s*(.*?)\s*(?=,\s*[A-Za-z_]\w*\s*=|$)")

# Text read per block: about 512 KB, some 26k event rows.
_BLOCK_CHARS = 1 << 19


def read_metadata(text: str) -> dict[str, str]:
    """The key=value fields of every '#' line except the manifest line."""
    meta: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#") and not line.startswith("# manifest:"):
            meta.update(_FIELD.findall(line[1:]))
    return meta


def read_rows(text: str, what: str, header: str | None, convert) -> Iterator:
    """The data rows of a table, converted a block of rows at a time, in file order.

    `header` is the required column header, or None for a table without one,
    whose first data row then fixes the column count. `convert` takes one
    block's columns, each a list of field strings, and returns that block's
    value, which is yielded; it must treat each row on its own. A row whose
    field count is wrong, or on which `convert` raises ValueError, raises
    ValueError naming its line as str.splitlines counts lines; `what` names
    the table. The text is read in blocks of about _BLOCK_CHARS characters,
    so a long table is never held as a list of lines or of Python objects.
    """
    ncols = None if header is None else header.count(",") + 1
    need_header = header is not None
    for first, lines, rows in _blocks(text):
        if need_header and rows:
            if rows[0] != header:
                break
            need_header = False
            rows = rows[1:]
        if not rows:
            continue
        if ncols is None:
            ncols = rows[0].count(",") + 1
        try:
            value = convert(_columns(rows, ncols))
        except ValueError as exc:
            numbers = [n for n, line in enumerate(lines, first) if line and line[0] != "#"]
            _raise_first_bad_row(rows, numbers[-len(rows) :], ncols, convert, what, exc)
        yield value
    if need_header:
        raise ValueError(f"{what} needs the column header {header!r}")


def read_grid(text: str, what: str) -> np.ndarray:
    """The rows of a headerless table of floats as a 2-D array (1-D and empty if it has none)."""
    blocks = list(read_rows(text, what, None, lambda columns: np.array([list(map(float, c)) for c in columns]).T))
    return np.concatenate(blocks) if blocks else np.array([])


def _blocks(text: str) -> Iterator[tuple[int, list[str], list[str]]]:
    """(number of the first line, stripped lines, the non-blank non-'#' ones) of each block of text.

    A block ends at the first newline at least _BLOCK_CHARS characters into
    it, which is a line end for str.splitlines too.
    """
    start, lineno = 0, 1
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        block = text[start:end]
        lines = list(map(str.strip, block.splitlines()))
        # most blocks have no line to skip: the '#' and blank tests are C loops
        rows = [line for line in lines if line and line[0] != "#"] if "#" in block or "" in lines else lines
        yield lineno, lines, rows
        lineno += len(lines)
        start = end


def _columns(rows: list[str], ncols: int) -> list[list[str]]:
    r"""The columns of rows that all have ncols fields; ValueError if one has not.

    One split of the rows joined with a "\n" field between them: no stripped
    line holds a newline, so each row has ncols fields iff every "\n" field
    sits in its slot.
    """
    fields = ",\n,".join(rows).split(",")
    width = ncols + 1
    if len(fields) != len(rows) * width - 1 or fields[ncols::width].count("\n") != len(rows) - 1:
        raise ValueError("a row has the wrong number of columns")
    return [fields[j::width] for j in range(ncols)]


def _raise_first_bad_row(rows, numbers, ncols, convert, what, block_error):
    """Check a failed block row by row and raise ValueError naming the first bad row's line."""
    for row, n in zip(rows, numbers):
        fields = row.split(",")
        try:
            if len(fields) != ncols:
                raise ValueError(f"expected {ncols} columns, got {len(fields)}")
            convert([[f] for f in fields])
        except ValueError as exc:
            raise ValueError(f"{what} line {n}: {exc}") from exc
    raise block_error
