"""Reader for the CSV tables spadsim writes and reads.

A table is comma-separated text: an optional `# manifest: <hash>` line,
optional `# key=value, key=value` metadata lines, a column header line
(absent from the grid tables), then one row per line. Blank lines are
skipped wherever they occur. Every table is read here one line at a time,
except the event CSV in the form EventStream.to_csv writes, which the
simulator parses as bytes.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

import numpy as np

# A metadata value runs up to the next ", key=", so it may itself hold commas
# (origin_um=0,0).
_FIELD = re.compile(r"([A-Za-z_]\w*)\s*=\s*(.*?)\s*(?=,\s*[A-Za-z_]\w*\s*=|$)")


def read_metadata(text: str) -> dict[str, str]:
    """The key=value fields of every '#' line except the manifest line."""
    meta: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#") and not line.startswith("# manifest:"):
            meta.update(_FIELD.findall(line[1:]))
    return meta


def read_rows(text: str, what: str, header: str | None, parse_row) -> Iterator:
    """parse_row(fields) of each data row of a table, in file order.

    `header` is the required column header, or None for a table without one,
    whose first data row then fixes the column count. A row whose field count
    is wrong, or on which parse_row raises ValueError, raises ValueError naming
    its line as str.splitlines counts lines; `what` names the table.
    """
    ncols = None if header is None else header.count(",") + 1
    need_header = header is not None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if need_header:
            if line != header:
                break
            need_header = False
            continue
        fields = line.split(",")
        ncols = ncols or len(fields)
        try:
            if len(fields) != ncols:
                raise ValueError(f"expected {ncols} columns, got {len(fields)}")
            row = parse_row(fields)
        except ValueError as exc:
            raise ValueError(f"{what} line {lineno}: {exc}") from exc
        yield row
    if need_header:
        raise ValueError(f"{what} needs the column header {header!r}")


def read_grid(text: str, what: str, header: str | None = None) -> np.ndarray:
    """The rows of a table of floats as a 2-D array (1-D and empty if it has none)."""
    return np.array(list(read_rows(text, what, header, lambda fields: list(map(float, fields)))))
