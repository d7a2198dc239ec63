"""The CSV format of every table the lab writes and reads: an optional
header line naming the columns, then one line per row, fields joined by
commas, every line ending in `\\n`.  A field's kind is `str`, `int` or
`float`; floats are written as `format(x, ".17g")`, which reads back as
the same float64.  Each table's columns and kinds are declared once, next
to its writer and reader, and passed to both functions here.
"""

import math

from .errors import FormatError

_WRITERS = {str: str, int: str, float: lambda x: format(float(x), ".17g")}


def write_table(path, columns, kinds, rows):
    """Write `rows` under the header `columns`, or with no header when
    `columns` is None; `kinds` gives each field's kind."""
    writers = [_WRITERS[kind] for kind in kinds]
    lines = [] if columns is None else [",".join(columns)]
    for row in rows:
        lines.append(",".join(write(x) for write, x in zip(writers, row, strict=True)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path, columns, kinds) -> list[tuple]:
    """The rows of a `write_table` file, blank lines skipped.  A wrong
    header, a wrong field count, a field that does not parse as its kind
    and a non-finite float are each a `FormatError` naming path and line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        if columns is not None and (header := fh.readline().strip()) != ",".join(columns):
            raise FormatError(f"{path}: unexpected header {header!r}", line=1)
        for lineno, line in enumerate(fh, start=1 if columns is None else 2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(kinds):
                message = f"{path}: expected {len(kinds)} fields, found {len(fields)}"
                raise FormatError(message, line=lineno)
            try:
                row = tuple(kind(field) for kind, field in zip(kinds, fields))
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}", line=lineno) from None
            for i, (kind, value) in enumerate(zip(kinds, row)):
                if kind is float and not math.isfinite(value):
                    name = f"field {i + 1}" if columns is None else columns[i]
                    raise FormatError(f"{path}: {name} {fields[i]!r} must be finite", line=lineno)
            rows.append(row)
    return rows
