"""The package's CSV writer: RFC-4180, UTF-8, floats that round-trip."""

import csv

import numpy as np


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows``.  Float cells (Python or NumPy) are
    written with ``repr`` so they read back bit for bit; other cells as
    ``str`` would write them."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)
