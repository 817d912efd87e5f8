#!/usr/bin/env python3
"""Compare two sweep CSVs cell by cell.

    python3 tools/csvdiff.py OLD NEW

Both files must have the same header and the same number of rows; if not,
the tool says which and exits 1. Comment lines (`#`, such as the timestamp)
are skipped. A column whose every cell reads as a float in both files is
numeric: its line gives the largest absolute change |new - old|, the largest
relative change |new - old| / |old| (inf where old is 0, nan or inf and new
differs) and how many rows changed. nan against nan is no change. Every other
column is text, and each row where it differs is printed after the table.
Standard library only.
"""

import csv
import math
import sys


def read(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(line for line in f if not line.startswith("#")))
    return (rows[0], rows[1:]) if rows else ([], [])


def as_floats(cells):
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def change(a, b):
    """(absolute, relative) change from a to b."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    d = abs(b - a)
    if math.isnan(d):
        d = math.inf
    return d, (d / abs(a) if 0.0 < abs(a) < math.inf else math.inf)


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: python3 tools/csvdiff.py OLD NEW")
    (head, old), (head_new, new) = read(argv[1]), read(argv[2])
    if head != head_new:
        sys.exit(f"headers differ:\n  {','.join(head)}\n  {','.join(head_new)}")
    if len(old) != len(new):
        sys.exit(f"row counts differ: {len(old)} against {len(new)}")
    for i, row in enumerate(old + new):
        if len(row) != len(head):
            sys.exit(f"row {i % len(old) + 1} of "
                     f"{argv[1 + i // len(old)]} has {len(row)} cells, "
                     f"the header {len(head)}")
    text = []
    print(f"{'column':<20} {'max abs':>9} {'max rel':>9} {'rows':>5}")
    for j, name in enumerate(head):
        a, b = [r[j] for r in old], [r[j] for r in new]
        fa, fb = as_floats(a), as_floats(b)
        if fa is None or fb is None:
            text += [(i, name, x, y)
                     for i, (x, y) in enumerate(zip(a, b), 1) if x != y]
            continue
        moves = [change(x, y) for x, y in zip(fa, fb)]
        print(f"{name:<20} {max((d for d, _ in moves), default=0.0):>9.2g} "
              f"{max((r for _, r in moves), default=0.0):>9.2g} "
              f"{sum(d > 0 for d, _ in moves):>5}")
    print(f"{len(text)} text cells differ")
    for i, name, x, y in sorted(text):
        print(f"  row {i} {name}: {x!r} -> {y!r}")


if __name__ == "__main__":
    main(sys.argv)
