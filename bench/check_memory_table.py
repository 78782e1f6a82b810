#!/usr/bin/env python3
"""Fail when EXPERIMENTS.md's §5.1 memory table disagrees with its row.

    python3 bench/check_memory_table.py [repo_root]

Compares every number in the table under "## §5.1 memory claim" with
BENCH_memory.json. A megabyte figure may differ from the row by at most
0.1 MB and a bytes-per-route figure by at most 1 byte: the table rounds
to one decimal and to whole bytes. Reads only committed files, so the
result does not depend on the machine. Exits non-zero, naming each
disagreement, when a figure is off or a row or table line is missing.
"""
import json
import os
import sys

MB_SLACK = 0.1
BYTES_SLACK = 1.0
# Table columns after the config label, as (component, field, slack).
COLUMNS = [("bgp", "rss_mb", MB_SLACK), ("bgp", "bytes_per_route", BYTES_SLACK),
           ("rib", "rss_mb", MB_SLACK), ("rib", "bytes_per_route", BYTES_SLACK)]


def table_lines(text):
    """The data lines of the first table in the §5.1 section."""
    lines = text.splitlines()
    start = next((i for i, l in enumerate(lines)
                  if l.startswith("## §5.1 memory claim")), None)
    if start is None:
        return []
    out = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("|---"):
            continue
        if line.startswith("|"):
            out.append(line)
        elif out:
            break  # the table ended
    return out[1:]  # drop the header line


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    with open(os.path.join(root, "EXPERIMENTS.md"), encoding="utf-8") as f:
        rows_text = table_lines(f.read())
    with open(os.path.join(root, "BENCH_memory.json"), encoding="utf-8") as f:
        bench = json.load(f)
    committed = {(r["config"], r["component"]): r for r in bench["rows"]}

    errors = []
    seen = set()
    for line in rows_text:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        config = cells[0].split()[0]
        seen.add(config)
        if len(cells) != 1 + len(COLUMNS):
            errors.append(f"{config}: expected {len(COLUMNS)} figures, "
                          f"found {len(cells) - 1}")
            continue
        for cell, (component, field, slack) in zip(cells[1:], COLUMNS):
            row = committed.get((config, component))
            if row is None:
                errors.append(f"{config}/{component}: no row in "
                              "BENCH_memory.json")
                continue
            try:
                shown = float(cell)
            except ValueError:
                errors.append(f"{config}/{component} {field}: "
                              f"'{cell}' is not a number")
                continue
            if abs(shown - row[field]) > slack:
                errors.append(f"{config}/{component} {field}: table says "
                              f"{cell}, BENCH_memory.json says "
                              f"{row[field]:.4g}")
    for config in sorted({config for config, _ in committed}):
        if config not in seen:
            errors.append(f"{config}: row missing from the §5.1 table")
    if not rows_text:
        errors.append("no §5.1 memory table found in EXPERIMENTS.md")

    for e in errors:
        print(f"check_memory_table: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
