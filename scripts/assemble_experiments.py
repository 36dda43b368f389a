#!/usr/bin/env python3
"""Refresh the figure tables in EXPERIMENTS.md from the tables the experiment
binaries printed (results/*.log). Re-run after ./scripts/run_all_experiments.sh.

Every '### <title>' heading in EXPERIMENTS.md whose title a log also prints
has its table replaced, in place, by the log's block of the same title. All
other text, headings included, is left as it is."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "EXPERIMENTS.md"
RESULTS = ROOT / "results"


def is_table_line(line: str) -> bool:
    return line.startswith("|") or line == ""


def tables_in(log_path: Path):
    """Each '### title' markdown table block of a log file, as (title, lines)."""
    blocks = []
    for part in log_path.read_text().split("### ")[1:]:
        lines = part.splitlines()
        body = []
        for line in lines[1:]:
            if not is_table_line(line):
                break
            body.append(line)
        while body and body[-1] == "":
            body.pop()
        blocks.append((lines[0], ["### " + lines[0]] + body))
    return blocks


def main():
    blocks = {}
    for log in sorted(RESULTS.glob("*.log")):
        for title, block in tables_in(log):
            if blocks.get(title, block) != block:
                sys.exit(f"error: two logs print different '### {title}' tables")
            blocks[title] = block

    lines = OUT.read_text().split("\n")
    out, refreshed, i = [], set(), 0
    while i < len(lines):
        title = lines[i][4:] if lines[i].startswith("### ") else None
        if title not in blocks:
            out.append(lines[i])
            i += 1
            continue
        end = i + 1
        while end < len(lines) and is_table_line(lines[end]):
            end += 1
        # Keep the blank lines between the old table and what follows it.
        keep = end
        while keep > i + 1 and lines[keep - 1] == "":
            keep -= 1
        out += blocks[title] + lines[keep:end]
        refreshed.add(title)
        i = end
    OUT.write_text("\n".join(out))
    print(f"refreshed {len(refreshed)} tables in {OUT}")
    unused = sorted(set(blocks) - refreshed)
    if unused:
        print(f"note: no '### ' heading for {len(unused)} logged tables:", file=sys.stderr)
        for title in unused:
            print(f"  {title}", file=sys.stderr)


if __name__ == "__main__":
    main()
