"""Check that the tables a benchmark prints are the ones EXPERIMENTS.md
publishes.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_e7_arbiter_overhead.py > e7.txt
    python benchmarks/check_published_tables.py EXPERIMENTS.md e7.txt

Every table in the output files (a header row, a rule of dashes and the
rows under it, as ``common.print_table`` lays them out) must appear in
the markdown file as a fenced block that starts with the same header row
and matches it line for line; trailing spaces are ignored.  Exits 1 with
a diff for each table that is missing or differs, so a change that moves
a published number has to republish it.
"""

import difflib
import sys
from typing import List


def printed_tables(text: str) -> List[List[str]]:
    """The tables in benchmark output, one list of lines each."""
    lines = [line.rstrip() for line in text.splitlines()]
    tables = []
    for i in range(len(lines) - 1):
        if not lines[i] or set(lines[i + 1]) != {"-"}:
            continue
        end = i + 2
        while end < len(lines) and lines[end] and not lines[end].startswith(
                "== "):
            end += 1
        tables.append(lines[i:end])
    return tables


def fenced_blocks(markdown: str) -> List[List[str]]:
    """The contents of every fenced code block, one list of lines each."""
    blocks: List[List[str]] = []
    current = None
    for line in markdown.splitlines():
        if line.startswith("```"):
            if current is None:
                current = []
            else:
                blocks.append(current)
                current = None
        elif current is not None:
            current.append(line.rstrip())
    return blocks


def stale_tables(markdown: str, output: str) -> List[str]:
    """One message per printed table that *markdown* does not publish."""
    blocks = fenced_blocks(markdown)
    problems = []
    for table in printed_tables(output):
        published = [block for block in blocks if block[:1] == table[:1]]
        if table in published:
            continue
        if not published:
            problems.append(f"not published: {table[0]!r}")
            continue
        diff = difflib.unified_diff(published[0], table, "published",
                                    "printed", lineterm="")
        problems.append("\n".join(diff))
    return problems


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        markdown = handle.read()
    problems = []
    for path in argv[1:]:
        with open(path) as handle:
            output = handle.read()
        if not printed_tables(output):
            problems.append(f"{path}: no table printed")
        problems.extend(f"{path}: {problem}"
                        for problem in stale_tables(markdown, output))
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
