#!/usr/bin/env python3
# Copyright 2026 The siot-trust Authors.
"""Counts code lines: lines that are neither blank nor a `//` comment.

Prints one count per target: all of src/ (every .h and .cc under it), and
the follower's tailing code, src/service/replication.{h,cc}. A line that
holds code and a trailing comment counts as code. The numbers are for
review and for the CI run summary; nothing gates on them.

Usage: tools/code_lines.py [--markdown] [REPO_ROOT]
"""

import argparse
import pathlib
import sys


def code_lines(path):
    count = 0
    with open(path, encoding="utf-8") as source:
        for line in source:
            stripped = line.strip()
            if stripped and not stripped.startswith("//"):
                count += 1
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=".",
                        help="repository root (default: current directory)")
    parser.add_argument("--markdown", action="store_true",
                        help="print a Markdown table instead of plain text")
    args = parser.parse_args()
    root = pathlib.Path(args.root)
    src = root / "src"
    if not src.is_dir():
        print(f"no src/ directory under {root}", file=sys.stderr)
        return 2
    sources = sorted(p for p in src.rglob("*") if p.suffix in (".h", ".cc"))
    replication = [src / "service" / "replication.h",
                   src / "service" / "replication.cc"]
    rows = [("src/", sum(code_lines(p) for p in sources)),
            ("src/service/replication.{h,cc}",
             sum(code_lines(p) for p in replication))]
    if args.markdown:
        print("| target | code lines |")
        print("|---|---:|")
        for name, count in rows:
            print(f"| `{name}` | {count} |")
    else:
        for name, count in rows:
            print(f"{name}: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
