#!/usr/bin/env python3
# Copyright 2026 The siot-trust Authors.
"""Counts code lines: lines that are neither blank nor a `//` comment.

Prints one count per target: all of src/ (every .h and .cc under it); the
three file pairs that read a shard's log back and act on it —
src/service/persistence.{h,cc}, replication.{h,cc} and
trust_service.{h,cc}; the §4.3 search, src/trust/transitivity.{h,cc}; and
the four serving files as one row —
src/service/sharded_engines.{h,cc}, overlay_serving.{h,cc},
replication.{h,cc} and trust_service.{h,cc}; and the storage codecs as
one row — src/service/wal_codec.{h,cc}, checkpoint_codec.{h,cc},
src/trust/trust_store_io.{h,cc} and src/common/byte_codec.h — so code
moving between the files of a row shows as a net change.
A line that holds code and a trailing comment counts as code. The numbers
are for review and for the CI run summary; nothing gates on them.

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
    rows = [("src/", sum(code_lines(p) for p in sources))]
    for directory, name in (("service", "persistence"),
                            ("service", "replication"),
                            ("service", "trust_service"),
                            ("trust", "transitivity")):
        pair = [src / directory / f"{name}.h", src / directory / f"{name}.cc"]
        rows.append((f"src/{directory}/{name}.{{h,cc}}",
                     sum(code_lines(p) for p in pair)))
    serving = [src / "service" / f"{name}.{suffix}"
               for name in ("sharded_engines", "overlay_serving",
                            "replication", "trust_service")
               for suffix in ("h", "cc")]
    rows.append(("serving (sharded_engines, overlay_serving, replication, "
                 "trust_service)",
                 sum(code_lines(p) for p in serving if p.exists())))
    codecs = [src / "common" / "byte_codec.h"] + [
        src / directory / f"{name}.{suffix}"
        for directory, name in (("service", "wal_codec"),
                                ("service", "checkpoint_codec"),
                                ("trust", "trust_store_io"))
        for suffix in ("h", "cc")]
    rows.append(("storage codecs (wal_codec, checkpoint_codec, "
                 "trust_store_io, byte_codec)",
                 sum(code_lines(p) for p in codecs if p.exists())))
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
