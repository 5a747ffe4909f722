#!/usr/bin/env python3
# Copyright 2026 The siot-trust Authors.
"""Lists library functions that only tests or benches call.

Reads the core library archive and two sets of object directories with
`nm`. A symbol counts as defined when the archive holds it as a strong
text symbol (`T`: not weak, not local, so no inline function or template
instance). A symbol counts as used in production when another archive
member or an object under a --production directory (the CLI, the
examples, the end-to-end benchmark) references it as undefined (`U`).
The script prints each defined symbol that some object under a --test
directory (the tests, the micro-benches) references and that nothing in
production does, with the directories that reference it.

`nm` cannot see a call made inside the same object file: such a call is
resolved by the assembler and leaves no `U` entry. A function whose only
production caller sits in its own .cc file is therefore listed too, so
every line is a candidate for deletion, not a verdict. Grep each one
before deleting it. Symbols nothing references at all are not listed.

The output is a report; the exit status is 0 whatever it lists.

Usage:
  tools/dead_symbols.py LIBRARY --production DIR... --test DIR...

Example, over a CMake build tree:
  tools/dead_symbols.py build/src/libsiot_core.a \\
      --production build/tools build/examples \\
      --test build/tests build/bench
"""

import argparse
import os
import shutil
import subprocess
import sys


def nm_symbols(path):
    """Yields (member, name, type) for every symbol `nm` lists in `path`.

    Names stay mangled: a mangled name holds no space, so each line of
    the POSIX output format splits cleanly.
    """
    result = subprocess.run(["nm", "-A", "-P", path], check=True,
                            capture_output=True, text=True)
    for line in result.stdout.splitlines():
        where, _, rest = line.partition(": ")
        fields = rest.split()
        if len(fields) < 2:
            continue
        member = where[where.find("[") + 1:-1] if where.endswith("]") \
            else os.path.basename(where)
        yield member, fields[0], fields[1]


def objects_under(directories):
    for directory in directories:
        for dirpath, _, filenames in os.walk(directory):
            for filename in sorted(filenames):
                if filename.endswith(".o"):
                    yield directory, os.path.join(dirpath, filename)


def undefined_references(directories):
    """Maps each symbol referenced as undefined to the directories whose
    objects reference it."""
    references = {}
    for directory, path in objects_under(directories):
        for _, name, kind in nm_symbols(path):
            if kind == "U":
                references.setdefault(name, set()).add(directory)
    return references


def demangle(names):
    if not names or shutil.which("c++filt") is None:
        return list(names)
    result = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                            check=True, capture_output=True, text=True)
    return result.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("library", help="the core library archive (.a)")
    parser.add_argument("--production", nargs="*", default=[],
                        metavar="DIR",
                        help="object directories whose references count "
                             "as production use")
    parser.add_argument("--test", nargs="+", required=True, metavar="DIR",
                        help="object directories of tests and benches")
    args = parser.parse_args()
    for path in [args.library] + args.production + args.test:
        if not os.path.exists(path):
            print(f"no such file or directory: {path}", file=sys.stderr)
            return 2

    defined = {}  # mangled name -> archive member defining it
    used = set()
    for member, name, kind in nm_symbols(args.library):
        if kind == "T":
            defined[name] = member
        elif kind == "U":
            used.add(name)
    used.update(undefined_references(args.production))
    test_references = undefined_references(args.test)

    candidates = sorted(
        (defined[name], name) for name in defined
        if name in test_references and name not in used)
    readable = demangle([name for _, name in candidates])
    for (member, name), pretty in zip(candidates, readable):
        where = ", ".join(sorted(test_references[name]))
        print(f"{pretty}\n    defined in {member}; referenced by {where}")
    print(f"{len(candidates)} candidates: strong text symbols of "
          f"{os.path.basename(args.library)} that only --test objects "
          f"reference (a call inside one object file is invisible to nm; "
          f"grep each before deleting)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
