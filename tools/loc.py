#!/usr/bin/env python3
"""Code lines per crate (and per file with --files): non-blank lines
that are not `//` comments (`.py`: not `#` comments), a Rust file
counted down to its first column-0 `#[cfg(test)]`, i.e. without its test
module.  `total` covers `crates/*/src`, the umbrella `src/` and
`tools/*.py`; the two-clock benchmark's `benchmark/src` and the
profiler's `tools/hostprof/*.py` are counted in rows of their own after
it, outside the total.

usage: tools/loc.py [--files] [ROOT]
"""
import glob
import os
import sys


def code_lines(path):
    mark = "#" if path.endswith(".py") else "//"
    n = 0
    for line in open(path, encoding="utf-8"):
        if line.startswith("#[cfg(test)]"):
            break
        text = line.strip()
        n += bool(text) and not text.startswith(mark)
    return n


def show(groups):
    """One row per group (and per file with --files); the groups' sum."""
    total = 0
    for name, files in sorted(groups.items()):
        counts = [(code_lines(f), f) for f in sorted(files)]
        lines = sum(n for n, _ in counts)
        total += lines
        print(f"{lines:7d}  {name}")
        if "--files" in sys.argv:
            for n, f in counts:
                print(f"{n:7d}    {f}")
    return total


roots = [a for a in sys.argv[1:] if a != "--files"]
if len(roots) > 1 or any(a.startswith("-") for a in roots):
    print(__doc__.strip().splitlines()[-1])
    sys.exit(0 if "--help" in roots else 2)
os.chdir(roots[0] if roots else os.path.join(os.path.dirname(__file__), ".."))
groups = {d[:-4]: glob.glob(d + "/**/*.rs", recursive=True) for d in glob.glob("crates/*/src")}
groups["src"] = glob.glob("src/**/*.rs", recursive=True)
groups["tools"] = [f for f in glob.glob("tools/*.py") if "test_" not in f]
print(f"{show(groups):7d}  total")
print("outside the total:")
show({
    "benchmark/src": glob.glob("benchmark/src/**/*.rs", recursive=True),
    "tools/hostprof": glob.glob("tools/hostprof/*.py"),
})
