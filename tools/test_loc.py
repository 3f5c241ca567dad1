#!/usr/bin/env python3
"""Self-tests for tools/loc.py over a fixture tree built in a temporary
directory (stdlib only, no cargo).

Run directly: `python3 tools/test_loc.py`.
"""

import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
LOC = os.path.join(HERE, "loc.py")

# 5 code lines: the comments, the blank line and the test module are not
# counted; an indented `#[cfg(test)]` does not cut the file.
RUST = """\
//! A module doc.
use std::fmt;

// A comment.
pub fn f() -> u32 {
    #[cfg(test)]
    1
}
#[cfg(test)]
mod tests {
    fn counted_not() {}
}
"""

# 2 code lines: `#` comments and blank lines are not counted, `//` is code.
PYTHON = """\
#!/usr/bin/env python3
# A comment.

x = 1 // 2
    # An indented comment.
print(x)
"""

TREE = {
    "crates/alpha/src/lib.rs": RUST,
    "crates/alpha/src/deep/mod.rs": "fn g() {}\n",
    "crates/alpha/tests/it.rs": "fn not_counted() {}\n",
    "crates/beta/src/lib.rs": "fn h() {}\nfn i() {}\n",
    "src/lib.rs": RUST,
    "src/bin/report.rs": "fn main() {}\n",
    "tools/tool.py": PYTHON,
    "tools/test_tool.py": "not_counted = 1\n",
    "tools/hostprof/report.py": PYTHON,
    "tools/hostprof/sampler.c": "int not_counted;\n",
    "benchmark/src/main.rs": RUST,
    "benchmark/src/rig/mod.rs": "fn rig() {}\n",
    "benchmark/shims/x/src/lib.rs": "fn not_counted() {}\n",
}


def run(*args):
    return subprocess.run(
        [sys.executable, LOC, *args], capture_output=True, text=True
    )


class Loc(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="loc-test-")
        self.root = self.tmp.name
        for rel, text in TREE.items():
            path = os.path.join(self.root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)

    def tearDown(self):
        self.tmp.cleanup()

    def rows(self, *args):
        """`loc.py ARGS ROOT`'s output lines as `(count, name)` pairs."""
        out = run(*args, self.root)
        self.assertEqual(out.returncode, 0, out.stderr)
        return [tuple(line.split(None, 1)) for line in out.stdout.splitlines()]

    def test_the_test_module_and_comments_are_cut(self):
        counts = dict((name, n) for n, name in self.rows("--files"))
        self.assertEqual(counts["crates/alpha/src/lib.rs"], "5")
        self.assertEqual(counts["tools/tool.py"], "2")

    def test_groups_sum_to_the_total_and_the_rest_stays_outside(self):
        self.assertEqual(
            self.rows(),
            [
                ("6", "crates/alpha"),
                ("2", "crates/beta"),
                ("6", "src"),
                ("2", "tools"),
                ("16", "total"),
                ("outside", "the total:"),
                ("6", "benchmark/src"),
                ("2", "tools/hostprof"),
            ],
        )

    def test_files_lists_each_file_under_its_group(self):
        self.assertEqual(
            [name for _, name in self.rows("--files")],
            [
                "crates/alpha",
                "crates/alpha/src/deep/mod.rs",
                "crates/alpha/src/lib.rs",
                "crates/beta",
                "crates/beta/src/lib.rs",
                "src",
                "src/bin/report.rs",
                "src/lib.rs",
                "tools",
                "tools/tool.py",
                "total",
                "the total:",
                "benchmark/src",
                "benchmark/src/main.rs",
                "benchmark/src/rig/mod.rs",
                "tools/hostprof",
                "tools/hostprof/report.py",
            ],
        )

    def test_a_second_root_is_a_usage_error(self):
        out = run(self.root, self.root)
        self.assertEqual(out.returncode, 2)
        self.assertIn("usage:", out.stdout)


if __name__ == "__main__":
    unittest.main()
