#!/usr/bin/env python3
"""Turn a hostprof sample file (tools/hostprof/sampler.c) into tables.

    report.py PROFILE                   self and inclusive time by function
    report.py PROFILE --callers PATTERN who calls the functions matching
                                        PATTERN (a regex), by immediate caller
    report.py PROFILE --locked          the share of samples whose interrupted
                                        instruction follows a `lock`-prefixed
                                        one or an `xchg`, by function
    report.py --diff A B                two profiles side by side: each
                                        function's self and after-locked
                                        shares in A and in B, and the change

Symbols and their sizes come from `nm -C -S`, the instruction before a
sample from `objdump -d`; both are run on the files PROFILE's own copy of
/proc/self/maps names, so the report must run where those files still
are — and are still the same: PROFILE records its executable's size and
mtime, and a file that has been rebuilt since is refused, because its
addresses would resolve to the wrong functions.  A sample lands on the instruction *after* the one that was
executing when the timer fired, which is why "follows a locked
instruction" is the test: an uncontended atomic read-modify-write
drains the store buffer, and the time that takes is billed to whatever
comes next.  Stdlib only.
"""

import argparse
import bisect
import collections
import os
import re
import signal
import subprocess
import sys


class Mapping(collections.namedtuple("Mapping", "start end offset path")):
    """One executable, file-backed line of /proc/self/maps."""


def parse_profile(text):
    """(header, executable mappings, stacks) of a sampler dump.

    A stack is a list of addresses, leaf first.
    """
    header, maps, stacks = {}, [], []
    section = None
    for line in text.splitlines():
        if line.startswith("# hostprof"):
            header = dict(kv.split("=", 1) for kv in line.split()[2:])
        elif line.startswith("# "):
            section = line[2:].strip()
        elif section == "exe":
            header["exe"] = line
        elif section == "maps":
            fields = line.split(None, 5)
            if len(fields) == 6 and "x" in fields[1] and fields[5].startswith("/"):
                start, end = (int(x, 16) for x in fields[0].split("-"))
                maps.append(Mapping(start, end, int(fields[2], 16), fields[5]))
        elif section == "stacks" and line.strip():
            stacks.append([int(x, 16) for x in line.split()])
    return header, maps, stacks


def stat_exe(path):
    """(size, mtime in ns) of PATH, or None if it is gone."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_size, st.st_mtime_ns


def stale_executable(header):
    """Why the profiled executable cannot be symbolised against, if it
    cannot: a one-line message, or None.  A profile from a sampler that
    did not record the executable is taken on trust."""
    if "exe_size" not in header:
        return None
    then = (int(header["exe_size"]), int(header["exe_mtime_ns"]))
    now = stat_exe(header["exe"])
    if now == then:
        return None
    return "%s %s since it was profiled: profile it again" % (
        header["exe"],
        "is gone" if now is None else "has been rebuilt",
    )


def run_nm(path):
    """`nm -C -S` over PATH: its own symbols, or its dynamic ones if
    stripped, with their sizes."""
    for extra in ([], ["-D"]):
        done = subprocess.run(
            ["nm", "-C", "-S", "--defined-only", *extra, path], capture_output=True, text=True
        )
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout
    return ""


def run_objdump(path):
    """`objdump -d` over PATH, without the instruction bytes."""
    done = subprocess.run(
        ["objdump", "-d", "--no-show-raw-insn", path], capture_output=True, text=True
    )
    return done.stdout if done.returncode == 0 else ""


def load_bias(path):
    """Link-time address minus file offset of PATH's executable segment
    (from its ELF64 program headers): a mapping gives a sample's file
    offset, `nm` and `objdump` speak link-time addresses."""
    try:
        with open(path, "rb") as f:
            ehdr = f.read(64)
            if ehdr[:4] != b"\x7fELF" or ehdr[4] != 2:
                return 0
            phoff = int.from_bytes(ehdr[32:40], "little")
            phentsize = int.from_bytes(ehdr[54:56], "little")
            phnum = int.from_bytes(ehdr[56:58], "little")
            f.seek(phoff)
            for _ in range(phnum):
                ph = f.read(phentsize)
                p_type = int.from_bytes(ph[0:4], "little")
                p_flags = int.from_bytes(ph[4:8], "little")
                if p_type == 1 and p_flags & 1:  # PT_LOAD, executable
                    p_offset = int.from_bytes(ph[8:16], "little")
                    p_vaddr = int.from_bytes(ph[16:24], "little")
                    return p_vaddr - p_offset
    except OSError:
        pass
    return 0


NM_LINE = re.compile(r"([0-9a-f]+) (?:([0-9a-f]+) )?([TtWw]) (.+)")


class Symbols:
    """Sorted text symbols of one file: address → function name.

    A symbol `nm -S` gives a size covers only that many bytes: an
    address past its end has no name, rather than the name of whatever
    exported symbol precedes it in a stripped library."""

    def __init__(self, nm_text):
        found = {}
        for line in nm_text.splitlines():
            m = NM_LINE.fullmatch(line)
            if m:
                size = int(m.group(2), 16) if m.group(2) else None
                found.setdefault(int(m.group(1), 16), (m.group(4), size))
        self.addrs = sorted(found)
        self.symbols = [found[a] for a in self.addrs]

    def name(self, addr):
        at = bisect.bisect_right(self.addrs, addr) - 1
        if at < 0:
            return None
        name, size = self.symbols[at]
        return None if size is not None and addr >= self.addrs[at] + size else name


def parse_objdump(text):
    """Addresses whose *preceding* instruction is `lock`-prefixed or an
    `xchg` with a memory operand (which locks the bus without saying so)."""
    after_locked = set()
    previous_locked = False
    for line in text.splitlines():
        head, sep, rest = line.partition(":\t")
        if not sep:
            previous_locked = False  # a symbol header or a blank line
            continue
        try:
            addr = int(head.strip(), 16)
        except ValueError:
            continue
        if previous_locked:
            after_locked.add(addr)
        insn = rest.strip()
        previous_locked = insn.startswith("lock ") or (
            insn.startswith("xchg") and "(" in insn
        )
    return after_locked


def short(name):
    """A demangled Rust path without its `::h<hash>` suffix."""
    return re.sub(r"::h[0-9a-f]{16}$", "", name)


class Resolver:
    """Sampled address → file and link-time address, function, and
    whether it follows a locked instruction."""

    def __init__(self, maps):
        self.maps = sorted(maps)
        self.starts = [m.start for m in self.maps]
        self.symbols, self.biases, self.locked = {}, {}, {}

    def locate(self, addr):
        at = bisect.bisect_right(self.starts, addr) - 1
        if at < 0 or addr >= self.maps[at].end:
            return None, addr
        m = self.maps[at]
        if m.path not in self.biases:
            self.biases[m.path] = load_bias(m.path)
        return m.path, addr - m.start + m.offset + self.biases[m.path]

    def function(self, addr):
        path, vaddr = self.locate(addr)
        if path is None:
            return "[unmapped]"
        if path not in self.symbols:
            self.symbols[path] = Symbols(run_nm(path))
        name = self.symbols[path].name(vaddr)
        return short(name) if name else "[%s]" % path.rsplit("/", 1)[-1]

    def follows_locked(self, addr):
        path, vaddr = self.locate(addr)
        if path is None:
            return False
        if path not in self.locked:
            self.locked[path] = parse_objdump(run_objdump(path))
        return vaddr in self.locked[path]


def table(title, rows, total, top):
    print(title)
    for name, count in rows[:top]:
        print("  %6.2f%%  %7d  %s" % (100.0 * count / total, count, name))
    print()


def symbolise(text):
    """(header, stacks, function names leaf first per stack, resolver) of
    a sampler dump — or None, the reason said in one line on stderr, if
    it has no samples or its executable has changed since."""
    header, maps, stacks = parse_profile(text)
    why = stale_executable(header) if stacks else "no samples in the profile"
    if why:
        print(why, file=sys.stderr)
        return None
    res = Resolver(maps)
    return header, stacks, [[res.function(a) for a in stack] for stack in stacks], res


def after_locked(stacks, named, res):
    """Samples whose instruction follows a locked one, by function."""
    return collections.Counter(
        names[0] for stack, names in zip(stacks, named) if res.follows_locked(stack[0])
    )


def diff(texts, top):
    """Self and after-locked shares per function of profile A beside B."""
    profiles = [symbolise(text) for text in texts]
    if None in profiles:
        return 1
    sides = []
    for label, (_, stacks, named, res) in zip("AB", profiles):
        total, locked = len(stacks), after_locked(stacks, named, res)
        print("%s: %d samples, %.1f%% after a locked instruction"
              % (label, total, 100.0 * sum(locked.values()) / total))
        sides.append((total, collections.Counter(names[0] for names in named), locked))
    print()

    def shares(name):
        return [100.0 * side[k][name] / side[0] for k in (1, 2) for side in sides]

    names = sorted(set(sides[0][1]) | set(sides[1][1]), key=lambda n: (-max(shares(n)), n))
    print("%9s %8s %8s %10s %8s %8s  function" % ("self A", "B", "change", "locked A", "B", "change"))
    for name in names[:top]:
        self_a, self_b, locked_a, locked_b = shares(name)
        print("%8.2f%% %7.2f%% %+7.2f%% %9.2f%% %7.2f%% %+7.2f%%  %s"
              % (self_a, self_b, self_b - self_a, locked_a, locked_b, locked_b - locked_a, name))
    return 0


def report(text, args):
    profile = symbolise(text)
    if profile is None:
        return 1
    header, stacks, named, res = profile
    total = len(stacks)
    print(
        "%d samples, period %s us, %s dropped\n"
        % (total, header.get("period_us", "?"), header.get("dropped", "?"))
    )

    if args.locked:
        by_fn = after_locked(stacks, named, res)
        hit = sum(by_fn.values())
        print("%.1f%% of samples (%d) follow a lock-prefixed instruction or an xchg\n"
              % (100.0 * hit / total, hit))
        table("after a locked instruction, by function", by_fn.most_common(), total, args.top)
        return 0

    if args.callers:
        pattern = re.compile(args.callers)
        callers = collections.Counter()
        for names in named:
            for depth, name in enumerate(names):
                if pattern.search(name):
                    callers[names[depth + 1] if depth + 1 < len(names) else "[root]"] += 1
                    break
        table("callers of /%s/ (innermost match per sample)" % args.callers,
              callers.most_common(), total, args.top)
        return 0

    self_time = collections.Counter(names[0] for names in named)
    inclusive = collections.Counter()
    for names in named:
        inclusive.update(set(names))
    table("self", self_time.most_common(), total, args.top)
    table("inclusive", inclusive.most_common(), total, args.top)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("profile", nargs="?")
    ap.add_argument("--top", type=int, default=25, help="rows per table (default 25)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--callers", metavar="PATTERN")
    mode.add_argument("--locked", action="store_true")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if (args.profile is None) == (args.diff is None):
        ap.error("give one PROFILE, or --diff A B")
    # `report.py PROFILE | head`: die of the closed pipe as `cat` would.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    texts = []
    for path in args.diff or [args.profile]:
        with open(path) as f:
            texts.append(f.read())
    return diff(texts, args.top) if args.diff else report(texts[0], args)


if __name__ == "__main__":
    sys.exit(main())
