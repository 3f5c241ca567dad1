#!/usr/bin/env python3
"""Turn a hostprof sample file (tools/hostprof/sampler.c) into tables.

    report.py PROFILE                   self and inclusive time by function
    report.py PROFILE --callers PATTERN who calls the functions matching
                                        PATTERN (a regex), by immediate caller
    report.py PROFILE --callees PATTERN where the time under the functions
                                        matching PATTERN goes, by the frame
                                        below the outermost match
    report.py PROFILE --locked          the share of samples whose interrupted
                                        instruction follows a `lock`-prefixed
                                        one or an `xchg`, by function
    report.py --diff A B                two profiles side by side: each
                                        function's self and after-locked
                                        shares in A and in B, and the change
    report.py PROFILE --annotate SYMBOL the self samples of the functions
                                        matching SYMBOL (a regex) per
                                        instruction, beside `objdump -d`

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


class Segment(collections.namedtuple("Segment", "offset vaddr filesz")):
    """One PT_LOAD program header: file bytes [offset, offset + filesz)
    are loaded at link-time address vaddr."""


def load_segments(path):
    """PATH's loadable segments, from its ELF64 program headers; none
    for a file that is not one."""
    segments = []
    try:
        with open(path, "rb") as f:
            ehdr = f.read(64)
            if ehdr[:4] != b"\x7fELF" or ehdr[4] != 2:
                return []
            phoff = int.from_bytes(ehdr[32:40], "little")
            phentsize = int.from_bytes(ehdr[54:56], "little")
            phnum = int.from_bytes(ehdr[56:58], "little")
            f.seek(phoff)
            for _ in range(phnum):
                ph = f.read(phentsize)
                if int.from_bytes(ph[0:4], "little") == 1:  # PT_LOAD
                    segments.append(Segment(*(int.from_bytes(ph[i:i + 8], "little")
                                              for i in (8, 16, 32))))
    except OSError:
        return []
    return segments


def link_address(segments, offset):
    """The link-time address of file offset OFFSET: a mapping gives a
    sample's file offset, `nm` and `objdump` speak link-time addresses,
    and the two differ by the segment holding the offset (in a
    position-independent executable the text segment is typically
    loaded a page above its file offset).  An offset no segment holds is
    taken as it is."""
    for seg in segments:
        if seg.offset <= offset < seg.offset + seg.filesz:
            return offset - seg.offset + seg.vaddr
    return offset


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

    def covering(self, addr):
        """(name, start, end) of the symbol covering ADDR, or None.  A
        symbol without a size runs up to the next one."""
        at = bisect.bisect_right(self.addrs, addr) - 1
        if at < 0:
            return None
        start, (name, size) = self.addrs[at], self.symbols[at]
        if size is not None:
            end = start + size
        else:
            end = self.addrs[at + 1] if at + 1 < len(self.addrs) else float("inf")
        return (name, start, end) if addr < end else None

    def name(self, addr):
        found = self.covering(addr)
        return found[0] if found else None


def parse_instructions(text):
    """The (address, instruction) lines of `objdump -d` output, in order;
    None stands between two functions (a symbol header or a blank line)."""
    lines = []
    for line in text.splitlines():
        head, sep, rest = line.partition(":\t")
        if not sep:
            lines.append(None)
            continue
        try:
            lines.append((int(head.strip(), 16), rest.strip()))
        except ValueError:
            continue
    return lines


def after_locked_instructions(instructions):
    """Addresses whose *preceding* instruction is `lock`-prefixed or an
    `xchg` with a memory operand (which locks the bus without saying so)."""
    after_locked = set()
    previous_locked = False
    for line in instructions:
        if line is None:
            previous_locked = False
            continue
        addr, insn = line
        if previous_locked:
            after_locked.add(addr)
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
        self.symbols, self.segments, self.disassembly, self.locked = {}, {}, {}, {}

    def locate(self, addr):
        at = bisect.bisect_right(self.starts, addr) - 1
        if at < 0 or addr >= self.maps[at].end:
            return None, addr
        m = self.maps[at]
        if m.path not in self.segments:
            self.segments[m.path] = load_segments(m.path)
        return m.path, link_address(self.segments[m.path], addr - m.start + m.offset)

    def symbols_of(self, path):
        if path not in self.symbols:
            self.symbols[path] = Symbols(run_nm(path))
        return self.symbols[path]

    def function(self, addr):
        path, vaddr = self.locate(addr)
        if path is None:
            return "[unmapped]"
        name = self.symbols_of(path).name(vaddr)
        return short(name) if name else "[%s]" % path.rsplit("/", 1)[-1]

    def instructions(self, path):
        """`objdump -d` of PATH as a list of (address, instruction)."""
        if path not in self.disassembly:
            self.disassembly[path] = parse_instructions(run_objdump(path))
        return self.disassembly[path]

    def follows_locked(self, addr):
        path, vaddr = self.locate(addr)
        if path is None:
            return False
        if path not in self.locked:
            self.locked[path] = after_locked_instructions(self.instructions(path))
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


def annotate(text, pattern):
    """Each function matching PATTERN (a regex) that has self samples,
    most sampled first: its instructions from `objdump -d`, each with the
    self samples that landed on it and their share of the function's."""
    profile = symbolise(text)
    if profile is None:
        return 1
    _, stacks, named, res = profile
    want = re.compile(pattern)
    # (name, file, (start, end) of its symbol or None) → samples by address
    hits = collections.defaultdict(collections.Counter)
    for stack, names in zip(stacks, named):
        if want.search(names[0]):
            path, vaddr = res.locate(stack[0])
            found = res.symbols_of(path).covering(vaddr) if path else None
            hits[(names[0], path, found and found[1:])][vaddr] += 1
    if not hits:
        print("no self samples in a function matching /%s/" % pattern, file=sys.stderr)
        return 1
    print("%d samples; a sample lands on the instruction after the one executing\n" % len(stacks))
    for (name, path, span), counts in sorted(
        hits.items(), key=lambda kv: (-sum(kv[1].values()), kv[0][0])
    ):
        n = sum(counts.values())
        print("%s: %d self samples (%.2f%%)" % (name, n, 100.0 * n / len(stacks)))
        if span is None:
            print("  (no symbol: nothing to disassemble)\n")
            continue
        for line in res.instructions(path):
            if line is not None and span[0] <= line[0] < span[1]:
                count = counts[line[0]]
                share = "%.2f%%" % (100.0 * count / n) if count else ""
                print("%7s %7s  %8x:  %s" % (count or "", share, line[0], line[1]))
        print()
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

    if args.callees:
        pattern = re.compile(args.callees)
        callees = collections.Counter()
        for names in named:
            for depth in range(len(names) - 1, -1, -1):
                if pattern.search(names[depth]):
                    callees[names[depth - 1] if depth else "[self]"] += 1
                    break
        under = sum(callees.values())
        print("%.1f%% of samples (%d) are under /%s/\n" % (100.0 * under / total, under, args.callees))
        table("callees of /%s/ (outermost match per sample)" % args.callees,
              callees.most_common(), total, args.top)
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
    mode.add_argument("--callees", metavar="PATTERN")
    mode.add_argument("--locked", action="store_true")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"))
    mode.add_argument("--annotate", metavar="SYMBOL")
    args = ap.parse_args(argv)
    if (args.profile is None) == (args.diff is None):
        ap.error("give one PROFILE, or --diff A B")
    # `report.py PROFILE | head`: die of the closed pipe as `cat` would.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    texts = []
    for path in args.diff or [args.profile]:
        with open(path) as f:
            texts.append(f.read())
    if args.diff:
        return diff(texts, args.top)
    if args.annotate:
        return annotate(texts[0], args.annotate)
    return report(texts[0], args)


if __name__ == "__main__":
    sys.exit(main())
