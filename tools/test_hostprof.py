#!/usr/bin/env python3
"""Self-tests for tools/hostprof/report.py (stdlib only, no cargo, no
binutils: `nm` and `objdump` are stood in for by checked-in output).
The sampler itself is built and run once where there is a `gcc`.

Run directly: `python3 tools/test_hostprof.py`.
"""

import argparse
import contextlib
import importlib.util
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures", "hostprof")

spec = importlib.util.spec_from_file_location(
    "report", os.path.join(HERE, "hostprof", "report.py")
)
rp = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rp)


def fixture(name):
    with open(os.path.join(FIXTURES, name)) as f:
        return f.read()


# The fixture's harness has symbols and code; its libc has no code and,
# being stripped, only two exported functions, with their sizes.  Both
# link at their file offsets.  The position-independent executable's
# text segment links a page above its file offset, as a real one here
# does.  `load_segments` keeps its own name for the test that reads a
# real header.
read_segments = rp.load_segments
NM = {"/fixture/harness": "nm.txt", "/fixture/lib/libc.so.6": "nm_libc.txt",
      "/fixture/pie": "nm_pie.txt"}
OBJDUMP = {"/fixture/harness": "objdump.txt", "/fixture/pie": "objdump_pie.txt"}
SEGMENTS = {"/fixture/pie": [rp.Segment(0, 0, 0x1000), rp.Segment(0x1000, 0x2000, 0x1000)]}
rp.run_nm = lambda path: fixture(NM[path]) if path in NM else ""
rp.run_objdump = lambda path: fixture(OBJDUMP[path]) if path in OBJDUMP else ""
rp.load_segments = lambda path: SEGMENTS.get(path, [])
# The fixture's harness as it was when the fixture profile was taken.
FIXTURE_EXE = (45056, 1790000000123456789)
rp.stat_exe = lambda path: FIXTURE_EXE if path == "/fixture/harness" else None


def run(**mode):
    args = argparse.Namespace(top=25, callers=None, callees=None, locked=False)
    vars(args).update(mode)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = rp.report(fixture("profile.txt"), args)
    return code, out.getvalue()


def rows(text, title):
    """The (share, count, name) rows of the table headed `title`."""
    lines = text.split(title + "\n", 1)[1].split("\n\n", 1)[0].splitlines()
    return [tuple(line.split(None, 2)) for line in lines]


class Profile(unittest.TestCase):
    def test_parse_keeps_executable_file_mappings_and_every_stack(self):
        header, maps, stacks = rp.parse_profile(fixture("profile.txt"))
        self.assertEqual(
            header,
            {
                "period_us": "200",
                "dropped": "0",
                "exe_size": str(FIXTURE_EXE[0]),
                "exe_mtime_ns": str(FIXTURE_EXE[1]),
                "exe": "/fixture/harness",
            },
        )
        self.assertEqual(
            [(m.path, m.offset) for m in maps],
            [("/fixture/harness", 0x1000), ("/fixture/lib/libc.so.6", 0x28000)],
        )
        self.assertEqual(len(stacks), 8)
        self.assertEqual(stacks[4], [0x555500001204, 0x555500001106, 0x555500001310, 0x555500001010])

    def test_addresses_resolve_through_the_mapping_offset(self):
        _, maps, _ = rp.parse_profile(fixture("profile.txt"))
        res = rp.Resolver(maps)
        self.assertEqual(res.locate(0x555500001106), ("/fixture/harness", 0x1106))
        self.assertEqual(res.locate(0x7F0000000040), ("/fixture/lib/libc.so.6", 0x28040))
        self.assertEqual(res.function(0x555500001106), "simx86::mem::PhysMemory::read_pte")
        self.assertEqual(res.function(0x555500001000), "main")
        self.assertEqual(res.function(0x7F0000000040), "[libc.so.6]")
        self.assertEqual(res.function(0x1234), "[unmapped]")
        # One past the last mapping's end is nobody's either.
        self.assertEqual(res.function(0x7F0000002000), "[unmapped]")

    def test_an_address_past_a_sized_symbol_is_the_library_not_the_symbol(self):
        _, maps, _ = rp.parse_profile(fixture("profile.txt"))
        res = rp.Resolver(maps)
        # libc's malloc internals lie behind a 0x33-byte exported stub.
        self.assertEqual(res.function(0x7F0000000000), "__default_morecore@GLIBC_2.2.5")
        self.assertEqual(res.function(0x7F0000000032), "__default_morecore@GLIBC_2.2.5")
        self.assertEqual(res.function(0x7F0000000033), "[libc.so.6]")
        self.assertEqual(res.function(0x7F0000000040), "[libc.so.6]")
        self.assertEqual(res.function(0x7F000000010C), "__nss_database_lookup@GLIBC_2.2.5")
        self.assertEqual(res.function(0x7F000000010D), "[libc.so.6]")
        # A symbol nm gives no size for still runs up to the next one.
        self.assertEqual(res.function(0x5555000012FF), "simx86::cpu::Cpu::tick")
        # And data symbols name no code.
        self.assertEqual(res.function(0x7F0000001010), "[libc.so.6]")

    def test_self_and_inclusive_tables(self):
        code, out = run()
        self.assertEqual(code, 0)
        self.assertIn("8 samples, period 200 us, 0 dropped", out)
        self.assertEqual(
            rows(out, "self")[0], ("50.00%", "4", "simx86::mem::PhysMemory::read_pte")
        )
        self.assertEqual(
            {name: count for _, count, name in rows(out, "self")[1:]},
            {
                "simx86::cpu::Cpu::tick": "1",
                "nimbus::mm::pool::FramePool::incref": "1",
                "[libc.so.6]": "1",
                "[unmapped]": "1",
            },
        )
        inclusive = {name: (share, count) for share, count, name in rows(out, "inclusive")}
        self.assertEqual(inclusive["main"], ("87.50%", "7"))
        # Once per sample, however often a function is on the stack.
        self.assertEqual(inclusive["simx86::mem::PhysMemory::read_pte"], ("62.50%", "5"))
        self.assertEqual(inclusive["nimbus::mm::pool::FramePool::incref"], ("62.50%", "5"))

    def test_callers_take_the_innermost_match(self):
        _, out = run(callers="read_pte")
        self.assertEqual(
            rows(out, "callers of /read_pte/ (innermost match per sample)"),
            [
                ("50.00%", "4", "nimbus::mm::pool::FramePool::incref"),
                ("12.50%", "1", "main"),
            ],
        )
        _, out = run(callers="^main$")
        self.assertEqual(
            rows(out, "callers of /^main$/ (innermost match per sample)"),
            [("87.50%", "7", "[root]")],
        )

    def test_callees_take_the_frame_below_the_outermost_match(self):
        _, out = run(callees="^main$")
        self.assertIn("87.5% of samples (7) are under /^main$/", out)
        self.assertEqual(
            rows(out, "callees of /^main$/ (outermost match per sample)"),
            [
                ("62.50%", "5", "nimbus::mm::pool::FramePool::incref"),
                ("12.50%", "1", "simx86::mem::PhysMemory::read_pte"),
                ("12.50%", "1", "[libc.so.6]"),
            ],
        )
        # A sample whose match is its leaf is the function's own time;
        # with both on the stack, the outer one is the match.
        _, out = run(callees="read_pte")
        self.assertEqual(
            rows(out, "callees of /read_pte/ (outermost match per sample)"),
            [("50.00%", "4", "[self]"), ("12.50%", "1", "simx86::cpu::Cpu::tick")],
        )
        _, out = run(callees="incref|read_pte")
        self.assertEqual(
            rows(out, "callees of /incref|read_pte/ (outermost match per sample)"),
            [("50.00%", "4", "simx86::mem::PhysMemory::read_pte"), ("25.00%", "2", "[self]")],
        )

    def test_locked_share_counts_lock_prefixes_and_memory_xchg_only(self):
        _, out = run(locked=True)
        self.assertIn("50.0% of samples (4) follow a lock-prefixed instruction or an xchg", out)
        self.assertEqual(
            rows(out, "after a locked instruction, by function"),
            [
                ("37.50%", "3", "simx86::mem::PhysMemory::read_pte"),
                ("12.50%", "1", "simx86::cpu::Cpu::tick"),
            ],
        )

    def test_diff_sets_two_profiles_side_by_side(self):
        # profile_b.txt: read_pte once after a lock, incref twice after a
        # plain cmpxchg, tick once after a lock xadd.
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rp.diff([fixture("profile.txt"), fixture("profile_b.txt")], 25)
        self.assertEqual(code, 0)
        lines = out.getvalue().splitlines()
        self.assertEqual(
            lines[:2],
            [
                "A: 8 samples, 50.0% after a locked instruction",
                "B: 4 samples, 50.0% after a locked instruction",
            ],
        )
        # Largest share on either side first; a tie goes by name.
        self.assertEqual(
            [line.split() for line in lines[4:]],
            [
                ["12.50%", "50.00%", "+37.50%", "0.00%", "0.00%", "+0.00%",
                 "nimbus::mm::pool::FramePool::incref"],
                ["50.00%", "25.00%", "-25.00%", "37.50%", "25.00%", "-12.50%",
                 "simx86::mem::PhysMemory::read_pte"],
                ["12.50%", "25.00%", "+12.50%", "12.50%", "25.00%", "+12.50%",
                 "simx86::cpu::Cpu::tick"],
                ["12.50%", "0.00%", "-12.50%", "0.00%", "0.00%", "+0.00%", "[libc.so.6]"],
                ["12.50%", "0.00%", "-12.50%", "0.00%", "0.00%", "+0.00%", "[unmapped]"],
            ],
        )
        # An unusable side is refused, one line each, before any table.
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = rp.diff([fixture("profile.txt"), "# hostprof period_us=200\n"], 25)
        self.assertEqual(code, 1)
        self.assertEqual(out.getvalue(), "no samples in the profile\n")

    def test_objdump_marks_the_instruction_after_not_the_next_function(self):
        after = rp.after_locked_instructions(rp.parse_instructions(fixture("objdump.txt")))
        # After `lock addq`, after `xchg %rax,(%rdx)`, after `lock xadd`;
        # not after the register-to-register xchg, not after a bare
        # cmpxchg, and main's closing `lock incq` does not leak into the
        # function laid out behind it.
        self.assertEqual(after, {0x1106, 0x110C, 0x1204})

    def test_an_empty_profile_is_an_error(self):
        args = argparse.Namespace(top=25, callers=None, callees=None, locked=False)
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(rp.report("# hostprof period_us=200 dropped=0\n# maps\n# stacks\n", args), 1)

    def test_a_rebuilt_or_missing_executable_is_refused_in_one_line(self):
        size, mtime = FIXTURE_EXE
        for now, why in (
            ((size, mtime + 1), "has been rebuilt"),
            ((size + 4096, mtime), "has been rebuilt"),
            (None, "is gone"),
        ):
            rp.stat_exe = lambda path, now=now: now
            try:
                code, out = run()
            finally:
                rp.stat_exe = lambda path: FIXTURE_EXE if path == "/fixture/harness" else None
            self.assertEqual(code, 1)
            self.assertEqual(
                out, "/fixture/harness %s since it was profiled: profile it again\n" % why
            )

    def test_a_profile_without_the_executable_record_is_taken_on_trust(self):
        old = fixture("profile.txt").split("\n")
        old[0] = "# hostprof period_us=200 dropped=0"
        del old[1:3]  # the `# exe` section
        args = argparse.Namespace(top=25, callers=None, callees=None, locked=False)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(rp.report("\n".join(old), args), 0)
        self.assertIn("8 samples", out.getvalue())

    def test_segments_come_from_the_program_headers(self):
        def phdr(p_type, flags, offset, vaddr, filesz):
            return (
                p_type.to_bytes(4, "little")
                + flags.to_bytes(4, "little")
                + offset.to_bytes(8, "little")
                + vaddr.to_bytes(8, "little")
                + bytes(8)
                + filesz.to_bytes(8, "little")
                + bytes(16)
            )

        ehdr = bytearray(64)
        ehdr[:5] = b"\x7fELF\x02"
        ehdr[32:40] = (64).to_bytes(8, "little")  # e_phoff
        ehdr[54:56] = (56).to_bytes(2, "little")  # e_phentsize
        ehdr[56:58] = (3).to_bytes(2, "little")  # e_phnum
        image = (bytes(ehdr) + phdr(6, 4, 64, 64, 0xa8)  # PT_PHDR: not loaded
                 + phdr(1, 4, 0, 0, 0x33000) + phdr(1, 5, 0x33000, 0x34000, 0x80000))
        with tempfile.NamedTemporaryFile() as f:
            f.write(image)
            f.flush()
            segments = read_segments(f.name)
        self.assertEqual(segments, [(0, 0, 0x33000), (0x33000, 0x34000, 0x80000)])
        # Through the segment holding the offset: text a page up, the
        # read-only head where it lies, and an offset no segment holds
        # as it is.
        self.assertEqual(rp.link_address(segments, 0x33106), 0x34106)
        self.assertEqual(rp.link_address(segments, 0x32fff), 0x32fff)
        self.assertEqual(rp.link_address(segments, 0xb3000), 0xb3000)
        self.assertEqual(read_segments("/nonexistent/file"), [])

    def test_annotate_counts_self_samples_per_instruction(self):
        _, maps, _ = rp.parse_profile(fixture("profile_pie.txt"))
        res = rp.Resolver(maps)
        # File offset 0x1104 is link-time 0x2104, not 0x1104.
        self.assertEqual(res.locate(0x555500001104), ("/fixture/pie", 0x2104))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rp.annotate(fixture("profile_pie.txt"), "Tlb::find")
        self.assertEqual(code, 0)
        self.assertEqual(
            out.getvalue().splitlines(),
            [
                "6 samples; a sample lands on the instruction after the one executing",
                "",
                "simx86::tlb::Tlb::find: 5 self samples (83.33%)",
                "                     2100:  mov    (%rdi),%rax",
                "      3  60.00%      2104:  xor    %rsi,%rax",
                "      1  20.00%      2109:  and    %rdx,%rax",
                "      1  20.00%      210c:  test   %rax,%rax",
                "                     210f:  ret",
                "",
            ],
        )
        # A sample in no symbol is named after its file and not listed;
        # a pattern no sampled function matches is an error.
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            self.assertEqual(rp.annotate(fixture("profile_pie.txt"), r"\[pie\]"), 0)
            self.assertEqual(rp.annotate(fixture("profile_pie.txt"), "^main$"), 1)
        self.assertIn("[pie]: 1 self samples (16.67%)\n  (no symbol: nothing to disassemble)", out.getvalue())
        self.assertIn("no self samples in a function matching /^main$/", out.getvalue())


class CommandLine(unittest.TestCase):
    """report.py as a process, over a profile of a stand-in executable."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.exe = os.path.join(self.dir.name, "harness")
        with open(self.exe, "wb") as f:
            f.write(b"not an ELF file")
        st = os.stat(self.exe)
        self.profile = os.path.join(self.dir.name, "harness.prof")
        with open(self.profile, "w") as f:
            f.write(
                "# hostprof period_us=200 dropped=0 exe_size=%d exe_mtime_ns=%d\n"
                "# exe\n%s\n# maps\n"
                "555500001000-555500003000 r-xp 00001000 fe:00 1001    %s\n"
                "# stacks\n555500001106\n"
                % (st.st_size, st.st_mtime_ns, self.exe, self.exe)
            )
        self.command = [sys.executable, os.path.join(HERE, "hostprof", "report.py"), self.profile]

    def tearDown(self):
        self.dir.cleanup()

    def test_a_closed_pipe_ends_the_report_quietly(self):
        # `report.py PROFILE | head`: the reader is gone before the
        # report's first flush.
        proc = subprocess.Popen(self.command, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        self.assertEqual(proc.wait(), -signal.SIGPIPE)
        self.assertEqual(stderr, "")

    def test_an_executable_rebuilt_after_the_profile_is_refused(self):
        done = subprocess.run(self.command, capture_output=True, text=True)
        self.assertEqual((done.returncode, done.stderr), (0, ""))
        self.assertIn("1 samples", done.stdout)
        with open(self.exe, "ab") as f:
            f.write(b", rebuilt")
        done = subprocess.run(self.command, capture_output=True, text=True)
        self.assertEqual(done.returncode, 1)
        self.assertEqual(done.stdout, "")
        self.assertEqual(
            done.stderr, "%s has been rebuilt since it was profiled: profile it again\n" % self.exe
        )


@unittest.skipUnless(shutil.which("gcc"), "no gcc to build the sampler with")
class Sampler(unittest.TestCase):
    def test_the_header_records_the_executable_it_ran_in(self):
        with tempfile.TemporaryDirectory() as tmp:
            lib, out = os.path.join(tmp, "sampler.so"), os.path.join(tmp, "out.prof")
            subprocess.run(
                ["gcc", "-O2", "-shared", "-fPIC", "-o", lib,
                 os.path.join(HERE, "hostprof", "sampler.c")],
                check=True,
            )
            env = dict(os.environ, LD_PRELOAD=lib, HOSTPROF_OUT=out)
            subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
            with open(out) as f:
                header, maps, _ = rp.parse_profile(f.read())
        exe = os.path.realpath(sys.executable)
        st = os.stat(exe)
        self.assertEqual(header["exe"], exe)
        self.assertEqual(
            (int(header["exe_size"]), int(header["exe_mtime_ns"])), (st.st_size, st.st_mtime_ns)
        )
        self.assertIn(exe, [m.path for m in maps])


if __name__ == "__main__":
    unittest.main()
