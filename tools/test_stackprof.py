#!/usr/bin/env python3
"""Tests of tools/stackprof/stackprof.py on a fixture symbol table and
sample file (stdlib unittest; run with `python3 tools/test_stackprof.py`)."""

import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "stackprof"))
import stackprof  # noqa: E402

# `nm -n --defined-only` of a small position-independent executable.
NM = """\
0000000000000021 a domain_field_caml_minor_heap_wsz
0000000000001000 T camlSim__Engine.code_begin
0000000000001000 T camlSim__Engine.run_until_412
0000000000001100 T camlSim__Heap.push_77
0000000000001200 t camlSim__Heap.fun_1093
0000000000001300 T camlWorkload__Tpcc.new_order_880
0000000000001400 T camlStdlib.string_of_int_140
0000000000001400 T camlStdlib__string_of_int_alias
0000000000001500 T caml_format_int
0000000000001600 T main
0000000000002000 D camlSim__Engine.data_begin
0000000000003000 B _end
""".splitlines()

BASE = 0x555555554000


def sample(*offsets):
    return "s " + " ".join(hex(BASE + o) for o in offsets)


SAMPLES = "\n".join([
    "# stackprof 1",
    "exe /bin/fixture",
    "base " + hex(BASE),
    # caml_format_int <- string_of_int <- new_order <- run_until <- main
    sample(0x1510, 0x1420, 0x1310, 0x1010, 0x1610),
    # Heap.push innermost, under run_until
    sample(0x1110, 0x1010, 0x1610),
    # an anonymous Heap function whose caller's call is its last
    # instruction: the return address is the next function's first byte
    sample(0x1210, 0x1300, 0x1010, 0x1610),
    # a shared-library pc, called from main: outside run_until
    "s 0x7f0000001234 " + hex(BASE + 0x1610),
    "dropped 3",
]) + "\n"


class Args:
    def __init__(self, under=None, callers=(), top=40):
        self.under, self.callers, self.top = under, list(callers), top


def stacks():
    header, samples = stackprof.read_samples(io.StringIO(SAMPLES))
    return header, stackprof.symbolise(samples, header["base"], stackprof.Symbols(NM))


class TestStackprof(unittest.TestCase):
    def test_header(self):
        header, samples = stackprof.read_samples(io.StringIO(SAMPLES))
        self.assertEqual(header["exe"], "/bin/fixture")
        self.assertEqual(header["base"], BASE)
        self.assertEqual(header["dropped"], 3)
        self.assertEqual(len(samples), 4)

    def test_names_and_pie_base(self):
        _, st = stacks()
        self.assertEqual([f for f, _ in st[0]],
                         ["caml_format_int", "Stdlib.string_of_int",
                          "Workload.Tpcc.new_order", "Sim.Engine.run_until", "main"])

    def test_return_address_names_the_caller(self):
        _, st = stacks()
        self.assertEqual(st[2][0][0], "Sim.Heap.fun")
        self.assertEqual(st[2][1][0], "Sim.Heap.fun")  # 0x1300 - 1

    def test_shared_and_modules(self):
        _, st = stacks()
        self.assertEqual(st[3][0][0], "[shared]")
        self.assertEqual(stackprof.module_of(*st[0][0]), "[runtime]")
        self.assertEqual(stackprof.module_of(*st[1][0]), "Sim.Heap")
        self.assertEqual(stackprof.module_of(*st[3][0]), "[shared]")
        self.assertEqual(stackprof.module_of("main", "main"), "[c]")

    def test_aliases_and_markers(self):
        syms = stackprof.Symbols(NM)
        self.assertEqual(syms.lookup(0x1000)[1], "camlSim__Engine.run_until_412")
        self.assertEqual(syms.lookup(0x1400)[1], "camlStdlib.string_of_int_140")
        self.assertEqual(syms.lookup(0x10)[0], "[shared]")
        self.assertEqual(syms.lookup(0x4000)[0], "[shared]")

    def report(self, **kw):
        _, st = stacks()
        out = io.StringIO()
        stackprof.report(st, Args(**kw), 3, len(st), out)
        return out.getvalue()

    def row(self, text, name):
        line = next(l for l in text.splitlines() if l.split() and l.split()[0] == name)
        return [float(x) for x in line.split()[1:]]

    def test_inclusive_and_self(self):
        text = self.report()
        self.assertIn("samples 4, kept 4, dropped 3", text)
        self.assertEqual(self.row(text, "main"), [100.0, 0.0])
        self.assertEqual(self.row(text, "Sim.Engine.run_until"), [75.0, 0.0])
        self.assertEqual(self.row(text, "Sim.Heap.fun"), [25.0, 25.0])

    def test_under(self):
        text = self.report(under="Engine.run_until")
        self.assertIn("kept 3 (under Engine.run_until)", text)
        self.assertEqual(self.row(text, "Sim.Engine.run_until"), [100.0, 0.0])
        self.assertEqual(self.row(text, "Sim.Heap"), [round(200.0 / 3, 2)])
        self.assertNotIn("[shared]", text)

    def test_caller_module(self):
        text = self.report()
        by_caller = text.split("by caller module")[1].split("callers of")[0]
        self.assertEqual(self.row(by_caller, "Workload.Tpcc"), [25.0])
        self.assertEqual(self.row(by_caller, "Sim.Heap"), [50.0])
        self.assertEqual(self.row(by_caller, "[none]"), [25.0])

    def test_callers(self):
        text = self.report(callers=["Stdlib.string_of_int", "run_until"])
        self.assertIn("callers of Stdlib.string_of_int (1 samples, 25.00 %)", text)
        after = text.split("callers of Stdlib.string_of_int")[1].splitlines()[1]
        self.assertEqual(after.split(), ["Workload.Tpcc.new_order", "100.00"])
        self.assertIn("callers of run_until (3 samples, 75.00 %)", text)

    def test_main_reads_a_file(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "stackprof.1.out")
            with open(path, "w") as f:
                f.write(SAMPLES)
            out = io.StringIO()
            stackprof.main([path, "--top", "3"], nm=lambda exe: NM, out=out)
        self.assertIn("samples 4, kept 4, dropped 3", out.getvalue())
        incl = out.getvalue().split("self by module")[0].strip().splitlines()
        self.assertEqual(len(incl), 3 + 3)  # summary, blank, header, three rows


if __name__ == "__main__":
    unittest.main()
