#!/usr/bin/env python3
"""Symbolise and tabulate the samples of tools/stackprof/sampler.c.

    python3 tools/stackprof/stackprof.py stackprof.<pid>.out \\
        [--under Engine.run_until] [--callers Stdlib.string_of_int ...] [--top 40]

The sample file names the executable and its load address; the
executable's symbols come from `nm -n --defined-only`, and each sampled
address is moved back by the load address first (position-independent
executables load at a random base).  A return address is looked up one
byte back, so it names the calling function rather than whatever
follows the call.  OCaml symbols print as `Module.Sub.function`
(`camlSim__Heap.push_123` -> `Sim.Heap.push`), runtime C functions keep
their name, and addresses outside the executable read `[shared]`.

`--under NAME` keeps only samples with NAME on the stack (for example
`Engine.run_until` for the simulation alone); a frame matches NAME when
it equals it or ends with `.NAME`.  The report has four tables:

- inclusive: samples with the function anywhere on the stack (each
  sample counted once per function), and self (the function innermost);
- self by module: the innermost frame's OCaml module, `[runtime]` for
  the OCaml runtime's C code (`caml_*`), `[c]` for other C in the
  executable, `[shared]` for shared libraries;
- by caller module: the innermost frame outside the standard library,
  the runtime and C, so that a `string_of_int` or a minor collection
  counts for the module whose code asked for it;
- for each `--callers NAME`: the frame directly outside NAME's
  innermost occurrence, as a share of the samples that hold NAME.

Percentages are of the samples kept.  Stdlib only.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys

TEXT_TYPES = set("tTwW")
MARKER = re.compile(r"(code_begin|code_end|data_begin|data_end|frametable)$")
OCAML = re.compile(r"^caml([A-Z][A-Za-z0-9_']*)(?:\.(.*))?$")
STAMP = re.compile(r"_\d+$")


def read_samples(lines):
    """Header fields and the list of samples (lists of int addresses)."""
    header, samples = {"exe": None, "base": 0, "dropped": 0}, []
    for line in lines:
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "s":
            samples.append([int(a, 16) for a in parts[1:]])
        elif parts[0] == "exe":
            header["exe"] = line.split(None, 1)[1].strip() if len(parts) > 1 else None
        elif parts[0] == "base":
            header["base"] = int(parts[1], 16)
        elif parts[0] == "dropped":
            header["dropped"] += int(parts[1])
    return header, samples


def run_nm(exe):
    return subprocess.run(["nm", "-n", "--defined-only", exe], check=True,
                          stdout=subprocess.PIPE,
                          universal_newlines=True).stdout.splitlines()


def pretty(name):
    """OCaml symbols as Module.function; everything else unchanged."""
    m = OCAML.match(name)
    if not m:
        return name
    path = m.group(1).replace("__", ".")
    return path if m.group(2) is None else path + "." + STAMP.sub("", m.group(2))


def caller_module(frames):
    for frame in frames:
        m = module_of(*frame)
        if not (m.startswith("[") or m == "Stdlib" or m.startswith("Stdlib.")):
            return m
    return "[none]"


def module_of(name, raw):
    m = OCAML.match(raw)
    if name == "[shared]":
        return name
    if m:
        return m.group(1).replace("__", ".")
    return "[runtime]" if raw.startswith("caml_") else "[c]"


class Symbols:
    """Address -> (pretty name, raw name), from `nm -n` output lines."""

    def __init__(self, nm_lines):
        starts, names, end = [], [], 0
        for line in nm_lines:
            parts = line.split()
            if len(parts) != 3:
                continue
            addr, kind, name = int(parts[0], 16), parts[1], parts[2]
            end = max(end, addr)
            if kind not in TEXT_TYPES or MARKER.search(name):
                continue
            if starts and starts[-1] == addr:
                continue  # aliases: keep the first name at an address
            starts.append(addr)
            names.append(name)
        self.starts, self.names, self.end = starts, names, end

    def lookup(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        if i < 0 or addr > self.end:
            return ("[shared]", "[shared]")
        return (pretty(self.names[i]), self.names[i])


def symbolise(samples, base, symbols):
    """Each sample as a list of (pretty, raw) frames, innermost first."""
    out = []
    for sample in samples:
        frames = []
        for depth, addr in enumerate(sample):
            rel = addr - base - (1 if depth > 0 else 0)
            frames.append(symbols.lookup(rel) if rel >= 0 else ("[shared]", "[shared]"))
        out.append(frames)
    return out


def matches(frame, name):
    return frame == name or frame.endswith("." + name)


def report(stacks, args, dropped, total, out):
    kept = [s for s in stacks
            if not args.under or any(matches(f, args.under) for f, _ in s)]
    n = len(kept)
    out.write("samples %d, kept %d%s, dropped %d\n\n"
              % (total, n, " (under %s)" % args.under if args.under else "", dropped))
    if n == 0:
        return
    pct = lambda c: 100.0 * c / n
    inclusive, self_, modules, owners = (collections.Counter() for _ in range(4))
    for s in kept:
        if not s:
            continue
        for f in {f for f, _ in s}:
            inclusive[f] += 1
        self_[s[0][0]] += 1
        modules[module_of(*s[0])] += 1
        owners[caller_module(s)] += 1
    out.write("%-60s %8s %8s\n" % ("inclusive", "incl %", "self %"))
    for f, c in inclusive.most_common(args.top):
        out.write("%-60s %8.2f %8.2f\n" % (f[:60], pct(c), pct(self_[f])))
    out.write("\n%-60s %8s\n" % ("self by module", "self %"))
    for m, c in modules.most_common(args.top):
        out.write("%-60s %8.2f\n" % (m[:60], pct(c)))
    out.write("\n%-60s %8s\n" % ("by caller module", "%"))
    for m, c in owners.most_common(args.top):
        out.write("%-60s %8.2f\n" % (m[:60], pct(c)))
    for name in args.callers:
        callers, holding = collections.Counter(), 0
        for s in kept:
            for depth, (f, _) in enumerate(s):
                if matches(f, name):
                    holding += 1
                    callers[s[depth + 1][0] if depth + 1 < len(s) else "[root]"] += 1
                    break
        out.write("\ncallers of %s (%d samples, %.2f %%)\n" % (name, holding, pct(holding)))
        for f, c in callers.most_common(args.top):
            out.write("  %-58s %8.2f\n" % (f[:58], 100.0 * c / holding))


def main(argv=None, nm=run_nm, out=sys.stdout):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("samples", help="a stackprof.<pid>.out file")
    p.add_argument("--under", help="keep only samples with this frame on the stack")
    p.add_argument("--callers", action="append", default=[],
                   help="print the callers of this frame (repeatable)")
    p.add_argument("--top", type=int, default=40, help="rows per table")
    args = p.parse_args(argv)
    with open(args.samples) as f:
        header, samples = read_samples(f)
    if not header["exe"]:
        sys.exit("%s: no `exe` line" % args.samples)
    stacks = symbolise(samples, header["base"], Symbols(nm(header["exe"])))
    report(stacks, args, header["dropped"], len(samples), out)


if __name__ == "__main__":
    main()
