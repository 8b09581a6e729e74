#!/usr/bin/env python3
"""A/B host-time comparison of two checkouts with perfbench, in alternating order.

    python3 tools/abab.py BASE CHANGE --workload ycsb-contended \\
        --seeds 3,7 --pairs 10 --seconds 50 [--trace 0|1] [--metric NAME ...]

BASE and CHANGE are two full checkouts (for example a `git clone` of the
parent commit and the working tree).  Pair i runs
`perfbench/run.py --workload W --seed S --seconds T --trace X` once in
each checkout, S cycling through --seeds; even pairs run BASE first, odd
pairs CHANGE first, so slow drift of the host hits both sides alike.

Both sides must print the same `digest-hash` for a seed (the simulated
history is a pure function of it); if they differ, or a run fails its
audit or prints no result, the script stops without reporting and exits
1.  Otherwise it prints, per metric, each side's median [Q1, Q3], the
change of the medians, a distribution-free 95 % confidence interval of
the median per-pair change (sign-test order statistics; it needs at
least 6 pairs), how many pairs CHANGE won and a verdict: `gain` when
CHANGE won at least nine tenths of all pairs (ties count for neither
side) and its median is better than BASE's by more than BASE's
interquartile range, `loss` for the same rule in the worse direction,
`none` otherwise.

The default metrics are BENCHMARK.json's end-to-end ones, with their
better direction.  --metric picks others: any name in perfbench's JSON
result (traced runs print the per-layer metrics there), or
`span:<name>` for a span's total seconds in the last traced round's span
table (`--trace 1`), e.g. `span:harness.setup`.  Named metrics outside
BENCHMARK.json count lower as better.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end():
    with open(os.path.join(HERE, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_once(checkout, args, seed):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, universal_newlines=True)
    lines = proc.stdout.splitlines()
    digest, result, spans = None, None, {}
    in_spans = False
    for line in lines:
        if line.startswith("digest-hash "):
            digest = line.split()[1]
        elif line.startswith("spans of the last traced round"):
            in_spans = True
        elif in_spans:
            f = line.split()
            if len(f) == 4 and f[0] != "name":
                spans["span:" + f[0]] = float(f[2])
            elif not line.startswith("  "):
                in_spans = False
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if result is None or digest is None or not result["correct"]:
        sys.exit("abab: %s seed %d: run failed (exit %d, correct=%s)"
                 % (checkout, seed, proc.returncode,
                    None if result is None else result["correct"]))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values.update(spans)
    return digest, values


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


def fmt(x):
    return "%.4g" % x


def sign_test_ci(xs, level=0.95):
    """Distribution-free confidence interval for the median of xs.

    With B ~ Binomial(n, 1/2), the order statistics x(k) and x(n+1-k)
    bound the median with probability 1 - 2 P(B <= k-1); k is the
    largest rank that keeps this at least `level`.  Returns
    (low, high, coverage), or None when even (min, max) covers less
    than `level` (n < 6 at 95 %)."""
    xs = sorted(xs)
    n = len(xs)
    tail = (1 - level) / 2
    k, below = 0, 0.0  # below = P(B <= k-1)
    while k < n // 2:
        step = below + math.comb(n, k) / 2.0 ** n
        if step > tail:
            break
        k, below = k + 1, step
    if k == 0:
        return None
    return xs[k - 1], xs[n - k], 1 - 2 * below


def pair_changes(base, change):
    """Per-pair relative change of CHANGE against BASE, in percent."""
    return [100.0 * (c - b) / b for b, c in zip(base, change) if b]


def fmt_ci(changes):
    ci = sign_test_ci(changes)
    if ci is None:
        return "n/a"
    return "[%+.1f %%, %+.1f %%]" % (ci[0], ci[1])


def verdict(base, change, direction):
    """`gain`, `loss` or `none` for one metric's paired samples.

    A side holds when it won at least nine tenths of all pairs (ties
    count for neither) and the medians differ in its favour by more
    than the distance between BASE's quartiles."""
    n = len(base)
    sign = -1 if direction == "lower" else 1
    won = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    lost = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    bm, bq1, bq3 = quartiles(base)
    delta = sign * (quartiles(change)[0] - bm)
    if 10 * won >= 9 * n and delta > bq3 - bq1:
        return "gain"
    if 10 * lost >= 9 * n and -delta > bq3 - bq1:
        return "loss"
    return "none"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="3,7",
                   help="comma-separated seeds, cycled over the pairs")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--metric", action="append", default=[],
                   help="metric to report instead of the end-to-end set")
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    better = dict(end_to_end())
    metrics = ([(m, better.get(m, "lower")) for m in args.metric]
               or end_to_end())
    sides = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    samples = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        digests = {}
        for side in order:
            digests[side], values = run_once(sides[side], args, seed)
            samples[side].append(values)
        if digests["base"] != digests["change"]:
            sys.exit("abab: pair %d seed %d: digest-hash differs (%s vs %s); "
                     "not a behaviour-preserving change, nothing reported"
                     % (i, seed, digests["base"], digests["change"]))
        sys.stderr.write("abab: pair %d/%d seed %d (%s first) digest %s\n"
                         % (i + 1, args.pairs, seed, order[0], digests["base"]))
    print("workload %s, %d pairs, seeds %s, %gs runs, --trace %d"
          % (args.workload, args.pairs, args.seeds, args.seconds, args.trace))
    print("| metric | base | change | change of median "
          "| 95 % CI of per-pair change | pairs won | verdict |")
    print("|---|---|---|---|---|---|---|")
    for name, direction in metrics:
        if any(name not in s for side in samples.values() for s in side):
            sys.exit("abab: metric %s missing from some run" % name)
        b = [s[name] for s in samples["base"]]
        c = [s[name] for s in samples["change"]]
        won = sum(1 for x, y in zip(b, c)
                  if (y < x if direction == "lower" else y > x))
        (bm, bq1, bq3), (cm, cq1, cq3) = quartiles(b), quartiles(c)
        rel = "%+.1f %%" % (100 * (cm - bm) / bm) if bm else "n/a"
        print("| `%s` | %s [%s, %s] | %s [%s, %s] | %s | %s | %d/%d | %s |"
              % (name, fmt(bm), fmt(bq1), fmt(bq3), fmt(cm), fmt(cq1),
                 fmt(cq3), rel, fmt_ci(pair_changes(b, c)), won, len(b),
                 verdict(b, c, direction)))


if __name__ == "__main__":
    main()
