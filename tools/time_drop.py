"""Time Newton's drop step, _reduce plus _alcoved, on recorded drops.

    python3 tools/time_drop.py [--src DIR ...] [--passes 9] [--seed 7] [--gen n,W,density,seed]

The drops are those of Newton solves on the seeded pools of the linear
benchmark workloads lin-int-d25 and lin-dec-d20 (benchmarks/workloads.py),
and with --gen of one more instance, gen_random(n, n, W, density, seed).
The first side solves every instance once and records, per drop, the row
strategy it passes to _reduce.  Each side then replays every drop from its
own compiled record of the same text: _reduce of that strategy, then
_alcoved.  Each --src is a checkout's src/ directory (default: this
checkout's); the sides are imported side by side and their passes
interleaved, so a change in machine speed falls on all of them alike.
Times are the median over the passes of the mean per drop, in us scaled
to the benchmark's reference speed (benchmarks/calibrate.py).

Every side's answer on every drop, theta and x or the exception's type
and message, is compared with the first side's.  Prints one JSON object,
with the number of differing drops per workload and side, and exits 1
when any drop differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "tools"))

from calibrate import Clock  # noqa: E402
from time_parse import load  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

POOLS = ("lin-int-d25", "lin-dec-d20")


def record(side, texts, mode):
    """Per text, the row strategies of its Newton drops on this side."""
    pl, reduce = side.pl, side.pl._reduce
    drops = []

    def spy(U, V, b, d, sigma, big):
        drops[-1].append(sigma)
        return reduce(U, V, b, d, sigma, big)

    pl._reduce = spy
    try:
        for text in texts:
            drops.append([])
            pl.newton_solve(side.io.parse_problem(text), mode=mode)
    finally:
        pl._reduce = reduce
    return drops


def cases(side, texts, drops):
    """The drops' inputs from this side's compiled records of the texts."""
    out = []
    for text, sigmas in zip(texts, drops):
        U, V, b, d, p, q, _, big = side.pl._compiled(side.io.parse_problem(text)).drop
        out += [(U, V, b, d, sigma, p, q, big) for sigma in sigmas]
    return out


def drop(pl, case):
    """One drop's answer: (theta, x) or the exception's (type, message)."""
    U, V, b, d, sigma, p, q, big = case
    try:
        R, l, u = pl._reduce(U, V, b, d, sigma, big)
        return pl._alcoved(R, l, u, p, q, big)
    except (pl.InfeasibleReduction, pl.EngineError) as e:
        return type(e).__name__, str(e)


def answer_key(ans):
    theta, x = ans
    return theta, None if x is None or isinstance(x, str) else [int(v) for v in x]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", default=None)
    ap.add_argument("--passes", type=int, default=9)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--gen", default=None, help="n,W,density,seed of one more instance")
    args = ap.parse_args(argv)
    srcs = args.src or [str(ROOT / "src")]
    sides = [load(s) for s in srcs]
    first = sides[0]
    pools = {}
    for name in POOLS:
        wl = WORKLOADS[name]
        seeds = [args.seed * 1000003 + i for i in range(wl.pool)]
        pools[name] = (wl.mode, [first.io.dump_problem(wl.make(first, s)) for s in seeds])
    if args.gen:
        n, W, density, seed = (int(v) for v in args.gen.split(","))
        gen = first.modules["random_instances"].gen_random(n, n, W, density, seed)
        pools[f"gen {args.gen}"] = ("integer", [first.io.dump_problem(gen)])
    clock = Clock()
    out, differ = {}, {}
    for name, (mode, texts) in pools.items():
        drops = record(first, texts, mode)
        inputs = [cases(side, texts, drops) for side in sides]
        keys = [[answer_key(drop(side.pl, c)) for c in cs] for side, cs in zip(sides, inputs)]
        differ[name] = {src: sum(a != b for a, b in zip(k, keys[0])) for src, k in zip(srcs[1:], keys[1:])}
        samples = [[] for _ in sides]
        for _ in range(args.passes):
            for side, cs, acc in zip(sides, inputs, samples):
                pl = side.pl
                t0 = perf_counter()
                for c in cs:
                    drop(pl, c)
                acc.append((perf_counter() - t0) * 1e6 * clock.factor() / max(len(cs), 1))
        out[name] = {
            "drops": len(inputs[0]),
            "us_per_drop": {src: round(statistics.median(acc), 2) for src, acc in zip(srcs, samples)},
        }
    doc = {"unit": "scaled us per drop", "passes": args.passes, "seed": args.seed}
    print(json.dumps({**doc, "workloads": out, "drops_differing": differ}))
    return 1 if any(n for d in differ.values() for n in d.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
