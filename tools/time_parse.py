"""Time the data path of a request outside the solver, per instance.

    python3 tools/time_parse.py [--src DIR ...] [--passes 11] [--seed 5]

For each benchmark workload (benchmarks/workloads.py), on its seeded pool:
json.loads alone, parse_problem plus the compiled record, gen_random (or
the workload's own instance maker) and dump_problem.  Each --src is a
checkout's src/ directory (default: this checkout's); the sides are
imported side by side and their passes interleaved, so a change in
machine speed falls on all of them alike.  Times are the median over the
passes of the mean per instance, in ms scaled to the benchmark's
reference speed (benchmarks/calibrate.py).

With two or more sides, every pool text is also parsed by each side and
its compiled record compared with the first side's: L, WL, each field's
arrays with their dtypes, and core.  Prints one JSON object, with the
number of differing records per workload and side, and exits 1 when
any record differs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from calibrate import Clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load(src):
    """The tropopt modules of one import from src, kept apart from any
    other import of the package."""
    for name in [m for m in sys.modules if m == "tropopt" or m.startswith("tropopt.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        names = ("io", "pseudolinear", "random_instances", "matrix", "semiring")
        mods = {m: importlib.import_module(f"tropopt.{m}") for m in names}
    finally:
        sys.path.remove(str(src))
    # the attributes benchmarks/workloads.py's instance makers read
    fin = mods["semiring"].fin
    return SimpleNamespace(modules=mods, io=mods["io"], pl=mods["pseudolinear"], _fin=fin)


def record_key(rec):
    """What two sides' records of one text must agree on, dtypes included."""
    arrays = [a for name in rec.data for a in rec.data[name]] + list(rec.core)
    return rec.L, rec.WL, list(rec.data), [(a.dtype.str, a.shape, a.tolist()) for a in arrays]


def timed(clock, fn, items):
    t0 = perf_counter()
    for it in items:
        fn(it)
    return (perf_counter() - t0) * 1000.0 * clock.factor() / len(items)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", default=None)
    ap.add_argument("--passes", type=int, default=11)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args(argv)
    srcs = args.src or [str(ROOT / "src")]
    sides = [load(s) for s in srcs]
    clock = Clock()
    out, differ = {}, {}
    for name, wl in WORKLOADS.items():
        seeds = [args.seed * 1000003 + i for i in range(wl.pool)]
        texts = [side.io.dump_problem(wl.make(side, seeds[0])) for side in sides]
        if len(set(texts)) != 1:
            raise SystemExit(f"{name}: the sides generate different instances")
        texts = [sides[0].io.dump_problem(wl.make(sides[0], s)) for s in seeds]
        keys = [[record_key(side.pl._compiled(side.io.parse_problem(t))) for t in texts] for side in sides]
        differ[name] = {src: sum(a != b for a, b in zip(k, keys[0])) for src, k in zip(srcs[1:], keys[1:])}
        samples = [{k: [] for k in ("json_loads", "parse_compile", "make", "dump")} for _ in sides]
        for _ in range(args.passes):
            for side, acc in zip(sides, samples):
                parse, compiled = side.io.parse_problem, side.pl._compiled
                probs = [wl.make(side, s) for s in seeds]
                acc["json_loads"].append(timed(clock, json.loads, texts))
                acc["parse_compile"].append(timed(clock, lambda t: compiled(parse(t)), texts))
                acc["make"].append(timed(clock, lambda s: wl.make(side, s), seeds))
                acc["dump"].append(timed(clock, side.io.dump_problem, probs))
        out[name] = {
            src: {k: round(statistics.median(v), 4) for k, v in acc.items()}
            for src, acc in zip(srcs, samples)
        }
    doc = {"unit": "scaled ms per instance", "passes": args.passes, "seed": args.seed}
    print(json.dumps({**doc, "workloads": out, "records_differing": differ}))
    return 1 if any(n for d in differ.values() for n in d.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
