"""Count the game engine's work per request kind on a seeded workload pool.

    python3 tools/engine_counts.py [--workload lin-int-d25] [--seed 5] [--instances N] [--src DIR]

Each instance of the workload's pool (benchmarks/workloads.py, the same
instances as `benchmarks/run.py --seed`) gets a bisection and a Newton
solve request and, when optimal, a certify request at its optimum, as the
benchmark sends them.  Every certified game solve (games.solve_arena) is
put under a kind: "witness" inside the start point's search and the
optimal point's game, whatever the request, and otherwise the request's
own kind (bisect, newton, certify).  Within a kind it is "warm" when it
starts from given strategies (another solve's row strategy and Min's
tight arcs) and "cold" when it starts from the value-iteration seed.  Per
kind and start the tool counts solves, one-player evaluations, gate
calls, value-iteration rounds (n_min per seed), and within the
evaluations the Dinkelbach steps of the cycle-ratio kernel
(matrix._min_ratio) from a candidate cycle to a lower one, the exact
negative-cycle searches among them (a greedy step that found no lower
cycle) and the evaluations with several gain levels (a nonzero rank in
_one_player_min's rank array).  Apart from the kinds, "start_points"
counts how each start point search (pseudolinear._descent_witness) was
decided: by the descent's point, by its binding-row certificate of
infeasibility (a passing pseudolinear._tau_passes), by a game, or by a
row whose finite left side faces an empty right side.  Per class it
counts the searches, their descent sweeps (the calls of the descent's
watch), their certificate checks (_tau_passes calls) and the checks that
passed.  --src names a checkout's src/ directory (default: this
checkout's); a counter whose function that checkout lacks reads null.
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from workloads import WORKLOADS, certify_request, solve_request  # noqa: E402


def _one(out, *args):
    return 1


def _levels(out, *args):
    """Whether an evaluation has several gain levels: a nonzero rank in
    its rank array, or, from a checkout whose evaluation returns none,
    several distinct gains."""
    if len(out) > 4:
        return bool(out[4].any())
    return len(set(zip(out[0].tolist(), out[1].tolist()))) > 1


# counter -> (the module whose binding of a function is counted, the
# function, the amount a call adds from its result and arguments)
COUNTED = {
    "evaluations": ("games", "_evaluate", _one),
    "gates": ("games", "_gate", _one),
    "vi_rounds": ("games", "_seed_sigma", lambda out, arena: arena.n_min),
    "dinkelbach_steps": ("games", "_min_ratio", lambda out, *args: out[4]),
    "negative_cycles": ("matrix", "_negative_cycle", _one),
    "several_levels": ("games", "_one_player_min", _levels),
}
COUNTS = ("solves", *COUNTED)
START_POINTS = ("descent_point", "descent_certificate", "game", "row_infeasible")
START_COUNTS = ("searches", "sweeps", "checks", "passed")


def load(src):
    """The tropopt modules of one import from src."""
    for name in [m for m in sys.modules if m == "tropopt" or m.startswith("tropopt.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        names = ("io", "pseudolinear", "pseudoquadratic", "games", "matrix", "random_instances", "semiring")
        mods = {m: importlib.import_module(f"tropopt.{m}") for m in names}
    finally:
        sys.path.remove(str(src))
    return SimpleNamespace(
        modules=mods, io=mods["io"], pl=mods["pseudolinear"], pq=mods["pseudoquadratic"],
        games=mods["games"], _fin=mods["semiring"].fin,
    )


class Counter:
    """Rebinds the engine's entry points in prog's modules to count into
    table[kind][start]; `kind` is the request kind in force."""

    def __init__(self, prog):
        self.prog = prog
        self.kind = None
        self.solve = None  # the counts of the solve running now
        self.table = {}
        self.missing = set()
        # solves, descent sweeps, certificate checks and passing ones so far
        self.games = self.sweeps = self.checks = self.proofs = 0
        self.start_points = {how: dict.fromkeys(START_COUNTS, 0) for how in START_POINTS}

    def _within(self, kind, fn):
        def wrapped(*args, **kw):
            outer, self.kind = self.kind, kind
            try:
                return fn(*args, **kw)
            finally:
                self.kind = outer
        return wrapped

    def _counting(self, name, fn, amount):
        def wrapped(*args):
            out = fn(*args)
            if self.solve is not None:
                self.solve[name] += int(amount(out, *args))
            return out
        return wrapped

    def install(self):
        g, pl = self.prog.games, self.prog.pl
        solve_arena = g.solve_arena

        def counted_solve(arena, warm=None):
            start = "cold" if warm is None else "warm"
            row = self.table.setdefault(self.kind, {}).setdefault(start, dict.fromkeys(COUNTS, 0))
            outer, self.solve = self.solve, row
            row["solves"] += 1
            self.games += 1
            try:
                return solve_arena(arena, warm)
            finally:
                self.solve = outer

        g.solve_arena = pl.solve_arena = counted_solve
        for name, (mod, fn, amount) in COUNTED.items():
            m = self.prog.modules[mod]
            if hasattr(m, fn):
                setattr(m, fn, self._counting(name, getattr(m, fn), amount))
            else:
                self.missing.add(name)
        tau_passes, descent_witness, descend = pl._tau_passes, pl._descent_witness, pl._descend_scaled

        def counted_passes(*args):
            passed = tau_passes(*args)
            self.checks += 1
            self.proofs += passed
            return passed

        def counted_descend(*args):
            watch = args[6]  # the start point passes its watch as the seventh argument

            def counted_watch(*state):
                self.sweeps += 1
                return watch(*state)

            return descend(*args[:6], counted_watch, *args[7:])

        def decided(rec):
            games, before = self.games, (self.sweeps, self.checks, self.proofs)
            out = descent_witness(rec)
            after = (self.sweeps, self.checks, self.proofs)
            how = ("game" if self.games > games else "descent_certificate" if after[2] > before[2]
                   else "row_infeasible" if out is None else "descent_point")
            row = self.start_points[how]
            row["searches"] += 1
            for name, was, now in zip(START_COUNTS[1:], before, after):
                row[name] += now - was
            return out

        pl._tau_passes = counted_passes
        pl._descend_scaled = counted_descend
        pl._descent_witness = self._within("witness", decided)
        pl._optimal_witness = self._within("witness", pl._optimal_witness)

    def run(self, kind, fn, *args):
        return self._within(kind, fn)(*args)


def count(prog, workload, seed, instances):
    wl = WORKLOADS[workload]
    n = wl.pool if instances is None else instances
    texts = [prog.io.dump_problem(wl.make(prog, seed * 1000003 + i)) for i in range(n)]
    counter = Counter(prog)
    counter.install()
    requests = dict.fromkeys(("bisect", "newton", "certify"), 0)
    for text in texts:
        _, out = counter.run("bisect", solve_request, prog, text, "bisect", wl.mode)
        counter.run("newton", solve_request, prog, text, "newton", wl.mode)
        requests["bisect"] += 1
        requests["newton"] += 1
        if out.status == "optimal":
            counter.run("certify", certify_request, prog, text, out.lam.value)
            requests["certify"] += 1
    kinds = {}
    for kind, starts in sorted(counter.table.items()):
        kinds[kind] = {}
        for start, row in sorted(starts.items()):
            per = round(row["evaluations"] / row["solves"], 3) if row["solves"] else None
            row.update(dict.fromkeys(counter.missing))
            kinds[kind][start] = {**row, "evaluations_per_solve": per}
    return {
        "workload": workload, "seed": seed, "instances": n, "requests": requests, "kinds": kinds,
        "start_points": counter.start_points,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="lin-int-d25", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--instances", type=int, default=None, help="default: the whole pool")
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args(argv)
    out = count(load(args.src), args.workload, args.seed, args.instances)
    print(json.dumps({"src": args.src, **out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
