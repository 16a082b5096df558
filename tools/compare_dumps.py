"""Compare two answer dumps of tools/dump_answers.py.

    python3 tools/compare_dumps.py parent.txt change.txt
    python3 tools/compare_dumps.py parent.txt change.txt -v

Prints the number of changed lines per (family, request), and with -v the
changed lines themselves.  Exits 1 when an answer's verdict differs, 0
otherwise.  The verdict is what two correct solvers must agree on, while
the rest of a line may legitimately change with the optimal strategy the
game engine picks among ties:

- a failure (`!Type: message`): the whole line;
- `bisect`, `newton`: the status and the level lambda (not x, the
  iteration count or the trace);
- `bounds`: the lower and upper bound (not the start point);
- `tau`, `sigma`: only that a certificate was given;
- every other request (`phi`, `certify_*`): the whole answer.

A line present in one file only is a verdict difference.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from collections import Counter


def read_dump(path):
    """{(family, instance, request): answer} of one dump file."""
    out = {}
    with open(path) as fh:
        for line in fh:
            family, i, req, ans = line.rstrip("\n").split(" ", 3)
            out[family, i, req] = ans
    return out


def verdict(req, ans):
    """The part of an answer that must not change; see the module doc."""
    if ans.startswith("!"):
        return ans
    if req in ("bisect", "newton"):
        doc = json.loads(ans)
        return doc["status"], doc["lambda"]
    if req == "bounds":
        return ast.literal_eval(ans)[:2]
    if req in ("tau", "sigma"):
        return "certificate"
    return ans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="the reference dump")
    ap.add_argument("b", help="the dump to compare with it")
    ap.add_argument("-v", "--verbose", action="store_true", help="print every changed line")
    args = ap.parse_args(argv)
    a, b = read_dump(args.a), read_dump(args.b)
    changed, bad = Counter(), 0
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        family, i, req = key
        changed[family, req] += 1
        differs = x is None or y is None or verdict(req, x) != verdict(req, y)
        bad += differs
        if args.verbose:
            mark = "VERDICT " if differs else ""
            print(f"{mark}- {family} {i} {req} {x}")
            print(f"{mark}+ {family} {i} {req} {y}")
    for (family, req), k in sorted(changed.items()):
        print(f"{family} {req}: {k} changed")
    total = len(a.keys() | b.keys())
    print(f"{sum(changed.values())} of {total} lines changed, {bad} verdict differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
