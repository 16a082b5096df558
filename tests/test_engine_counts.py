"""tools/engine_counts.py on a few instances of each workload, in its own
process: the counts add up, and the starts are the ones the solvers
choose (bisection warm after its first probe, Newton always cold).
Within the evaluations, the exact negative-cycle searches are a part of
the Dinkelbach steps, and warm bisection probes take some steps.  Each
solve request searches a start point once; a search that the descent's
certificate decided passed exactly one check, and no other search passed
any, nor asked more than two (at sweep n + 1 and at the cap)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "engine_counts.py"


@pytest.mark.parametrize("workload", ["lin-int-d25", "quad-int-d10", "lin-dec-d20"])
def test_engine_counts_smoke(workload):
    run = subprocess.run(
        [sys.executable, str(_TOOL), "--workload", workload, "--seed", "5", "--instances", "4"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["workload"] == workload and out["instances"] == 4
    assert out["requests"]["bisect"] == out["requests"]["newton"] == 4
    kinds = out["kinds"]
    assert kinds["bisect"]["warm"]["dinkelbach_steps"] > 0
    assert set(kinds) <= {"bisect", "newton", "certify", "witness"}
    assert "newton" in kinds and set(kinds["newton"]) == {"cold"}
    assert "warm" in kinds["bisect"]
    for starts in kinds.values():
        for start, row in starts.items():
            assert row["solves"] >= 1
            assert row["gates"] >= row["solves"]
            assert row["evaluations"] >= row["gates"]
            assert row["evaluations_per_solve"] == round(row["evaluations"] / row["solves"], 3)
            assert (row["vi_rounds"] > 0) == (start == "cold")
            assert 0 <= row["negative_cycles"] <= row["dinkelbach_steps"]
            assert 0 <= row["several_levels"] <= row["evaluations"]
    points = out["start_points"]
    assert set(points) == {"descent_point", "descent_certificate", "game", "row_infeasible"}
    assert sum(row["searches"] for row in points.values()) == 8
    for how, row in points.items():
        assert set(row) == {"searches", "sweeps", "checks", "passed"}
        assert row["passed"] == (row["searches"] if how == "descent_certificate" else 0)
        assert row["passed"] <= row["checks"] <= 2 * row["searches"]
        assert row["sweeps"] <= 64 * row["searches"]
        assert (row["sweeps"] >= row["searches"]) or how == "row_infeasible"
