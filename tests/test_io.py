"""JSON codecs and the command line: round-trips, error classes, exit codes."""

import json
import random
from fractions import Fraction

import pytest

from tropopt import (
    NEG_INF,
    POS_INF,
    BadRational,
    DimensionMismatch,
    IllegalInfinity,
    MalformedJson,
    PseudolinearProblem,
    PseudoquadraticProblem,
    bisection_solve,
    bisection_solve_quad,
    dump_problem,
    fin,
    format_outcome,
    gen_random,
    newton_solve_quad,
    parse_level,
    parse_problem,
    scalar_from_json,
    scalar_to_json,
)
from tropopt.cli import main as cli_main

from _util import golden_linear, quadprob

F = Fraction


def test_scalar_codec():
    assert scalar_from_json(3) == fin(3)
    assert scalar_from_json(-12) == fin(-12)
    assert scalar_from_json("7/2") == fin(F(7, 2))
    assert scalar_from_json("-9/4") == fin(F(-9, 4))
    assert scalar_from_json("-inf") == NEG_INF
    assert scalar_from_json("+inf") == POS_INF
    assert scalar_to_json(fin(3)) == 3
    assert scalar_to_json(fin(F(7, 2))) == "7/2"
    assert scalar_to_json(fin(F(4, 2))) == 2  # normalized to an integer
    assert scalar_to_json(NEG_INF) == "-inf"
    assert scalar_to_json(POS_INF) == "+inf"


def test_scalar_codec_rejects():
    for bad in (True, False, 1.5, None, "inf", "1.5", "3/0", "1/-2", "a/b", "", [1], "1/2\n"):
        with pytest.raises(BadRational):
            scalar_from_json(bad)
    with pytest.raises(BadRational, match=r"^bad scalar '1/2\\n'$"):
        parse_problem(dump_problem(golden_linear()).replace('"q":[-1', '"q":["1/2\\n"'))


def test_scalar_roundtrip_random():
    rng = random.Random(77)
    for _ in range(300):
        if rng.random() < 0.2:
            v = rng.choice([NEG_INF, POS_INF])
        else:
            v = fin(F(rng.randint(-99, 99), rng.randint(1, 12)))
        assert scalar_from_json(scalar_to_json(v)) == v


def test_parse_level():
    assert parse_level("3") == F(3)
    assert parse_level("-2") == F(-2)
    assert parse_level("9/4") == F(9, 4)
    assert parse_level(" -7/2 ") == F(-7, 2)
    for bad in ("1.5", "-inf", "+inf", "x", "1/0"):
        with pytest.raises(BadRational):
            parse_level(bad)


def test_problem_roundtrip_golden():
    prob = golden_linear()
    doc = dump_problem(prob)
    again = parse_problem(doc)
    assert isinstance(again, PseudolinearProblem)
    assert dump_problem(again) == doc
    assert again.U == prob.U and again.q == prob.q


def test_problem_roundtrip_quadratic_random():
    for t in range(25):
        prob = gen_random(3, 2, 9, 70, seed=t, quadratic=True)
        doc = dump_problem(prob)
        again = parse_problem(doc)
        assert isinstance(again, PseudoquadraticProblem)
        assert dump_problem(again) == doc
        assert again.C == prob.C


def test_parse_problem_errors():
    good = json.loads(dump_problem(golden_linear()))

    def mutated(**kw):
        doc = dict(good)
        doc.update(kw)
        return json.dumps(doc)

    with pytest.raises(MalformedJson):
        parse_problem("not json {")
    with pytest.raises(MalformedJson):
        parse_problem("[1,2]")
    with pytest.raises(MalformedJson):
        parse_problem(mutated(type="cubic"))
    with pytest.raises(MalformedJson):
        parse_problem(json.dumps({k: v for k, v in good.items() if k != "q"}))
    with pytest.raises(MalformedJson):
        parse_problem(mutated(extra=[]))
    with pytest.raises(MalformedJson):
        parse_problem(mutated(U="nope"))
    with pytest.raises(DimensionMismatch):
        parse_problem(mutated(U=[[0, 1], [2]]))
    with pytest.raises(DimensionMismatch):
        parse_problem(mutated(U=[]))
    with pytest.raises(DimensionMismatch):
        parse_problem(mutated(V=[[0]]))
    with pytest.raises(DimensionMismatch):
        parse_problem(mutated(b=[0, 0, 0]))
    with pytest.raises(BadRational):
        parse_problem(mutated(b=[0.5, 0]))
    with pytest.raises(BadRational):
        parse_problem(mutated(b=[True, 0]))
    with pytest.raises(IllegalInfinity):
        parse_problem(mutated(U=[["+inf", 0], [0, 0]]))
    with pytest.raises(IllegalInfinity):
        parse_problem(mutated(p=["+inf", 0]))
    with pytest.raises(IllegalInfinity):
        parse_problem(mutated(q=["-inf", 0]))
    # C only belongs to quadratic documents
    with pytest.raises(MalformedJson):
        parse_problem(mutated(C=[[0, 0], [0, 0]]))


def test_format_outcome_shapes():
    prob = golden_linear()
    out = bisection_solve(prob)
    doc = json.loads(format_outcome(out))
    assert doc == {"status": "optimal", "lambda": 1, "x": [-1, 1], "iterations": 4}
    with_trace = json.loads(format_outcome(out, include_trace=True))
    assert with_trace["trace"][0] == ["1/2", "-1/3"]
    assert with_trace["trace"][-1] == ["3/4", "-1/6"]


# ---------------------------------------------------------------------------
# command line


def _write(tmp_path, prob, name="prob.json"):
    f = tmp_path / name
    f.write_text(dump_problem(prob) + "\n")
    return str(f)


def test_cli_solve_optimal(tmp_path, capsys):
    path = _write(tmp_path, golden_linear())
    code = cli_main(["solve", path])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["status"] == "optimal" and doc["lambda"] == 1
    assert doc["x"] == [-1, 1] and doc["iterations"] == 4
    assert "trace" not in doc
    code = cli_main(["solve", path, "--method", "newton", "--trace"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["iterations"] == 3
    assert [pair[0] for pair in doc["trace"]] == [8, 2, 1]


def test_cli_solve_pseudoquadratic(tmp_path, capsys):
    """solve on a pseudoquadratic file: both methods print what the quad
    solvers return, at the optimum whose bound needs the coupling terms
    (the linear objective at the start point is 14)."""
    prob = gen_random(5, 5, 20, 100, 4, True)
    path = _write(tmp_path, prob)
    for method, solve in (("bisection", bisection_solve_quad), ("newton", newton_solve_quad)):
        assert cli_main(["solve", path, "--method", method, "--trace"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == format_outcome(solve(prob), include_trace=True)
        assert json.loads(out)["lambda"] == 19


def test_cli_solve_exit_codes(tmp_path, capsys):
    from _util import linprob

    infeasible = linprob([[0]], [[None]], [0], [None], [0], [0])
    unbounded = linprob([[0]], [[0]], [None], [None], [None], [0])
    assert cli_main(["solve", _write(tmp_path, infeasible, "i.json")]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"
    assert cli_main(["solve", _write(tmp_path, unbounded, "u.json")]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unbounded" and doc["lambda"] == "-inf"


def test_cli_solve_real_mode(tmp_path, capsys):
    path = _write(tmp_path, golden_linear())
    code = cli_main(["solve", path, "--mode", "real", "--tol", "1/64"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    lam = F(doc["lambda"]) if isinstance(doc["lambda"], str) else F(doc["lambda"])
    assert F(1) <= lam <= F(1) + F(1, 64)


def test_cli_phi(tmp_path, capsys):
    path = _write(tmp_path, golden_linear())
    assert cli_main(["phi", path, "--lambda", "3/4"]) == 0
    assert capsys.readouterr().out.strip() == "-1/6"
    assert cli_main(["phi", path, "--lambda", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2/3"
    assert cli_main(["phi", path, "--lambda", "17/4"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_phi_row_infeasible(tmp_path, capsys):
    from _util import linprob

    dead = linprob([[0]], [[None]], [0], [None], [0], [0])
    path = _write(tmp_path, dead, "dead.json")
    assert cli_main(["phi", path, "--lambda", "0"]) == 0
    assert capsys.readouterr().out.strip() == "-inf"


def test_cli_certify(tmp_path, capsys):
    from _util import linprob

    path = _write(tmp_path, golden_linear())
    assert cli_main(["certify", path, "--lambda", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"lambda": 1, "optimal": True, "unbounded": False}
    assert cli_main(["certify", path, "--lambda", "3/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimal"] is False and doc["unbounded"] is False
    unbounded = linprob([[0]], [[0]], [None], [None], [None], [0])
    upath = _write(tmp_path, unbounded, "u.json")
    assert cli_main(["certify", upath, "--lambda", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimal"] is False and doc["unbounded"] is True


def test_cli_gen_deterministic_and_parseable(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["gen", "--n", "3", "--m", "2", "--range", "7", "--density", "80",
            "--seed", "5", "--out"]
    assert cli_main(args + [str(out1)]) == 0
    assert cli_main(args + [str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    prob = parse_problem(out1.read_text())
    assert prob.shape == (2, 3)
    qargs = ["gen", "--n", "2", "--m", "2", "--quadratic", "--out", str(out1)]
    assert cli_main(qargs) == 0
    assert isinstance(parse_problem(out1.read_text()), PseudoquadraticProblem)


def test_cli_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = cli_main(
        ["bench", "--dims", "2:3", "--trials", "4", "--range", "5",
         "--density", "90", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "dim,feasible,lb_optimal_frac,bisect_iters_mean,newton_iters_mean,ms_mean"
    assert len(lines) == 3
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[0] in ("2", "3")
        assert int(cells[1]) <= 4


def test_cli_error_exit(tmp_path, capsys):
    assert cli_main(["solve", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli_main(["solve", str(bad)]) == 1
    capsys.readouterr()
    path = _write(tmp_path, golden_linear())
    assert cli_main(["phi", path, "--lambda", "0.5"]) == 1
    capsys.readouterr()
