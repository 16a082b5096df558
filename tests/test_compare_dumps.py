"""tools/compare_dumps.py on small hand-written dumps: identical files, a
change in the optimal point only, and a change of level."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_dumps.py"

_LINES = [
    'lin-int 0 bounds [-3, "5/2", ["0", "-1"]]',
    'lin-int 0 bisect {"iterations":4,"lambda":"5/2","status":"optimal","x":["0","-1"]}',
    'lin-int 0 newton {"iterations":2,"lambda":"5/2","status":"optimal","x":["0","-1"]}',
    "lin-int 0 phi 0",
    "lin-int 0 tau [0, 1, 1]",
    "lin-int 0 certify_optimal True",
    "lin-int 0 sigma !ValueError: problem is bounded",
    "quad-int 0 newton !EngineError: weights too large for the integer engine",
]


def _tool():
    spec = importlib.util.spec_from_file_location("compare_dumps", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _compare(tmp_path, capsys, edits, *flags):
    """Exit code and stdout of comparing _LINES with an edited copy."""
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("\n".join(_LINES) + "\n")
    lines = list(_LINES)
    for k, line in edits.items():
        lines[k] = line
    b.write_text("\n".join(lines) + "\n")
    code = _tool().main([str(a), str(b), *flags])
    return code, capsys.readouterr().out


def test_identical_dumps(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys, {})
    assert code == 0
    assert out == "0 of 8 lines changed, 0 verdict differences\n"


def test_point_and_certificate_changes_keep_the_verdict(tmp_path, capsys):
    edits = {
        1: 'lin-int 0 bisect {"iterations":4,"lambda":"5/2","status":"optimal","x":["1","0"]}',
        2: 'lin-int 0 newton {"iterations":3,"lambda":"5/2","status":"optimal","x":["0","-1"]}',
        0: 'lin-int 0 bounds [-3, "5/2", ["1", "0"]]',
        4: "lin-int 0 tau [1, 1, 1]",
    }
    code, out = _compare(tmp_path, capsys, edits, "-v")
    assert code == 0
    assert "VERDICT" not in out
    assert "- lin-int 0 tau [0, 1, 1]\n+ lin-int 0 tau [1, 1, 1]\n" in out
    for req in ("bisect", "newton", "bounds", "tau"):
        assert f"lin-int {req}: 1 changed\n" in out
    assert out.endswith("4 of 8 lines changed, 0 verdict differences\n")


def test_level_status_and_verdict_changes_fail(tmp_path, capsys):
    changes = [
        {2: 'lin-int 0 newton {"iterations":2,"lambda":"3","status":"optimal","x":["0","-1"]}'},
        {1: 'lin-int 0 bisect {"iterations":4,"lambda":null,"status":"infeasible","x":null}'},
        {0: 'lin-int 0 bounds [-3, "3", ["0", "-1"]]'},
        {3: "lin-int 0 phi -1/2"},
        {5: "lin-int 0 certify_optimal False"},
        {6: "lin-int 0 sigma [0, 1]"},
        {7: "quad-int 0 newton !EngineError: probe level too fine for the integer engine"},
    ]
    for edits in changes:
        code, out = _compare(tmp_path, capsys, edits, "-v")
        assert code == 1, edits
        assert out.count("VERDICT") == 2
        assert out.endswith("1 of 8 lines changed, 1 verdict differences\n")


def test_a_missing_line_is_a_verdict_difference(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("\n".join(_LINES) + "\n")
    b.write_text("\n".join(_LINES[:-1]) + "\n")
    assert _tool().main([str(a), str(b)]) == 1
    assert "quad-int newton: 1 changed" in capsys.readouterr().out
