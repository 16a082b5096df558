"""tools/dump_answers.py, the byte-for-byte answer dump that compares two
checkouts, on one instance of every family.

Two runs must write identical files, every instance must have all of its
request lines, no request may fail with a bare OverflowError (data past
the integer engine gets a typed refusal), and in every family the two
solvers must agree on status and level: since real mode bisects Newton's
grid, that holds in real mode too.
"""

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "dump_answers.py"
_REQUIRED = ("bounds", "bisect", "newton", "phi", "tau", "sigma")


def _tool():
    spec = importlib.util.spec_from_file_location("dump_answers", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _status_lam(ans):
    """(status, lambda) of a solver answer; a failure is its own answer."""
    if ans.startswith("!"):
        return ans
    doc = json.loads(ans)
    return doc["status"], doc["lambda"]


def test_dump_is_deterministic_and_solvers_agree(tmp_path):
    tool = _tool()
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in paths:
        assert tool.main(["--out", str(path), "--count", "1"]) == 0
    text = paths[0].read_bytes()
    assert text == paths[1].read_bytes()
    answers = {}
    for line in text.decode().splitlines():
        family, i, req, ans = line.split(" ", 3)
        assert not ans.startswith("!OverflowError"), line
        answers.setdefault((family, i), {})[req] = ans
    assert {family for family, _ in answers} == set(tool.FAMILIES)
    for key, reqs in answers.items():
        assert set(_REQUIRED) <= set(reqs), key
        assert _status_lam(reqs["bisect"]) == _status_lam(reqs["newton"]), key
