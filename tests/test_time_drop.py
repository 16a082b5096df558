"""tools/time_drop.py, the side-by-side timing of Newton's drop step, on
two imports of this checkout and the first 8 instances of each linear
pool: it replays every recorded drop, the sides answer alike, and it
exits 0."""

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "time_drop.py"


def test_two_imports_of_one_checkout_agree_on_every_drop(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("time_drop", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name in tool.POOLS:
        monkeypatch.setitem(tool.WORKLOADS, name, replace(tool.WORKLOADS[name], pool=8))
    # each side is a fresh import of the package; later tests get this one back
    for name, mod in list(sys.modules.items()):
        if name == "tropopt" or name.startswith("tropopt."):
            monkeypatch.setitem(sys.modules, name, mod)
    src = str(_TOOL.parent.parent / "src")
    assert tool.main(["--src", src, "--src", src, "--passes", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["workloads"]) == set(tool.POOLS)
    for name, row in doc["workloads"].items():
        assert row["drops"] > 0 and row["us_per_drop"][src] > 0
        assert doc["drops_differing"][name] == {src: 0}
