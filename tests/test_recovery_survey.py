import importlib.util
import json
from pathlib import Path

from cmirecon import recovery

TOOL = Path(__file__).resolve().parents[1] / "tools" / "recovery_survey.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("recovery_survey", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_group_prints_one_summary_line(capsys):
    args = "--dims 2,2,2 --ranks pure --objectives fidelity --keys 11 --count 2"
    _load_tool().main(args.split())
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    group = json.loads(lines[0])
    assert (group["dims"], group["rank"], group["objective"]) == ([2, 2, 2], "pure", "fidelity")
    assert group["n"] == group["certified"] == 2
    assert group["evaluations"] >= 2
    assert 0.0 <= group["max_dual_gap"] < recovery.DUAL_GAP_TOL
    assert group["seconds"] >= 0.0
