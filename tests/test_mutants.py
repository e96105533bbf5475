import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_to_exactly_one_place():
    # the probe run itself is too slow for this suite; this keeps its list
    # from rotting as the source changes
    tool = _load_tool()
    assert tool.unapplicable() == {}
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS)


def test_a_missing_old_text_is_reported(tmp_path):
    tool = _load_tool()
    (tmp_path / "src" / "cmirecon").mkdir(parents=True)
    problems = tool.unapplicable(tmp_path)
    assert set(problems) == {m.name for m in tool.MUTANTS}
    assert "0 time(s)" in problems["strict-tol"]
