import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"


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


def test_every_catcher_is_a_test_of_the_suite():
    # a catcher that is renamed away would hand its mutant to the full suite
    # on every probe run
    catchers = {m.catcher for m in _load_tool().MUTANTS}
    assert all(c.startswith("tests/") and "test_mutants.py" not in c for c in catchers)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *sorted(catchers)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert catchers <= set(out.stdout.splitlines())
