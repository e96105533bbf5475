import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timed_passes_read_from_the_items_per_s_line():
    lines = [
        "# workload=scatter seed=4 seconds=20 trace=0",
        "# items_per_s                                1720.5 items/s  "
        "32000 items in 160 units, 4 pass(es); raw wall clock 1698 items/s",
        "# peak_rss_mb                                 43.1 MB       this process, before the seed pass",
        '{"correct": true}',
    ]
    assert _load_tool().timed_passes(lines) == 4


def test_a_traced_run_has_no_pass_count():
    lines = ["# trace.items_per_s                          900.1 items/s", '{"correct": true}']
    assert _load_tool().timed_passes(lines) is None
