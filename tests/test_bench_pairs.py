import importlib.util
import json
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


def _run(workload, seed, side, **values):
    metrics = {name: {"value": value} for name, value in values.items()}
    return {"workload": workload, "seed": seed, "side": side, "result": {"metrics": metrics}}


def test_metrics_past_their_bound_are_flagged():
    tool = _load_tool()
    end_to_end = json.loads(tool.BENCHMARK.read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    assert bounds["peak_rss_mb"] == 0.05 and bounds["items_per_s"] == 0.2
    runs = []
    for seed in (1, 2, 3):
        # scatter: RSS +6% (flagged); verify: RSS +4% (not); certificate: items/s -25%
        # (flagged); cert_fidelity_mean reads -1 (not applicable) on the change side
        runs += [
            _run("scatter", seed, "parent", peak_rss_mb=40.0, items_per_s=100.0),
            _run("scatter", seed, "change", peak_rss_mb=42.4, items_per_s=100.0),
            _run("verify", seed, "parent", peak_rss_mb=40.0, cert_fidelity_mean=0.9),
            _run("verify", seed, "change", peak_rss_mb=41.6, cert_fidelity_mean=-1.0),
            _run("certificate", seed, "parent", peak_rss_mb=40.0, items_per_s=100.0),
            _run("certificate", seed, "change", peak_rss_mb=40.0, items_per_s=75.0),
        ]
    summary = tool.summarize(runs, better, bounds)
    flagged = {(w, name) for w, name, _, _ in tool.past_bound(summary, better, bounds)}
    assert flagged == {("scatter", "peak_rss_mb"), ("certificate", "items_per_s")}
    marked = {(w, name) for w, metrics in summary.items() for name, m in metrics.items()
              if m.get("past_bound")}
    assert marked == flagged
