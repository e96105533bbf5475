import importlib.util
import json
import random
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


def test_abba_rounds_balance_the_sides():
    tool = _load_tool()
    assert tool.abba(0) == ("parent", "change", "change", "parent")
    assert tool.abba(1) == ("change", "parent", "parent", "change")
    assert tool.abba(2) == tool.abba(0)


def _quartets(ratio, rounds=8, units=40, noise=0.02, seed=0):
    # units from 1 to 40 ms, each run off by up to +-noise of its time
    rng = random.Random(seed)
    return [[{"parent": [0.001 * (u + 1) * (1 + rng.uniform(-noise, noise)) for _ in range(2)],
              "change": [ratio * 0.001 * (u + 1) * (1 + rng.uniform(-noise, noise)) for _ in range(2)]}
             for u in range(units)] for _ in range(rounds)]


def test_interleaved_summary_reads_a_known_ratio():
    reading = _load_tool().interleaved_summary(_quartets(1.05))
    lo, hi = reading["interval"]
    assert abs(reading["ratio"] - 1.05) < 0.005
    assert lo <= 1.05 <= hi and lo > 1.0
    assert (reading["rounds"], reading["units"]) == (8, 40)


def test_interleaved_summary_of_like_trees_contains_one():
    reading = _load_tool().interleaved_summary(_quartets(1.0, seed=1))
    lo, hi = reading["interval"]
    assert abs(reading["ratio"] - 1.0) < 0.005
    assert lo <= 1.0 <= hi


def test_a_units_ratio_is_the_median_of_its_rounds():
    # one round of a unit disturbed tenfold moves neither that unit nor the reading
    quartets = [[{"parent": [1.0, 1.0], "change": [1.0, 1.0]} for _ in range(5)] for _ in range(3)]
    quartets[1][0] = {"parent": [1.0, 1.0], "change": [10.0, 10.0]}
    reading = _load_tool().interleaved_summary(quartets)
    assert reading["ratio"] == 1.0 and reading["interval"] == [1.0, 1.0]


def test_a_round_biased_as_a_whole_widens_the_interval():
    # each round ran in its own pair of processes: a bias shared by all the
    # units of one round is resampled with the rounds, not averaged away
    quartets = _quartets(1.0, rounds=6, noise=0.001, seed=2)
    lo, hi = _load_tool().interleaved_summary(quartets)["interval"]
    for units, bias in zip(quartets, (1.03, 0.97, 1.02, 0.98, 1.01, 0.99)):
        for q in units:
            q["change"] = [bias * s for s in q["change"]]
    biased_lo, biased_hi = _load_tool().interleaved_summary(quartets)["interval"]
    assert biased_hi - biased_lo > 5 * (hi - lo)
    assert biased_lo <= 1.0 <= biased_hi
