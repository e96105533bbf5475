"""Run the benchmark on two source trees in alternating pairs and collect a BENCH_<n>.json.

Export the two commits first (``git archive <commit> | tar -x -C DIR``), then
run, from anywhere:

    python3 tools/bench_pairs.py --parent P --change C --workload certificate \\
        --seeds 1101-1110 --out BENCH_11.json

Each seed runs ``perfbench/run.py --workload W --seed S --seconds 20`` once
in each tree, one run at a time; the side that runs first alternates from
seed to seed, starting with the parent. ``--trace`` instead makes one
``--trace 1`` run per side on the first seed and keeps its per-layer
metrics. Runs are added to the output file, which is created when absent,
and its ``summary`` (median and quartiles of every end-to-end metric, per
workload and side, and the pair wins) is computed again from all the runs
it holds. A pair is the parent and change runs of one seed; the change
wins it on a metric when it is better in the direction ``BENCHMARK.json``
gives, the parent when it is worse, and a tie counts for neither. A metric
whose change median is worse than the parent median by more than its
``bound`` in ``BENCHMARK.json`` (a fraction of the parent median) is marked
``past_bound`` in the summary and printed at the end, one line each; -1
(not applicable) medians are skipped. The mark does not change the exit
status.

Each run prints its items/s, ``peak_rss_mb``, its timed pass count (parsed
from the ``# items_per_s ... N pass(es)`` line; ``peak_rss_mb`` grows with
it) and ``correct``, and the file keeps the count as the run's ``passes``;
the exit status is 1 when any run the file holds is not ``correct``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 20
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# per-layer metrics kept from a traced run, by prefix
TRACE_PREFIXES = ("recovery.", "entropy.", "linalg.", "states.", "channels.", "experiments.", "trace.")
# the value perfbench reports for an end-to-end metric a workload does not have
NOT_APPLICABLE = -1.0


def parse_seeds(text: str) -> list[int]:
    """'1101-1110' or '1101,1103' as a list of seeds."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def timed_passes(lines: list[str]) -> int | None:
    """The pass count of the ``# items_per_s`` line; None when there is none (a traced run)."""
    for line in lines:
        if line.startswith("# items_per_s "):
            found = re.search(r"(\d+) pass\(es\)", line)
            return int(found.group(1)) if found else None
    return None


def run_once(tree: Path, workload: str, seed: int, trace: bool) -> tuple[str, dict, int | None]:
    """One benchmark run in ``tree``: its env line, its result object and its timed passes."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    env = next(line for line in lines if line.startswith("# env "))
    return env, json.loads(lines[-1]), timed_passes(lines)


def pair_wins(runs: list[dict], better: dict[str, str]) -> dict:
    """workload -> metric -> {"change", "parent", "pairs"}: the pairs each side won.

    ``better`` maps an end-to-end metric to "higher" or "lower". Runs of one
    seed pair in the order they were made; ties count for neither side.
    """
    by_seed: dict = {}
    for run in runs:
        sides = by_seed.setdefault((run["workload"], run["seed"]), {})
        sides.setdefault(run["side"], []).append(run["result"]["metrics"])
    wins: dict = {}
    for (workload, _), sides in by_seed.items():
        for parent, change in zip(sides.get("parent", []), sides.get("change", [])):
            for name, direction in better.items():
                if name not in parent or name not in change:
                    continue
                tally = wins.setdefault(workload, {}).setdefault(
                    name, {"change": 0, "parent": 0, "pairs": 0})
                tally["pairs"] += 1
                p, c = parent[name]["value"], change[name]["value"]
                if c != p:
                    tally["change" if (c > p) == (direction == "higher") else "parent"] += 1
    return wins


def past_bound(summary: dict, better: dict[str, str], bounds: dict[str, float]) -> list[tuple]:
    """(workload, metric, parent median, change median) for every metric of
    ``bounds`` whose change median is worse than the parent median by more
    than that fraction of it; -1 (not applicable) medians are skipped."""
    flagged = []
    for workload, metrics in summary.items():
        for name, sides in metrics.items():
            if name not in bounds or "parent" not in sides or "change" not in sides:
                continue
            p, c = sides["parent"]["median"], sides["change"]["median"]
            if NOT_APPLICABLE in (p, c):
                continue
            worse = c - p if better[name] == "lower" else p - c
            if worse > bounds[name] * abs(p):
                flagged.append((workload, name, p, c))
    return flagged


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """workload -> metric -> side -> median, quartiles and count of the runs,
    with the metric's ``pair_wins`` beside the sides and ``past_bound`` set
    on the metrics ``past_bound`` flags."""
    values: dict = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            side = values.setdefault(run["workload"], {}).setdefault(name, {})
            side.setdefault(run["side"], []).append(metric["value"])
    summary: dict = {}
    for workload, metrics in values.items():
        for name, sides in metrics.items():
            for side, xs in sides.items():
                q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
                summary.setdefault(workload, {}).setdefault(name, {})[side] = {
                    "median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}
    for workload, metrics in pair_wins(runs, better).items():
        for name, tally in metrics.items():
            summary[workload][name]["pair_wins"] = tally
    for workload, name, _, _ in past_bound(summary, better, bounds):
        summary[workload][name]["past_bound"] = True
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true", help="one --trace 1 run per side")
    args = parser.parse_args(argv)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("command", f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS}"
                              " (--trace 1 for the per-layer runs)")
    doc.setdefault("runs", [])

    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}

    def save():
        doc["summary"] = summarize(doc["runs"], better, bounds)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    trees = {"parent": args.parent, "change": args.change}
    if args.trace:
        seed = args.seeds[0]
        for side, tree in trees.items():
            env, result, _ = run_once(tree, args.workload, seed, trace=True)
            kept = {k: v for k, v in result["metrics"].items() if k.startswith(TRACE_PREFIXES)}
            doc.setdefault("per_layer_trace", {}).setdefault(args.workload, {})[side] = {
                "seed": seed, "env": env, "correct": result["correct"], "metrics": kept}
            save()
            print(f"{args.workload} seed {seed} {side} traced, correct {result['correct']}", flush=True)
    else:
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                env, result, passes = run_once(trees[side], args.workload, seed, trace=False)
                doc["runs"].append({"workload": args.workload, "seed": seed, "side": side,
                                    "first": order[0], "env": env, "passes": passes, "result": result})
                save()
                metrics = result["metrics"]
                print(f"{args.workload} seed {seed} {side}: {metrics['items_per_s']['value']:.2f} items/s, "
                      f"peak_rss_mb {metrics['peak_rss_mb']['value']:.2f} over {passes} pass(es), "
                      f"correct {result['correct']}",
                      flush=True)
    for workload, name, p, c in past_bound(doc.get("summary", {}), better, bounds):
        print(f"past bound: {workload} {name} median {p:.6g} (parent) -> {c:.6g} (change), "
              f"worse by more than {bounds[name]:g} of the parent's")
    wrong = [f"{r['workload']} seed {r['seed']} {r['side']}" for r in doc["runs"] if not r["result"]["correct"]]
    wrong += [f"{workload} seed {t['seed']} {side} traced"
              for workload, sides in doc.get("per_layer_trace", {}).items()
              for side, t in sides.items() if not t["correct"]]
    if wrong:
        print(f"{len(wrong)} run(s) in {args.out} not correct: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
