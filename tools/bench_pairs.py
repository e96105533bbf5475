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

``--interleaved ROUNDS`` instead times the workload's panel units in
process CPU time, with BLAS at one thread:

    python3 tools/bench_pairs.py --parent P --change C --workload mre-panel \\
        --interleaved 10 --out BENCH_31.json

Each round starts one long-lived worker process per tree. A worker imports
its tree's ``perfbench/workloads.py``, builds the fixed panel, warms up and
runs one untimed, checked pass. Then, unit by unit, the panel runs ABBA
(parent, change, change, parent; BAAB on odd rounds), each run timed and
checked in its worker. A unit's ratio is the median over rounds of its
change time over its parent time, summed over the quartet, and the reading
is the median of the units' ratios. Two workers of one tree read up to 3%
apart, either way round from one pair to the next, so each round gets a
fresh pair and the 95% bootstrap interval resamples rounds as well as
units. The reading is stored under ``interleaved`` in the output
file, by workload, with every quartet's times; the exit status is 1 when a
check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SECONDS = 20
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# per-layer metrics kept from a traced run, by prefix
TRACE_PREFIXES = ("recovery.", "entropy.", "linalg.", "states.", "channels.", "experiments.", "trace.")
# the value perfbench reports for an end-to-end metric a workload does not have
NOT_APPLICABLE = -1.0
# resamples of the interleaved mode's bootstrap interval, and their seed
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0


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


def abba(round_index: int) -> tuple[str, ...]:
    """The order of one unit's four runs in an interleaved round: ABBA, BAAB on odd rounds."""
    return ("parent", "change", "change", "parent") if round_index % 2 == 0 else (
        "change", "parent", "parent", "change")


def interleaved_summary(quartets: list[list[dict]]) -> dict:
    """The median per-unit change/parent ratio with its bootstrap interval.

    ``quartets[r][u]`` is unit u's quartet in round r, ``{"parent": [s, s],
    "change": [s, s]}`` in seconds. A unit's ratio is the median over
    rounds of sum(change) / sum(parent), and the reading is the median of
    the units' ratios. Each round ran in its own pair of processes, so the
    interval resamples both: the 2.5% and 97.5% quantiles of the reading
    over BOOTSTRAP_RESAMPLES draws of rounds and of units with replacement.
    """
    ratios = [[sum(q["change"]) / sum(q["parent"]) for q in units] for units in quartets]
    rounds, units = range(len(ratios)), range(len(ratios[0]))

    def reading(rs, us) -> float:
        return statistics.median(statistics.median(ratios[r][u] for r in rs) for u in us)

    rng = random.Random(BOOTSTRAP_SEED)
    draws = sorted(reading(rng.choices(rounds, k=len(rounds)), rng.choices(units, k=len(units)))
                   for _ in range(BOOTSTRAP_RESAMPLES))
    return {"ratio": reading(rounds, units),
            "interval": [draws[int(0.025 * BOOTSTRAP_RESAMPLES)], draws[int(0.975 * BOOTSTRAP_RESAMPLES) - 1]],
            "rounds": len(rounds), "units": len(units)}


def worker(tree: str, workload: str) -> int:
    """Serve one tree's panel units: read a unit index per line, answer "cpu_seconds failed".

    Imports cmirecon from the tree's src/ and the workload from its
    perfbench/, then warms up and runs one untimed, checked pass.
    """
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr  # the program's own prints stay off the reply channel
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import cmirecon
    import workloads

    if Path(cmirecon.__file__).resolve().parents[1] != (Path(tree) / "src").resolve():
        raise SystemExit(f"imported cmirecon from {cmirecon.__file__}, not from {tree}")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        wl = workloads.WORKLOADS[workload](Path(workdir))
        panel = wl.inputs(workloads.PANEL_KEY, wl.panel_units)
        wl.warm_up()
        failed = sum(wl.check(wl.run(unit))[0] for unit in panel)
        print(len(panel), failed, file=reply, flush=True)
        for line in sys.stdin:
            unit = panel[int(line)]
            t0 = time.process_time()
            output = wl.run(unit)
            seconds = time.process_time() - t0
            print(seconds, wl.check(output)[0], file=reply, flush=True)
    return 0


def _answer(worker: subprocess.Popen, side: str) -> tuple[float, int]:
    """A worker's next reply, two numbers; RuntimeError once the worker has stopped."""
    fields = worker.stdout.readline().split()
    if len(fields) != 2:
        raise RuntimeError(f"the {side} worker stopped; see its error above")
    return float(fields[0]), int(fields[1])


def interleaved_round(trees: dict[str, Path], workload: str, round_index: int) -> tuple[list[dict], int]:
    """One round: a fresh worker per tree, each panel unit's ABBA quartet, and the failed checks."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    workers = {side: subprocess.Popen([sys.executable, __file__, "--worker", str(tree), workload],
                                      cwd=tree, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for side, tree in trees.items()}
    try:
        ready = [_answer(w, side) for side, w in workers.items()]
        sizes = {int(size) for size, _ in ready}
        if len(sizes) != 1:
            raise RuntimeError(f"the trees' {workload} panels differ in size: {sorted(sizes)}")
        failed = sum(f for _, f in ready)
        quartets = []
        for u in range(sizes.pop()):
            times: dict = {"parent": [], "change": []}
            for side in abba(round_index):
                workers[side].stdin.write(f"{u}\n")
                workers[side].stdin.flush()
                seconds, unit_failed = _answer(workers[side], side)
                times[side].append(seconds)
                failed += unit_failed
            quartets.append(times)
        return quartets, failed
    finally:
        for w in workers.values():
            w.stdin.close()
            w.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true", help="one --trace 1 run per side")
    parser.add_argument("--interleaved", type=int, metavar="ROUNDS",
                        help="time the panel units ABBA, a fresh worker per tree in each of ROUNDS rounds")
    args = parser.parse_args(argv)
    if args.interleaved is None and args.seeds is None:
        parser.error("--seeds is required, except with --interleaved")
    if args.interleaved is not None and args.interleaved < 1:
        parser.error(f"--interleaved takes at least 1 round, got {args.interleaved}")
    for tree in (args.parent, args.change):
        if not (tree / "perfbench").is_dir():
            parser.error(f"{tree} holds no perfbench/: not a source tree")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    trees = {"parent": args.parent, "change": args.change}
    if args.interleaved is not None:
        rounds = [interleaved_round(trees, args.workload, r) for r in range(args.interleaved)]
        quartets = [q for q, _ in rounds]
        failed = sum(f for _, f in rounds)
        reading = interleaved_summary(quartets)
        doc.setdefault("interleaved", {})[args.workload] = {**reading, "failed": failed, "quartets": quartets}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        lo, hi = reading["interval"]
        print(f"{args.workload} interleaved: change/parent CPU time per unit, median {reading['ratio']:.4f} "
              f"[{lo:.4f}, {hi:.4f}] over {reading['units']} units, {args.interleaved} ABBA round(s), "
              f"{failed} failed check(s)")
        return int(failed > 0)

    doc.setdefault("command", f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS}"
                              " (--trace 1 for the per-layer runs)")
    doc.setdefault("runs", [])

    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}

    def save():
        doc["summary"] = summarize(doc["runs"], better, bounds)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

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
    sys.exit(worker(*sys.argv[2:]) if sys.argv[1:2] == ["--worker"] else main())
