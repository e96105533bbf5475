"""Run the recovery search over a fixed-seed survey of states and summarise it by group.

A group is one dims x target rank x objective. State i of key k is drawn
from ``states.sample_rng(k, i)`` as a pure state, a rank-2 mixed state or
a full-rank mixed state, for every key and i < ``--count``, and searched with
``optimize_recovery(rho, objective)`` at its default cap. Each group prints
one JSON line: the group, ``n`` searches, how many ``certified``, the total
``evaluations``, the largest ``max_dual_gap`` and the search ``seconds``.
Run from anywhere; it imports cmirecon from this checkout's src/:

    python3 tools/recovery_survey.py --dims 2,2,2 --ranks pure \\
        --objectives fidelity --keys 11,12 --count 1000
    python3 tools/recovery_survey.py --dims 3,2,2 2,3,2 2,2,3 4,2,2 3,3,2 \\
        --ranks pure --objectives fidelity renyi_half --keys 99 --count 40

The first is the (2,2,2) pure-target survey of the Uhlmann start, the
second its d > 2 half. The defaults survey the d_B > 2 table: dims (3,2,2),
(2,3,2), (2,2,3) and (4,2,2), every rank, under fidelity, 10 states each.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cmirecon import recovery, states  # noqa: E402

LABELS = ("B", "C", "R")
RANKS = ("pure", "rank2", "full")


def draw(dims: tuple[int, ...], rank: str, rng) -> states.MultipartiteState:
    if rank == "pure":
        return states.random_pure(dims, rng, LABELS)
    return states.random_mixed(dims, rng, LABELS, ancilla_dim=2 if rank == "rank2" else None)


def survey_group(
    dims: tuple[int, ...], rank: str, objective: str, keys: list[int], count: int
) -> dict:
    """One group's summary line."""
    n = certified = evaluations = 0
    max_gap = seconds = 0.0
    for key in keys:
        for i in range(count):
            rho = draw(dims, rank, states.sample_rng(key, i))
            start = time.perf_counter()
            result = recovery.optimize_recovery(rho, objective)
            seconds += time.perf_counter() - start
            n += 1
            certified += result.converged
            evaluations += result.evaluations
            max_gap = max(max_gap, result.dual_gap)
    return {
        "dims": list(dims),
        "rank": rank,
        "objective": objective,
        "keys": keys,
        "n": n,
        "certified": certified,
        "evaluations": evaluations,
        "max_dual_gap": max_gap,
        "seconds": round(seconds, 3),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--dims", nargs="+", default=["3,2,2", "2,3,2", "2,2,3", "4,2,2"],
                        help="one d_B,d_C,d_R triple per group")
    parser.add_argument("--ranks", nargs="+", choices=RANKS, default=list(RANKS))
    parser.add_argument("--objectives", nargs="+", choices=recovery.OBJECTIVE_KINDS,
                        default=["fidelity"])
    parser.add_argument("--keys", default="99", help="comma-separated sample_rng keys")
    parser.add_argument("--count", type=int, default=10, help="states per key and group")
    args = parser.parse_args(argv)
    keys = [int(k) for k in args.keys.split(",")]
    for text in args.dims:
        dims = tuple(int(d) for d in text.split(","))
        for rank in args.ranks:
            for objective in args.objectives:
                print(json.dumps(survey_group(dims, rank, objective, keys, args.count)), flush=True)


if __name__ == "__main__":
    main()
