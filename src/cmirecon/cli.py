"""Command-line front end.

Exit status: 0 when all requested checks pass, 1 on an invariant or check
failure, 2 on a usage error: bad arguments, a malformed input file, or a
file that cannot be read or written (any OSError).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import experiments, recovery, states
from .states import MultipartiteState


class _InputError(Exception):
    """A command's inputs were rejected while parsing or loading them."""


@contextmanager
def _reading_inputs():
    """Scope in which a ValueError is bad input (exit 2), not a failed run (exit 1)."""
    try:
        yield
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _parse_dims(text: str) -> tuple[int, int, int]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse dims {text!r}; expected e.g. 2,2,2")
    if len(dims) != 3:
        raise argparse.ArgumentTypeError(f"expected three dimensions, got {text!r}")
    return dims


def _bounded(convert, accept, expected: str):
    """argparse type: ``convert`` the text, then require ``accept(value)``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_positive_int = _bounded(int, lambda n: n >= 1, "an integer >= 1")
_nonnegative_int = _bounded(int, lambda n: n >= 0, "an integer >= 0")


def _load_tripartite(path) -> MultipartiteState:
    state = states.load_state(path)
    if sorted(state.labels) != ["B", "C", "R"]:
        raise ValueError(f"expected a state on subsystems B, C, R, got labels {state.labels}")
    return state


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmirecon",
        description=(
            "Conditional mutual information, reconstruction channels, and "
            "inequality checks for small multipartite quantum states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure1", help="transpose-channel reconstruction scatter")
    fig.add_argument("--seed", type=int, default=42)
    fig.add_argument("--samples", type=int, default=10000)
    fig.add_argument("--dims", type=_parse_dims, default=(2, 2, 2))
    fig.add_argument("--workers", type=int, default=1)
    fig.add_argument("--out-csv")
    fig.add_argument("--out-json")
    fig.add_argument("--out-svg")
    fig.add_argument("--measured-re", action="store_true", help="add the measured-RE column")

    cls = sub.add_parser("classical-example", help="classically correlated benchmark report")
    cls.add_argument("--d", type=_bounded(int, lambda d: d >= 2, "an integer >= 2"), default=16)
    cls.add_argument(
        "--eps", type=_bounded(float, lambda e: 0.0 <= e < 1.0, "a number in [0, 1)"), default=0.1
    )
    cls.add_argument("--out-json")

    ver = sub.add_parser("verify", help="run the inequality suite")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--samples", type=_positive_int, default=200)
    ver.add_argument("--certificate-samples", type=_positive_int, default=None)

    rec = sub.add_parser("recover", help="transpose-channel report for a JSON state file")
    rec.add_argument("state", help="path to a tripartite state JSON file")
    rec.add_argument("--measured-re", action="store_true")
    rec.add_argument("--out-json")

    opt = sub.add_parser("optimize", help="recovery-channel search for a JSON state file")
    opt.add_argument("state", help="path to a tripartite state JSON file")
    opt.add_argument(
        "--objective", choices=recovery.OBJECTIVE_KINDS, default="fidelity"
    )
    opt.add_argument("--max-iterations", type=_nonnegative_int, default=2000)
    opt.add_argument("--out-json")

    return parser


def _emit_json(payload: dict, out_json: str | None) -> None:
    text = json.dumps(experiments.jsonable(payload), indent=2, sort_keys=True)
    if out_json:
        with open(out_json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_figure1(args) -> int:
    with _reading_inputs():
        cfg = experiments.RunConfig(
            seed=args.seed,
            n_samples=args.samples,
            dims=args.dims,
            workers=args.workers,
            include_measured_re=args.measured_re,
        )
    records, summary = experiments.figure1_experiment(cfg)
    experiments.emit_outputs(
        records, summary, out_csv=args.out_csv, out_json=args.out_json, out_svg=args.out_svg
    )
    print(
        f"samples={summary['n_samples']} strict_fraction={summary['strict_fraction']:.4f} "
        f"runtime={summary['runtime_seconds']:.1f}s"
    )
    return 0


def _cmd_classical_example(args) -> int:
    report = experiments.classical_example_experiment(args.d, args.eps)
    _emit_json(report, args.out_json)
    return 0


def _cmd_verify(args) -> int:
    report = experiments.inequality_suite(
        seed=args.seed,
        samples=args.samples,
        certificate_samples=args.certificate_samples,
    )
    for line in report.lines() + report.timing_lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_recover(args) -> int:
    with _reading_inputs():
        state = _load_tripartite(args.state)
    metrics = experiments.transpose_reconstruction_metrics(
        state, include_measured_re=args.measured_re
    )
    _emit_json(metrics, args.out_json)
    return 0


def _cmd_optimize(args) -> int:
    with _reading_inputs():
        state = _load_tripartite(args.state)
    result = recovery.optimize_recovery(
        state, args.objective, max_iterations=args.max_iterations
    )
    _emit_json(recovery.result_to_json_dict(result), args.out_json)
    return 0


_COMMANDS = {
    "figure1": _cmd_figure1,
    "classical-example": _cmd_classical_example,
    "verify": _cmd_verify,
    "recover": _cmd_recover,
    "optimize": _cmd_optimize,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (_InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
