"""End-to-end and per-layer benchmark for cmirecon.

Run from the repository root:

    python3 perfbench/run.py --workload scatter --seed 1 --seconds 20 --trace 0

Workloads: scatter, certificate, mre-panel, verify (see workloads.py). Load
is a closed loop: one client runs units back to back in this process, with
BLAS pinned to one thread.

``--trace 0`` times whole passes over the workload's fixed panel, as many
as come closest to ``--seconds``. It checks every unit's outputs outside the
timed region and that every pass gives the same outputs, then runs and
checks the units drawn from ``--seed``, and measures set-up time in fresh
child processes.
``--trace 1`` runs the panel once untraced and once traced, checks that both
give identical outputs, and reports per-layer counts and self times from the
tracer, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An end-to-end metric
that does not apply to a workload reads -1 and is marked "n/a" in the table
above that line. On scatter and verify, where one program call covers many
items, per-item latency is the call's time divided by its items.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

# Times are scaled to a reference machine speed. On a shared 2-core Xeon VM
# the speed shifted by up to 1.6x for tens of seconds at a time, which moved
# raw times of identical work by up to 25% from run to run. A fixed
# loop shaped like the workloads (small complex eigh, a matmul, Python
# arithmetic) runs before and after every timed stretch, and the stretch's
# time is multiplied by REFERENCE_S / (mean loop time): the reported time is
# what the work takes on a machine where the loop takes REFERENCE_S.
CALIBRATION_LOOPS = 60
REFERENCE_S = 0.003
_CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((8, 8, 2)) @ [1.0, 1.0j]
_CALIBRATION_MATRIX = _CALIBRATION_MATRIX + _CALIBRATION_MATRIX.conj().T

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "cert_fidelity_mean": "ratio",
    "mre_value_mean_bits": "bits",
}


def load_program():
    """Import cmirecon from this checkout's src/, then the workload module."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cmirecon
    except ImportError as exc:
        raise SystemExit(f"error: cannot import cmirecon from {ROOT / 'src'}: {exc}")
    if Path(cmirecon.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"error: imported cmirecon from {cmirecon.__file__}, not from this checkout")
    import workloads

    return workloads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scatter", "certificate", "mre-panel", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- running units --------------------------------------------------------------

class Tally:
    """Checked executions of a list of units, in one or more passes over it."""

    def __init__(self):
        self.seconds: list[list[float]] = []   # per unit, one entry per pass
        self.items: list[int] = []             # per unit
        self.fingerprints: list[list] = []     # per unit, one entry per pass
        self.quality: list[float] = []         # from the first pass
        self.raw_s = 0.0                       # unscaled busy time
        self.attempted = 0
        self.failed = 0

    def run_pass(self, wl, units: list) -> None:
        for index, unit in enumerate(units):
            self.add(wl, index, *run_unit(wl, unit))

    def add(self, wl, index: int, output, raw_s: float, scale: float) -> None:
        """Check one unit's output (``None`` if it raised) and record it."""
        items = failed = wl.nominal_items
        info: dict = {}
        if output is not None:
            try:
                items = wl.items(output)
                failed, info = wl.check(output)
            except Exception:  # a failed check counts against the unit
                traceback.print_exc(file=sys.stderr)
                items = failed = wl.nominal_items
        if index == len(self.seconds):
            self.seconds.append([])
            self.fingerprints.append([])
            self.items.append(items)
            self.quality.extend(info.get("quality", []))
        self.seconds[index].append(raw_s * scale)
        self.raw_s += raw_s
        self.fingerprints[index].append(info.get("fingerprint"))
        self.attempted += items
        self.failed += failed

    @property
    def passes(self) -> int:
        return len(self.seconds[0])

    def unit_seconds(self) -> list[float]:
        """Each unit's median time over the passes, at reference speed."""
        return [statistics.median(times) for times in self.seconds]

    def rate(self) -> float:
        return sum(self.items) / sum(self.unit_seconds())

    def latencies_ms(self) -> list[float]:
        """Per-item latency of each unit: its median time over its items.

        Observations are units, not passes or items, so the percentiles mean
        the same whatever the pass count; the items of one program call
        cannot be timed apart.
        """
        return [1000.0 * seconds / items for items, seconds in zip(self.items, self.unit_seconds())]

    def repeatable(self) -> bool:
        """Every pass gave every unit the same outputs."""
        return all(all(f == fps[0] for f in fps) for fps in self.fingerprints)


def calibration_s() -> float:
    """Seconds of the fixed calibration loop, now."""
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_LOOPS):
        w, v = np.linalg.eigh(_CALIBRATION_MATRIX)
        (v * w) @ v.conj().T
        total = 0
        for i in range(300):
            total += i
    return time.perf_counter() - t0


def run_unit(wl, unit):
    """(output or None if it raised, raw seconds, scale to reference speed) of one unit."""
    before = calibration_s()
    t0 = time.perf_counter()
    try:
        output = wl.run(unit)
    except Exception:  # a unit that raises counts as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        output = None
    seconds = time.perf_counter() - t0
    return output, seconds, 2.0 * REFERENCE_S / (before + calibration_s())


def measured_run(wl, panel: list, seconds: float) -> Tally:
    """Whole passes over the panel, as many as come closest to ``seconds``.

    Only whole passes run, so every run measures the same work; with more
    than one pass a unit's time is its median over the passes.
    """
    tally = Tally()
    tally.run_pass(wl, panel)
    for _ in range(max(1, round(seconds / sum(tally.unit_seconds()))) - 1):
        tally.run_pass(wl, panel)
    return tally


def checked_run(wl, units: list) -> Tally:
    tally = Tally()
    tally.run_pass(wl, units)
    return tally


def traced_run(wl, units: list, tracer) -> tuple[Tally, Tally, dict[int, float]]:
    """The units untraced, then traced; outputs are checked after tracing stops.

    Also returns each traced unit's scale to reference speed, by item id.
    """
    plain = checked_run(wl, units)
    outputs = []
    tracer.instrument()
    try:
        for k, unit in enumerate(units):
            tracer.current_item = k
            with tracer.span("bench.unit"):
                outputs.append(run_unit(wl, unit))
    finally:
        tracer.uninstrument()
    traced = Tally()
    for index, output in enumerate(outputs):
        traced.add(wl, index, *output)
    return plain, traced, {k: scale for k, (_, _, scale) in enumerate(outputs)}


# --- set-up time ----------------------------------------------------------------

def setup_seconds(workload: str, seed: int) -> list[float]:
    """Time of fresh processes from start to inputs built and one warm-up unit.

    Each child scales its own time: it may run on the other core, whose
    speed this process cannot see.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            line = proc.stdout.readline()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed * float(line))  # the child's scale to reference speed
    return times


# --- environment ----------------------------------------------------------------

def _openblas():
    """(config string, thread count) of the loaded OpenBLAS, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown", "unknown"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return config().decode(), threads()
    return "unknown", "unknown"


def _commit() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas_config, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas_config,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads,
        "commit": _commit(),
    }


# --- reporting ------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten observations beyond it, and its label."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max (only {n} observations)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f}"


def end_to_end(wl, tally: Tally, checked: Tally, rss_mb: float, setups: list[float],
               na: float) -> tuple[dict, dict]:
    latencies = tally.latencies_ms()
    tail_ms, tail_label = tail(latencies)
    attempted = tally.attempted + checked.attempted
    failed = tally.failed + checked.failed
    values = {
        "items_per_s": tally.rate(),
        "item_p50_ms": statistics.median(latencies),
        "item_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "success_rate": 1.0 - failed / attempted,
        "cert_fidelity_mean": na,
        "mre_value_mean_bits": na,
    }
    latency_note = "one observation per item" if set(tally.items) == {1} else "one observation per program call"
    notes = {
        "items_per_s": f"{sum(tally.items)} items in {len(tally.items)} units, {tally.passes} "
                       f"pass(es); raw wall clock {tally.attempted / tally.raw_s:.4g} items/s",
        "item_p50_ms": latency_note,
        "item_tail_ms": f"{tail_label}, {latency_note}",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "peak_rss_mb": "this process, before the seed pass",
        "success_rate": f"error_rate {failed / attempted:.4g}: {failed} of {attempted} items, "
                        f"{checked.attempted} of them drawn from --seed",
        "cert_fidelity_mean": "n/a on this workload",
        "mre_value_mean_bits": "n/a on this workload",
    }
    if wl.quality:
        values[wl.quality] = statistics.fmean(tally.quality)
        notes[wl.quality] = f"mean over the {len(tally.quality)} panel items"
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_program()
    wl_class = workloads.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        wl = wl_class(Path(workdir))
        panel = wl.inputs(workloads.PANEL_KEY, wl.panel_units)
        seeded = wl.inputs(args.seed, wl.seed_units)
        wl.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            print(REFERENCE_S / statistics.median(calibration_s() for _ in range(5)), flush=True)
            return 0

        if args.trace:
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            plain, traced, scales = traced_run(wl, panel, tracer)
            checked = checked_run(wl, seeded)
            layers = tracer_mod.layer_metrics(tracer, scales)
            values = {name: value for name, (value, _) in layers.items()}
            units = {name: unit for name, (_, unit) in layers.items()}
            values.update({
                "trace.items_per_s": traced.rate(),
                "trace.untraced_items_per_s": plain.rate(),
                "trace.overhead_ratio": plain.rate() / traced.rate(),
            })
            units.update({"trace.items_per_s": "items/s", "trace.untraced_items_per_s": "items/s",
                          "trace.overhead_ratio": "ratio"})
            identical = plain.fingerprints == traced.fingerprints
            notes = {name: "not reached on this workload" for name, value in values.items() if value == 0}
            notes["trace.overhead_ratio"] = (
                f"untraced/traced items/s over the same {plain.attempted} items; "
                f"{len(tracer.start)} spans; outputs identical: {identical}"
            )
            if tracer.absent:
                print(f"# absent names, their metrics read 0: {', '.join(tracer.absent)}")
            if tracer.hook_errors:
                print(f"# counter hooks failed: {', '.join(sorted(tracer.hook_errors))}")
            attempted = plain.attempted + traced.attempted + checked.attempted
            failed = plain.failed + traced.failed + checked.failed
            correct = identical and failed == 0
            item_counts = {"untraced": plain.attempted, "traced": traced.attempted,
                           "seed_pass": checked.attempted}
        else:
            tally = measured_run(wl, panel, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            checked = checked_run(wl, seeded)
            setups = setup_seconds(args.workload, args.seed)
            values, notes = end_to_end(wl, tally, checked, rss_mb, setups, workloads.NOT_APPLICABLE)
            units = END_TO_END_UNITS
            attempted = tally.attempted + checked.attempted
            failed = tally.failed + checked.failed
            repeatable = tally.repeatable()
            if not repeatable:
                print("# outputs differ between passes over the same inputs")
            correct = repeatable and failed == 0
            item_counts = {"measured": tally.attempted, "seed_pass": checked.attempted}

    env = environment()
    env["items"] = item_counts
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, value in values.items():
        print(f"# {name:36s} {value:>16.6g} {units[name]:8s} {notes.get(name, '')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
