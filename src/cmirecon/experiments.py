"""Experiment drivers and file emission.

The scatter experiment draws Haar-random pure states on the subsystems
labelled B, C and R, rebuilds each from its BR marginal with the transpose
channel, and records the conditional mutual information I(C:R|B) against
the reconstruction distances. The roles are fixed by those labels. Also
here: the classically correlated benchmark report, a battery of inequality
checks, and CSV/JSON/SVG output.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import channels, entropy, linalg, markov, recovery, states
from .states import MultipartiteState

# A reconstruction counts as strictly better only when the relative entropy
# sits below the CMI by more than numerical noise.
STRICT_TOL = 1e-9

SSA_TOL = 1e-9
CLASSICAL_CMI_TOL = 1e-9
# -2 log2 F <= CMI + CERTIFICATE_TOL_BITS must hold on CERTIFICATE_MIN_PASS of states
CERTIFICATE_TOL_BITS = 1e-4
CERTIFICATE_MIN_PASS = 0.99

TRIPARTITE_LABELS = ("B", "C", "R")


@dataclass(frozen=True)
class RunConfig:
    """Settings for the scatter experiment."""

    seed: int = 42
    n_samples: int = 10000
    dims: tuple[int, int, int] = (2, 2, 2)
    workers: int = 1
    include_measured_re: bool = False

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if len(self.dims) != 3 or any(d < 2 for d in self.dims):
            raise ValueError(f"dims must be three values >= 2, got {self.dims}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class ExperimentRecord:
    """One Monte Carlo sample row."""

    sample_id: int
    cmi_bits: float
    relent_transpose_bits: float
    fidelity_transpose: float
    shalf_transpose_bits: float
    strict: bool
    measured_re_transpose_bits: float | None = None
    # not written to the CSV; counted in the summary
    measured_re_converged: bool | None = None
    completion_used: bool | None = None


def transpose_reconstruction_metrics(
    rho_tri: MultipartiteState, include_measured_re: bool = False
) -> dict:
    """Distance panel between a state on B, C, R and its transpose-channel rebuild.

    Works on rho in (B, C, R) order, so each matrix is built once.

    ``completion_used`` says whether rho_B is singular (its smallest
    eigenvalue at or below the support cutoff), which is exactly when the
    transpose channel adds its trace-preserving completion. With
    ``include_measured_re``, ``measured_re_converged`` says whether the
    solver's Newton decrement fell below tolerance.
    """
    rho = states.permute(rho_tri, TRIPARTITE_LABELS)
    raw_cmi = entropy.cmi(rho)
    if raw_cmi < -SSA_TOL:
        raise RuntimeError(
            f"strong subadditivity violated: CMI = {raw_cmi!r} bits"
        )
    cmi_bits = max(raw_cmi, 0.0)  # reports clamp round-off negatives only
    rho_bc = states.partial_trace(rho, ["B", "C"])
    sigma = recovery.reconstruct(rho, channels.transpose_channel(rho_bc))
    rel = entropy.relative_entropy(rho, sigma)
    fid = entropy.fidelity(rho, sigma)
    shalf = entropy._renyi_half_bits(fid)

    out = {
        "cmi_bits": cmi_bits,
        "relent_transpose_bits": rel,
        "fidelity_transpose": fid,
        "shalf_transpose_bits": shalf,
        "strict": bool(rel < cmi_bits - STRICT_TOL),
        "completion_used": bool(states.partial_trace(rho_bc, ["B"]).spectrum.kernel),
    }
    if include_measured_re:
        solution = entropy.measured_relative_entropy(rho, sigma)
        out["measured_re_transpose_bits"] = solution.value_bits
        out["measured_re_converged"] = solution.converged
    return out


def _sample_record(seed: int, sample_id: int, dims, include_measured_re: bool) -> ExperimentRecord:
    rng = states.sample_rng(seed, sample_id)
    rho = states.random_pure(dims, rng, labels=TRIPARTITE_LABELS)
    m = transpose_reconstruction_metrics(rho, include_measured_re=include_measured_re)
    return ExperimentRecord(sample_id=sample_id, **m)


def figure1_experiment(cfg: RunConfig) -> tuple[list[ExperimentRecord], dict]:
    """Transpose-channel reconstruction scatter over Haar-random pure states.

    Per-sample random streams are keyed by (seed, sample_id), so the output
    is byte-identical for any worker count.
    """
    start = time.perf_counter()
    ids = range(cfg.n_samples)
    sample = functools.partial(
        _sample_record, cfg.seed, dims=cfg.dims, include_measured_re=cfg.include_measured_re
    )
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    processes = min(cfg.workers, cpus or 1, cfg.n_samples)  # a pool starts them all at once
    if processes == 1:
        records = list(map(sample, ids))
    else:
        # imported here so that importing the package loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, math.ceil(cfg.n_samples / (processes * 8)))
        with ProcessPoolExecutor(max_workers=processes) as pool:
            records = list(pool.map(sample, ids, chunksize=chunk))

    finite_rel = [r.relent_transpose_bits for r in records if math.isfinite(r.relent_transpose_bits)]
    strict_count = sum(1 for r in records if r.strict)
    summary = {
        "seed": cfg.seed,
        "n_samples": cfg.n_samples,
        "dims": list(cfg.dims),
        "workers": cfg.workers,
        "strict_count": strict_count,
        "strict_fraction": strict_count / cfg.n_samples,
        "n_infinite_relent": len(records) - len(finite_rel),
        "n_completion_used": sum(r.completion_used for r in records),
        "mean_cmi_bits": float(np.mean([r.cmi_bits for r in records])),
        "mean_finite_relent_bits": float(np.mean(finite_rel)) if finite_rel else None,
        "runtime_seconds": time.perf_counter() - start,
    }
    if cfg.include_measured_re:
        summary["n_measured_re_nonconverged"] = sum(not r.measured_re_converged for r in records)
    return records, summary


def classical_example_experiment(d: int = 16, eps: float = 0.1) -> dict:
    """Benchmark report for the classically correlated (C, B, R) state.

    The state is diagonal, so the measurement in the computational basis
    attains the measured relative entropy, making the measured lower bound
    equal to the mutual information I(C:R). The fidelity-based bound is
    reported twice: against the plain marginal product rho_C (x) rho_R and
    against the best product reconstruction sigma_C (x) rho_R, whose value
    stays below the -log2(1-eps) ceiling.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    rho_cbr = states.classical_example_state(d, eps)
    rho_cr = states.partial_trace(rho_cbr, ["C", "R"])
    rho_c = states.partial_trace(rho_cbr, ["C"])
    rho_r = states.partial_trace(rho_cbr, ["R"])

    i_cr_bits = (
        entropy.von_neumann(rho_c) + entropy.von_neumann(rho_r) - entropy.von_neumann(rho_cr)
    )

    product = states.tensor(rho_c, rho_r)
    shalf_product_bits = entropy.renyi_half(rho_cr, product)

    # Best product reconstruction: reweight sigma_C toward the correlated
    # diagonal, sigma*(k) proportional to p(k,k) * p_R(k).
    p_cr = np.diag(rho_cr.matrix).real.reshape(d, d)
    p_r = p_cr.sum(axis=0)
    weights = np.array([p_cr[k, k] * p_r[k] for k in range(d)])
    sigma_c = states.classical_state(weights / weights.sum(), ["C"])
    best_attach = states.tensor(sigma_c, rho_r)
    shalf_best_bits = entropy.renyi_half(rho_cr, best_attach)

    ceiling_bits = -math.log2(1.0 - eps) if eps > 0 else 0.0
    report = {
        "d": d,
        "eps": eps,
        "measured_bound_bits": i_cr_bits,
        "measured_bound_nats": i_cr_bits * math.log(2.0),
        "shalf_product_bits": shalf_product_bits,
        "shalf_product_nats": shalf_product_bits * math.log(2.0),
        "shalf_best_attach_bits": shalf_best_bits,
        "shalf_best_attach_nats": shalf_best_bits * math.log(2.0),
        "ceiling_bits": ceiling_bits,
        "ceiling_nats": ceiling_bits * math.log(2.0),
        "shalf_ceiling_bits": 2.0 * ceiling_bits,
        "ratio_measured_over_ceiling": (i_cr_bits / ceiling_bits) if ceiling_bits > 0 else None,
    }
    return report


# --- inequality suite --------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    samples: int
    passed: bool
    detail: str = ""
    failures: list = field(default_factory=list)
    # wall time of the check; not part of ``SuiteReport.lines`` or of equality
    seconds: float | None = field(default=None, compare=False)


@dataclass
class SuiteReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name} (n={c.samples})"
            if c.detail:
                line += f": {c.detail}"
            if c.failures:
                line += f" failures={c.failures[:10]}"
            out.append(line)
        return out

    def timing_lines(self) -> list[str]:
        """One ``time <check>: <seconds> s`` line per timed check."""
        return [f"time {c.name}: {c.seconds:.3f} s" for c in self.checks if c.seconds is not None]


def _random_dims(rng, n=3, max_dim=3):
    return tuple(int(rng.integers(2, max_dim + 1)) for _ in range(n))


def _run_check(name, seed, n, sample, summarize=None) -> CheckResult:
    """Check ``sample(rng, i) -> (violated, statistic)`` on the n streams of ``seed``.

    ``summarize(statistics, failures)`` gives ``(passed, detail)``; without
    it the check passes when no sample is violated and has no detail.
    """
    start = time.perf_counter()
    failures, statistics = [], []
    for i in range(n):
        violated, statistic = sample(states.sample_rng(seed, i), i)
        statistics.append(statistic)
        if violated:
            failures.append(i)
    passed, detail = summarize(statistics, failures) if summarize else (not failures, "")
    return CheckResult(name, n, passed, detail, failures, time.perf_counter() - start)


def _worst(pick, template):
    """Summary of a check that passes when no sample fails and reports
    ``pick`` (min or max) of 0 and the statistics in ``template``."""
    return lambda statistics, failures: (not failures, template.format(pick([0.0, *statistics])))


def _check_ssa(seed, n):
    def sample(rng, i):
        dims = _random_dims(rng)
        if i % 2 == 0:
            rho = states.random_pure(dims, rng, TRIPARTITE_LABELS)
        else:
            rho = states.random_mixed(dims, rng, TRIPARTITE_LABELS)
        value = entropy.cmi(rho)
        return value < -SSA_TOL, value

    return _run_check("ssa-nonnegative", seed, n, sample, _worst(min, "min CMI {:.2e} bits"))


def _check_pure_cmi_identity(seed, n):
    def sample(rng, i):
        rho = states.random_pure(_random_dims(rng), rng, TRIPARTITE_LABELS)
        lhs = entropy.cmi(rho)
        rhs = (
            entropy.von_neumann(states.partial_trace(rho, ["C"]))
            + entropy.von_neumann(states.partial_trace(rho, ["R"]))
            - entropy.von_neumann(states.partial_trace(rho, ["B"]))
        )
        err = abs(lhs - rhs)
        return err > 1e-8, err

    return _run_check(
        "pure-state-cmi-identity", seed, n, sample, _worst(max, "max deviation {:.2e}")
    )


def _classical_cmi_oracle(table: np.ndarray) -> float:
    """I(C:R|B) of a table on (C, B, R): KL divergence from its Markov proxy."""
    p_y = table.sum(axis=(0, 2))
    p_xy = table.sum(axis=2)
    p_zy = table.sum(axis=0)  # axes (y, z)
    total = 0.0
    nx, ny, nz = table.shape
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                p = table[x, y, z]
                if p <= 0 or p_y[y] <= 0:
                    continue
                q = p_xy[x, y] * p_zy[y, z] / p_y[y]
                total += p * math.log2(p / q)
    return total


def _check_classical_equality(seed, n):
    def sample(rng, i):
        dims = tuple(int(rng.integers(2, 5)) for _ in range(3))
        table = rng.dirichlet(np.ones(math.prod(dims))).reshape(dims)
        rho = states.classical_state(table, ("C", "B", "R"))
        value = entropy.cmi(rho)
        target = _classical_cmi_oracle(table)
        err = abs(value - target)
        return err > CLASSICAL_CMI_TOL, err

    return _run_check(
        "classical-cmi-equality", seed, n, sample, _worst(max, "max deviation {:.2e} bits")
    )


def _random_pair(rng, d):
    rho = states.random_mixed((d,), rng, labels=("A",))
    sigma = states.random_mixed((d,), rng, labels=("A",))
    return rho, sigma


def _check_ordering_panel(seed, n):
    def sample(rng, i):
        d = int(rng.integers(2, 9))
        rho, sigma = _random_pair(rng, d)
        ms = entropy.measured_relative_entropy(rho, sigma).value_bits
        rel = entropy.relative_entropy(rho, sigma)
        shalf = entropy.renyi_half(rho, sigma)
        return not (ms <= rel + 1e-7 and ms >= shalf - 1e-6), None

    return _run_check("measured-re-ordering", seed, n, sample)


def _check_data_processing(seed, n):
    def sample(rng, i):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        rho, sigma = _random_pair(rng, d_in)
        ch = channels.random_channel(d_in, d_out, rng, (("A", d_in),), (("A", d_out),))
        rho_out = channels.apply(ch, rho)
        sigma_out = channels.apply(ch, sigma)
        rel_before = entropy.relative_entropy(rho, sigma)
        rel_after = entropy.relative_entropy(rho_out, sigma_out)
        fid_ok = entropy.fidelity(rho_out, sigma_out) >= entropy.fidelity(rho, sigma) - 1e-9
        rel_ok = rel_after <= rel_before + 1e-7
        return not (fid_ok and rel_ok), None

    return _run_check("data-processing", seed, n, sample)


def _check_log_shift_bound(seed, n):
    # pi <= 2^lam sigma implies S(rho||pi) >= S(rho||sigma) - lam
    def sample(rng, i):
        d = int(rng.integers(2, 7))
        sigma = states.random_mixed((d,), rng, labels=("A",))
        pi = states.random_mixed((d,), rng, labels=("A",))
        rho = states.random_mixed((d,), rng, labels=("A",))
        inv_root = sigma.spectrum.apply(lambda x: 1.0 / np.sqrt(x))
        h = inv_root @ pi.matrix @ inv_root
        ratio = np.linalg.eigvalsh((h + h.conj().T) / 2.0)[-1]
        lam = math.log2(max(ratio, 1e-300))
        lhs = entropy.relative_entropy(rho, pi)
        rhs = entropy.relative_entropy(rho, sigma) - lam
        return not lhs >= rhs - 1e-7, None

    return _run_check("relent-log-shift-bound", seed, n, sample)


def _check_continuity_bound(seed, n):
    def sample(rng, i):
        d = int(rng.integers(2, 9))
        rho, sigma = _random_pair(rng, d)
        t = linalg._trace_norm(rho.matrix - sigma.matrix)
        beta = sigma.spectrum.eigenvalues[0]
        if beta <= 0:
            return False, None
        bound = entropy.relative_entropy_continuity_bound(d, t, beta)
        return entropy.relative_entropy(rho, sigma) > bound + 1e-9, None

    return _run_check("relent-continuity-ceiling", seed, n, sample)


def _check_markov_gap(seed, n):
    def sample(rng, i):
        spec = markov.random_markov_spec(rng)
        sigma = markov.markov_state(spec)
        rho = states.random_mixed(sigma.dims, rng, labels=sigma.labels)
        gap = markov.markov_gap(rho, sigma)
        return not gap >= -1e-7, None

    return _run_check("markov-gap-nonnegative", seed, n, sample)


def _check_recovery_certificate(seed, n):
    def sample(rng, i):
        rho = states.random_pure((2, 2, 2), rng, TRIPARTITE_LABELS)
        result = recovery.optimize_recovery(rho, "fidelity")
        shalf = entropy._renyi_half_bits(result.best_value)
        return shalf > entropy.cmi(rho) + CERTIFICATE_TOL_BITS, not result.converged

    def summarize(uncertified, failures):
        fraction = 1.0 - len(failures) / n
        detail = f"witness within tolerance on {fraction:.1%}, {sum(uncertified)} uncertified"
        return fraction >= CERTIFICATE_MIN_PASS, detail

    return _run_check("recovery-certificate", seed, n, sample, summarize)


def inequality_suite(seed: int = 42, samples: int = 200, certificate_samples: int | None = None) -> SuiteReport:
    """Run every inequality check and report one pass/fail line each.

    ``samples`` is the per-check budget; the optimizer-backed certificate
    check gets its own (smaller default) budget because each sample runs a
    full recovery search. Check k (from 1) draws from seed + k * 10^7.
    Either budget below 1 raises ``ValueError``: a check of no sample
    verifies nothing.
    """
    if certificate_samples is None:
        certificate_samples = max(10, samples // 4)
    for name, n in (("samples", samples), ("certificate_samples", certificate_samples)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    checks = (
        (_check_ssa, samples),
        (_check_pure_cmi_identity, samples),
        (_check_classical_equality, samples),
        (_check_ordering_panel, samples),
        (_check_data_processing, samples),
        (_check_log_shift_bound, samples),
        (_check_continuity_bound, samples),
        (_check_markov_gap, samples),
        (_check_recovery_certificate, certificate_samples),
    )
    return SuiteReport([check(seed + k * 10_000_000, n) for k, (check, n) in enumerate(checks, 1)])


# --- output emission ---------------------------------------------------------

CSV_HEADER = (
    "sample_id,cmi_bits,relent_transpose_bits,fidelity_transpose,shalf_transpose_bits,strict"
)

SVG_SIZE = 640


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.17g}"


def records_to_csv_text(records: list[ExperimentRecord]) -> str:
    with_ms = bool(records) and all(r.measured_re_transpose_bits is not None for r in records)
    header = CSV_HEADER + (",measured_re_transpose_bits" if with_ms else "")
    lines = [header]
    for r in records:
        row = (
            f"{r.sample_id},{_fmt(r.cmi_bits)},{_fmt(r.relent_transpose_bits)},"
            f"{_fmt(r.fidelity_transpose)},{_fmt(r.shalf_transpose_bits)},"
            f"{'true' if r.strict else 'false'}"
        )
        if with_ms:
            row += f",{_fmt(r.measured_re_transpose_bits)}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def parse_records_csv(path) -> list[ExperimentRecord]:
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            ms = row.get("measured_re_transpose_bits")
            records.append(
                ExperimentRecord(
                    sample_id=int(row["sample_id"]),
                    cmi_bits=float(row["cmi_bits"]),
                    relent_transpose_bits=float(row["relent_transpose_bits"]),
                    fidelity_transpose=float(row["fidelity_transpose"]),
                    shalf_transpose_bits=float(row["shalf_transpose_bits"]),
                    strict=row["strict"] == "true",
                    measured_re_transpose_bits=float(ms) if ms not in (None, "") else None,
                )
            )
    return records


def jsonable(obj):
    """Replace non-finite floats by null plus an `<key>_is_infinite` sidecar."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if isinstance(value, float) and not math.isfinite(value):
                out[key] = None
                out[f"{key}_is_infinite"] = True
            else:
                out[key] = jsonable(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [None if isinstance(v, float) and not math.isfinite(v) else jsonable(v) for v in obj]
    return obj


def write_scatter_svg(records: list[ExperimentRecord], path) -> None:
    """Minimal scatter of reconstruction relative entropy against CMI.

    One circle per record (infinite values are pinned to the top edge) plus
    the y = x reference diagonal, on a square of SVG_SIZE pixels.
    """
    size = SVG_SIZE
    margin = 50
    span = size - 2 * margin
    finite = [
        max(r.cmi_bits, 0.0)
        for r in records
    ] + [r.relent_transpose_bits for r in records if math.isfinite(r.relent_transpose_bits)]
    top = max(finite) * 1.05 if finite else 1.0
    top = max(top, 1e-6)

    def sx(x):
        return margin + span * min(max(x, 0.0), top) / top

    def sy(y):
        return size - margin - span * min(max(y, 0.0), top) / top

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
        f'<line class="axis" x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{size - margin}" stroke="black"/>',
        f'<line class="axis" x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{size - margin}" stroke="black"/>',
        f'<line class="diagonal" x1="{sx(0)}" y1="{sy(0)}" x2="{sx(top)}" y2="{sy(top)}" '
        f'stroke="gray" stroke-dasharray="4 3"/>',
        f'<text x="{size / 2:.0f}" y="{size - 12}" text-anchor="middle" '
        f'font-size="13">conditional mutual information (bits)</text>',
        f'<text x="14" y="{size / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {size / 2:.0f})">reconstruction relative entropy (bits)</text>',
    ]
    for r in records:
        y = r.relent_transpose_bits if math.isfinite(r.relent_transpose_bits) else top
        parts.append(
            f'<circle class="pt" cx="{sx(r.cmi_bits):.2f}" cy="{sy(y):.2f}" r="2" '
            f'fill="steelblue" fill-opacity="0.5"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def emit_outputs(
    records: list[ExperimentRecord],
    summary: dict,
    out_csv=None,
    out_json=None,
    out_svg=None,
) -> None:
    """Write the requested output files; IO failures carry the path."""
    if out_csv is not None:
        try:
            with open(out_csv, "w", encoding="utf-8", newline="") as fh:
                fh.write(records_to_csv_text(records))
        except OSError as exc:
            raise OSError(f"writing CSV to {out_csv}: {exc}") from exc
    if out_json is not None:
        try:
            with open(out_json, "w", encoding="utf-8") as fh:
                json.dump(jsonable(summary), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise OSError(f"writing JSON to {out_json}: {exc}") from exc
    if out_svg is not None:
        try:
            write_scatter_svg(records, out_svg)
        except OSError as exc:
            raise OSError(f"writing SVG to {out_svg}: {exc}") from exc
