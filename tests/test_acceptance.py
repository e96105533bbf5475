"""Acceptance gate: every release-blocking criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report). Budgets follow the shipped defaults; the whole module runs
in a few minutes on one core.
"""

import math

import numpy as np
import pytest

from cmirecon import channels, entropy, experiments, linalg, markov, recovery, states
from cmirecon.experiments import (
    RunConfig,
    figure1_experiment,
    classical_example_experiment,
    emit_outputs,
)

FIG1_SEED = 42


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def figure1_run():
    cfg = RunConfig(seed=FIG1_SEED, n_samples=10000, dims=(2, 2, 2))
    return figure1_experiment(cfg)


def test_figure1_strict_fraction(figure1_run):
    records, summary = figure1_run
    fraction = summary["strict_fraction"]
    runtime = summary["runtime_seconds"]
    ok = 0.70 <= fraction <= 0.76 and runtime < 300.0
    report(
        "figure1-strict-fraction",
        ok,
        f"fraction={fraction:.4f} (band [0.70, 0.76]), runtime={runtime:.1f}s (< 300s)",
    )


def test_strong_subadditivity_sweep():
    # raw (unclamped) CMI over the exact figure-1 sample streams plus
    # purification-marginal mixed states
    violations = []
    worst = math.inf
    for i in range(10000):
        rng = states.sample_rng(FIG1_SEED, i)
        rho = states.random_pure((2, 2, 2), rng, ("B", "C", "R"))
        value = entropy.cmi(rho)
        worst = min(worst, value)
        if value < -1e-9:
            violations.append(("pure", i))
    for i in range(1000):
        rng = states.sample_rng(FIG1_SEED + 1, i)
        dims = tuple(int(rng.integers(2, 4)) for _ in range(3))
        rho = states.random_mixed(dims, rng, ("B", "C", "R"))
        value = entropy.cmi(rho)
        worst = min(worst, value)
        if value < -1e-9:
            violations.append(("mixed", i))
    report(
        "strong-subadditivity",
        not violations,
        f"0 violations required, got {len(violations)}; min raw CMI {worst:.2e} bits "
        f"over 10000 pure + 1000 mixed states",
    )


def test_markov_recovery_exactness():
    worst_cmi = 0.0
    worst_dist = 0.0
    failures = []
    for i in range(100):
        rng = states.sample_rng(FIG1_SEED + 2, i)
        spec = markov.random_markov_spec(rng)
        sigma = markov.markov_state(spec)
        cmi_val = abs(entropy.cmi(sigma))
        rho_bc = states.permute(states.partial_trace(sigma, ["B", "C"]), ("B", "C"))
        rebuilt = recovery.reconstruct(sigma, channels.transpose_channel(rho_bc))
        dist = linalg.trace_norm(sigma.matrix - rebuilt.matrix)
        worst_cmi = max(worst_cmi, cmi_val)
        worst_dist = max(worst_dist, dist)
        if cmi_val >= 1e-8 or dist >= 1e-7:
            failures.append(i)
    report(
        "markov-recovery-exactness",
        not failures,
        f"100 specs: max CMI {worst_cmi:.2e} (< 1e-8), "
        f"max recovery distance {worst_dist:.2e} (< 1e-7)",
    )


def test_classical_equality():
    result = experiments._check_classical_equality(FIG1_SEED + 3, 200)
    report(
        "classical-cmi-equality",
        result.passed,
        f"200 tables: {result.detail} between CMI and the classical KL oracle (tol 1e-9); "
        f"failures {result.failures}",
    )


def test_recovery_certificate():
    result = experiments._check_recovery_certificate(FIG1_SEED + 4, 500)
    if result.failures:
        print(f"certificate failures (seed {FIG1_SEED + 4}, sample): {result.failures}")
    report(
        "recovery-certificate",
        result.passed,
        f"-2 log2 F <= CMI + 1e-4 bits on 500 states (>= 99% required): {result.detail}",
    )


def test_ordering_panel():
    ordering = experiments._check_ordering_panel(FIG1_SEED + 5, 500)
    continuity = experiments._check_continuity_bound(FIG1_SEED + 5, 500)
    exceptions = sorted(set(ordering.failures) | set(continuity.failures))
    report(
        "ordering-panel",
        ordering.passed and continuity.passed,
        f"500 pairs (d <= 8): MS <= S + 1e-7, MS >= -2log2F - 1e-6, "
        f"S <= continuity bound; {len(exceptions)} exceptions {exceptions}",
    )


def test_measured_re_grid_oracle():
    n = 100
    failures = []
    for i in range(n):
        rng = states.sample_rng(FIG1_SEED + 6, i)
        rho = states.random_mixed((2,), rng, ("A",)).matrix
        sigma = states.random_mixed((2,), rng, ("A",)).matrix

        # brute-force oracle: 720 projective qubit measurements on a Bloch grid
        best = -math.inf
        for theta in np.linspace(0.0, math.pi, 24):
            for phi in np.linspace(0.0, 2 * math.pi, 30, endpoint=False):
                v = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
                proj = np.outer(v, v.conj())
                val = 0.0
                for m in (proj, np.eye(2) - proj):
                    p = float(np.trace(m @ rho).real)
                    q = float(np.trace(m @ sigma).real)
                    if p > 1e-15:
                        val += p * math.log2(p / max(q, 1e-300))
                best = max(best, val)

        ms = entropy.measured_relative_entropy(rho, sigma).value_bits
        rel = entropy.relative_entropy(rho, sigma)
        if not (ms >= best - 1e-6 and ms <= rel + 1e-7):
            failures.append(i)
    report(
        "measured-re-grid-oracle",
        not failures,
        f"{n} qubit pairs: grid value - 1e-6 <= MS <= S + 1e-7; {len(failures)} exceptions",
    )


def test_universal_recovery_map_bound():
    # the paper's bound I(C:R|B) >= min over channels of D_M, met by one
    # explicit map: D_M(rho || R(rho_BR)) <= I(C:R|B) for the universal
    # recovery map R (Sutter-Berta-Tomamichel); the smallest margin on the
    # 24 states of the measured-RE recovery survey is 0.044 bits
    failures, worst, i = [], math.inf, 0
    for dims in [(2, 2, 2), (2, 2, 3), (3, 2, 2)]:
        for rank in (1, 2):
            for _ in range(8):
                rng = states.sample_rng(FIG1_SEED + 7, i)
                if rank == 1:
                    rho = states.random_pure(dims, rng, ("B", "C", "R"))
                else:
                    rho = states.random_mixed(dims, rng, ("B", "C", "R"), ancilla_dim=rank)
                rho_bc = states.partial_trace(rho, ["B", "C"])
                choi = channels._choi(channels._universal_kraus(rho_bc))
                universal = channels.Channel(choi, rho_bc.subsystems[:1], rho_bc.subsystems)
                sol = entropy.measured_relative_entropy(rho, recovery.reconstruct(rho, universal))
                margin = entropy.cmi(rho) - sol.value_bits
                worst = min(worst, margin)
                if not (sol.converged and margin >= 0.0):
                    failures.append((dims, rank, i))
                i += 1
    report(
        "universal-recovery-bound",
        not failures,
        f"{i} states (pure and rank 2): D_M(rho || R(rho_BR)) <= I(C:R|B), every solve "
        f"converged; smallest margin {worst:.4f} bits; exceptions {failures}",
    )


def test_classical_example_gap():
    d, eps = 16, 0.1
    rep = classical_example_experiment(d, eps)
    h2 = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
    expected_i = h2 + eps * math.log2(d - 1)
    i_err = abs(rep["measured_bound_bits"] - expected_i)
    fr_ok = rep["shalf_best_attach_bits"] <= -2.0 * math.log2(1 - eps) + 1e-12
    ratio = rep["ratio_measured_over_ceiling"]
    ok = i_err < 1e-10 and fr_ok and ratio > 3.0
    report(
        "classical-example-gap",
        ok,
        f"I(C:R) err {i_err:.1e} (< 1e-10), best-attach -2log2F = "
        f"{rep['shalf_best_attach_bits']:.4f} <= {-2.0 * math.log2(1 - eps):.4f}, "
        f"measured/ceiling ratio {ratio:.2f} (> 3)",
    )


def test_determinism_across_workers(tmp_path):
    paths = []
    for workers in (1, 8):
        cfg = RunConfig(seed=42, n_samples=1000, workers=workers)
        records, summary = figure1_experiment(cfg)
        path = tmp_path / f"run_w{workers}.csv"
        emit_outputs(records, summary, out_csv=path)
        paths.append(path)
    csv1, csv8 = (p.read_bytes() for p in paths)
    report(
        "worker-determinism",
        csv1 == csv8,
        f"emitted CSVs byte-identical across workers=1 and workers=8 ({len(csv1)} bytes)",
    )
