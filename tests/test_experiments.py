import dataclasses
import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cmirecon
import cmirecon.entropy
from cmirecon import channels, entropy, experiments, linalg, markov, states
from cmirecon.experiments import ExperimentRecord, RunConfig


class TestRunConfig:
    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError, match="n_samples"):
            RunConfig(n_samples=0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="dims"):
            RunConfig(dims=(2, 1, 2))


class TestFigure1:
    def test_records_well_formed(self):
        records, summary = experiments.figure1_experiment(RunConfig(seed=7, n_samples=40))
        assert len(records) == 40
        assert [r.sample_id for r in records] == list(range(40))
        for r in records:
            assert r.cmi_bits >= -1e-9
            assert 0.0 <= r.fidelity_transpose <= 1.0
            assert r.shalf_transpose_bits >= 0.0
            if math.isfinite(r.shalf_transpose_bits):
                assert abs(r.shalf_transpose_bits + 2 * math.log2(r.fidelity_transpose)) < 1e-9
        assert summary["strict_count"] == sum(r.strict for r in records)

    @pytest.mark.parametrize("dims, used, workers", [((2, 2, 2), False, 1), ((5, 2, 2), True, 2)])
    def test_completion_count_matches_the_sample_flags(self, dims, used, workers):
        # rho_B of a pure state has rank at most d_C d_R, so d_B = 5 is singular
        cfg = RunConfig(seed=7, n_samples=12, dims=dims, workers=workers)
        records, summary = experiments.figure1_experiment(cfg)
        flags = [r.completion_used for r in records]
        assert flags == [used] * 12
        assert summary["n_completion_used"] == sum(flags)

    def test_deterministic_across_worker_counts(self):
        cfg1 = RunConfig(seed=42, n_samples=60, workers=1)
        cfg2 = RunConfig(seed=42, n_samples=60, workers=4)
        rec1, _ = experiments.figure1_experiment(cfg1)
        rec2, _ = experiments.figure1_experiment(cfg2)
        assert experiments.records_to_csv_text(rec1) == experiments.records_to_csv_text(rec2)

    def test_the_pool_is_bounded_by_the_machine_and_the_samples(self, monkeypatch):
        # a pool forks all its processes at once, so a stand-in records the
        # size asked for and maps serially: no process starts here
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                assert chunksize >= 1
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        has_affinity = hasattr(os, "sched_getaffinity")
        cpus = len(os.sched_getaffinity(0)) if has_affinity else os.cpu_count() or 1
        many, summary = experiments.figure1_experiment(RunConfig(seed=42, n_samples=3, workers=10_000))
        one, _ = experiments.figure1_experiment(RunConfig(seed=42, n_samples=3, workers=1))
        assert all(n <= min(3, cpus) for n in sizes)
        assert len(sizes) == int(min(3, cpus) > 1)
        assert summary["workers"] == 10_000
        assert experiments.records_to_csv_text(many) == experiments.records_to_csv_text(one)

    def test_importing_the_package_loads_no_multiprocessing(self):
        # the process pool is imported only when figure1 runs with workers > 1
        src = os.path.dirname(os.path.dirname(cmirecon.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, cmirecon, cmirecon.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_markov_control_sample_sits_at_origin(self):
        sigma = markov.markov_state(markov.random_markov_spec(states.rng_from_seed(3)))
        m = experiments.transpose_reconstruction_metrics(sigma)
        assert m["cmi_bits"] < 1e-8
        assert m["relent_transpose_bits"] < 1e-7
        assert not m["strict"]

    @pytest.mark.parametrize("labels", [("B", "C", "R"), ("C", "B", "R")], ids=["bcr", "cbr"])
    def test_each_matrix_of_a_sample_built_once(self, monkeypatch, labels):
        # rho in (B, C, R) order, rho_BC, rho_BR, rho_B and sigma, plus the
        # transpose channel; every one is derived from the checked input, so
        # no boundary validation runs inside a sample. Each of the five
        # spectra decides its support once, and only rho and sigma need a
        # root factor.
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(11), labels)
        built = {"states": 0, "channels": 0, "validated": 0, "cutoffs": 0, "roots": 0}

        def counting(owner, attr, *keys):
            original = getattr(owner, attr)

            def build(*args):
                for key in keys:
                    built[key] += 1
                return original(*args)

            monkeypatch.setattr(owner, attr, build)

        counting(states, "_derived", "states")
        counting(channels, "_derived", "channels")
        counting(states.MultipartiteState, "__post_init__", "states", "validated")
        counting(channels.Channel, "__post_init__", "channels", "validated")
        counting(linalg, "support_cutoff", "cutoffs")
        root = linalg.Spectrum.__dict__["root"].func

        def counted_root(spec):
            built["roots"] += 1
            return root(spec)

        cached_root = functools.cached_property(counted_root)
        cached_root.__set_name__(linalg.Spectrum, "root")
        monkeypatch.setattr(linalg.Spectrum, "root", cached_root)
        experiments.transpose_reconstruction_metrics(rho)
        assert built["states"] <= 5
        assert built["channels"] == 1
        assert built["validated"] == 0
        assert built["cutoffs"] <= 5
        assert built["roots"] == 2

    @pytest.mark.parametrize("gap, strict", [(5e-8, True), (5e-10, False)])
    def test_strict_is_pinned_at_its_tolerance(self, monkeypatch, gap, strict):
        # strict means D < CMI - STRICT_TOL with STRICT_TOL = 1e-9: a gap of
        # 5e-8 bits counts, one of 5e-10 does not
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(11), ("B", "C", "R"))
        monkeypatch.setattr(entropy, "relative_entropy", lambda r, s: entropy.cmi(r) - gap)
        m = experiments.transpose_reconstruction_metrics(rho)
        assert m["cmi_bits"] > 0.01
        assert m["strict"] is strict

    def test_strict_fraction_estimator_consistency(self):
        # doubling the sample count moves the fraction by < 4 sqrt(p(1-p)/n)
        # in at least 95% of seed pairs
        n_trials = 20
        hits = 0
        for seed in range(n_trials):
            _, s1 = experiments.figure1_experiment(RunConfig(seed=seed, n_samples=250))
            _, s2 = experiments.figure1_experiment(RunConfig(seed=seed + 1000, n_samples=500))
            p = s1["strict_fraction"]
            band = 4 * math.sqrt(p * (1 - p) / 250)
            if abs(s2["strict_fraction"] - p) < band:
                hits += 1
        assert hits >= math.ceil(0.95 * n_trials)

    def test_measured_re_column_toggle(self):
        records, _ = experiments.figure1_experiment(
            RunConfig(seed=5, n_samples=3, include_measured_re=True)
        )
        for r in records:
            assert r.measured_re_transpose_bits is not None
            assert r.measured_re_transpose_bits <= r.relent_transpose_bits + 1e-7
            assert r.measured_re_transpose_bits >= r.shalf_transpose_bits - 1e-6


class TestClassicalExample:
    def test_eps_zero_all_quantities_vanish(self):
        report = experiments.classical_example_experiment(4, 0.0)
        assert report["measured_bound_bits"] == pytest.approx(0.0, abs=1e-9)
        assert report["shalf_product_bits"] == pytest.approx(0.0, abs=1e-7)
        assert report["shalf_best_attach_bits"] == pytest.approx(0.0, abs=1e-7)
        assert report["ceiling_bits"] == 0.0
        assert report["ratio_measured_over_ceiling"] is None

    def test_d16_eps01_reference_values(self):
        d, eps = 16, 0.1
        report = experiments.classical_example_experiment(d, eps)
        h2 = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
        expect_i = h2 + eps * math.log2(d - 1)
        assert abs(report["measured_bound_bits"] - expect_i) < 1e-10
        # plain product value from the closed-form diagonal fidelity
        f_plain = (1 - eps) ** 1.5 + eps ** 1.5 / math.sqrt(d - 1)
        assert abs(report["shalf_product_bits"] + 2 * math.log2(f_plain)) < 1e-9
        # optimized attach value stays below the ceiling, plain value does not
        f_best = math.sqrt((1 - eps) ** 2 + eps ** 2 / (d - 1))
        assert abs(report["shalf_best_attach_bits"] + 2 * math.log2(f_best)) < 1e-9
        assert report["shalf_best_attach_bits"] <= report["shalf_ceiling_bits"] + 1e-12
        assert report["ratio_measured_over_ceiling"] > 3.0
        assert report["measured_bound_nats"] == pytest.approx(
            report["measured_bound_bits"] * math.log(2)
        )

    def test_d2_degenerate_case(self):
        eps = 0.3
        report = experiments.classical_example_experiment(2, eps)
        h2 = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
        assert abs(report["measured_bound_bits"] - h2) < 1e-10


class TestInequalitySuite:
    def test_default_small_run_passes(self):
        report = experiments.inequality_suite(seed=1, samples=25, certificate_samples=4)
        assert report.passed, "\n".join(report.lines())
        assert len(report.checks) == 9
        assert all("PASS" in line for line in report.lines())

    def test_report_lines_name_each_check_with_its_budget_and_detail(self):
        report = experiments.inequality_suite(seed=3, samples=3, certificate_samples=1)
        names = [
            "ssa-nonnegative",
            "pure-state-cmi-identity",
            "classical-cmi-equality",
            "measured-re-ordering",
            "data-processing",
            "relent-log-shift-bound",
            "relent-continuity-ceiling",
            "markov-gap-nonnegative",
            "recovery-certificate",
        ]
        budgets = [3] * 8 + [1]
        lines = report.lines()
        assert len(lines) == 9
        for line, name, n in zip(lines, names, budgets):
            assert line.startswith(f"[PASS] {name} (n={n})"), line
        assert lines[0].startswith("[PASS] ssa-nonnegative (n=3): min CMI ")
        assert lines[0].endswith(" bits")
        assert lines[1].startswith("[PASS] pure-state-cmi-identity (n=3): max deviation ")
        assert lines[2].startswith("[PASS] classical-cmi-equality (n=3): max deviation ")
        assert lines[2].endswith(" bits")
        assert lines[3] == "[PASS] measured-re-ordering (n=3): 0 unconverged"
        assert all(line.endswith(f"(n={n})") for line, n in zip(lines[4:8], budgets[4:8]))
        assert lines[8] == (
            "[PASS] recovery-certificate (n=1): witness within tolerance on 100.0%, 0 uncertified"
        )

    @pytest.mark.parametrize(
        "budgets, name",
        [
            ({"samples": 0}, "samples"),
            ({"samples": -3}, "samples"),
            ({"samples": 3, "certificate_samples": 0}, "certificate_samples"),
        ],
        ids=["no-samples", "negative-samples", "no-certificate-samples"],
    )
    def test_budget_below_one_is_rejected(self, budgets, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            experiments.inequality_suite(seed=1, **budgets)

    def test_mis_scaled_entropy_fails_classical_equality(self, monkeypatch):
        # mutation control: a base-e/base-2 mix must trip the equality check
        true_cmi = cmirecon.entropy.cmi

        def nats_cmi(*args, **kwargs):
            return true_cmi(*args, **kwargs) * math.log(2.0)

        monkeypatch.setattr(cmirecon.entropy, "cmi", nats_cmi)
        result = experiments._check_classical_equality(seed=1, n=10)
        assert not result.passed

    def test_markov_only_source_passes_certificate_trivially(self, monkeypatch):
        def markov_sampler(dims, rng, labels=None):
            return markov.markov_state(markov.random_markov_spec(rng))

        monkeypatch.setattr(states, "random_pure", markov_sampler)
        result = experiments._check_recovery_certificate(seed=4, n=5)
        assert result.passed
        assert not result.failures

    def test_certificate_reports_uncertified_searches(self, monkeypatch):
        # searches capped before their first step end uncertified but still
        # meet the witness; the detail counts them, the pass rule does not
        optimize = cmirecon.recovery.optimize_recovery

        def capped(rho, objective_kind="fidelity", max_iterations=2000):
            return optimize(rho, objective_kind, max_iterations=0)

        monkeypatch.setattr(cmirecon.recovery, "optimize_recovery", capped)
        result = experiments._check_recovery_certificate(seed=4, n=3)
        assert result.detail == "witness within tolerance on 100.0%, 3 uncertified"
        assert result.passed

    def test_ordering_panel_reports_unconverged_solves(self, monkeypatch):
        # solves reported unconverged still meet the ordering; the detail
        # counts them, the pass rule does not
        solve = cmirecon.entropy.measured_relative_entropy

        def unconverged(rho, sigma, max_iterations=600):
            return dataclasses.replace(solve(rho, sigma, max_iterations), converged=False)

        monkeypatch.setattr(cmirecon.entropy, "measured_relative_entropy", unconverged)
        result = experiments._check_ordering_panel(seed=4, n=3)
        assert result.detail == "3 unconverged"
        assert result.passed


class TestEmitOutputs:
    def _records(self):
        return [
            ExperimentRecord(0, 0.5, 0.25, 0.9, -2 * math.log2(0.9), True),
            ExperimentRecord(1, 0.125, math.inf, 0.5, 2.0, False),
            ExperimentRecord(2, 1.0 / 3.0, 0.5, 0.75, -2 * math.log2(0.75), False),
        ]

    def test_empty_records_give_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        experiments.emit_outputs([], {"n": 0}, out_csv=path)
        assert path.read_text() == experiments.CSV_HEADER + "\n"

    def test_csv_shape_and_json_fraction(self, tmp_path):
        records = self._records()
        summary = {"strict_fraction": 1.0 / 3.0, "runtime_seconds": 0.1}
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        experiments.emit_outputs(records, summary, out_csv=csv_path, out_json=json_path)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == experiments.CSV_HEADER
        assert len(lines) == 4
        assert lines[2].split(",")[2] == "inf"
        doc = json.loads(json_path.read_text())
        assert doc["strict_fraction"] == pytest.approx(1.0 / 3.0)

    def test_round_trip_preserves_12_digits(self, tmp_path):
        records = self._records()
        path = tmp_path / "out.csv"
        experiments.emit_outputs(records, {}, out_csv=path)
        loaded = experiments.parse_records_csv(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert a.sample_id == b.sample_id
            assert a.strict == b.strict
            for field in ("cmi_bits", "relent_transpose_bits", "fidelity_transpose", "shalf_transpose_bits"):
                x, y = getattr(a, field), getattr(b, field)
                if math.isinf(x):
                    assert math.isinf(y)
                else:
                    assert y == pytest.approx(x, rel=1e-12, abs=1e-300)

    def test_svg_structure(self, tmp_path):
        records = self._records()
        path = tmp_path / "out.svg"
        experiments.emit_outputs(records, {}, out_svg=path)
        text = path.read_text()
        assert text.count("<circle") == len(records)
        assert text.count('class="diagonal"') == 1

    def test_measured_re_column_appended(self, tmp_path):
        records = [
            ExperimentRecord(0, 0.5, 0.25, 0.9, 0.3, True, measured_re_transpose_bits=0.2)
        ]
        path = tmp_path / "out.csv"
        experiments.emit_outputs(records, {}, out_csv=path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == experiments.CSV_HEADER + ",measured_re_transpose_bits"
        loaded = experiments.parse_records_csv(path)
        assert loaded[0].measured_re_transpose_bits == pytest.approx(0.2)

    def test_jsonable_handles_infinities(self):
        out = experiments.jsonable({"value": math.inf, "nested": {"x": 1.0}})
        assert out["value"] is None
        assert out["value_is_infinite"] is True
        assert out["nested"]["x"] == 1.0
