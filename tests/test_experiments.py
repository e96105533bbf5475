import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cmirecon
import cmirecon.entropy
from cmirecon import channels, experiments, markov, states
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

    def test_deterministic_across_worker_counts(self):
        cfg1 = RunConfig(seed=42, n_samples=60, workers=1)
        cfg2 = RunConfig(seed=42, n_samples=60, workers=4)
        rec1, _ = experiments.figure1_experiment(cfg1)
        rec2, _ = experiments.figure1_experiment(cfg2)
        assert experiments.records_to_csv_text(rec1) == experiments.records_to_csv_text(rec2)

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

    def test_each_matrix_of_a_sample_built_once(self, monkeypatch):
        # rho, rho_BC, rho_BR, rho_B and sigma, plus the transpose channel
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(11), ("B", "C", "R"))
        built = {"states": 0, "channels": 0}

        def counting(cls, key):
            original = cls.__post_init__

            def post_init(self):
                built[key] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", post_init)

        counting(states.MultipartiteState, "states")
        counting(channels.Channel, "channels")
        experiments.transpose_reconstruction_metrics(rho)
        assert built["states"] <= 6
        assert built["channels"] == 1

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

    def test_mis_scaled_entropy_fails_classical_equality(self, monkeypatch):
        # mutation control: a base-e/base-2 mix must trip the equality check
        true_cmi = cmirecon.entropy.cmi

        def nats_cmi(*args, **kwargs):
            return true_cmi(*args, **kwargs) * math.log(2.0)

        monkeypatch.setattr(cmirecon.entropy, "cmi", nats_cmi)
        result = experiments._check_classical_equality(seed=1, n=10)
        assert not result.passed

    def test_markov_only_source_passes_certificate_trivially(self):
        def markov_sampler(rng):
            return markov.markov_state(markov.random_markov_spec(rng))

        result = experiments._check_recovery_certificate(seed=4, n=5, sampler=markov_sampler)
        assert result.passed
        assert not result.failures


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
