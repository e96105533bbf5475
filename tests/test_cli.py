import json

import numpy as np
import pytest

from cmirecon import cli, markov, recovery, states


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFigure1Command:
    def test_writes_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        svg_path = tmp_path / "r.svg"
        code, out, _ = run_cli(
            capsys,
            "figure1",
            "--seed", "3",
            "--samples", "25",
            "--out-csv", str(csv_path),
            "--out-json", str(json_path),
            "--out-svg", str(svg_path),
        )
        assert code == 0
        assert "strict_fraction" in out
        assert csv_path.read_text().startswith("sample_id,cmi_bits")
        summary = json.loads(json_path.read_text())
        assert summary["n_samples"] == 25
        assert svg_path.read_text().count("<circle") == 25

    def test_measured_re_nonconvergence_counted_in_summary(self, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "figure1", "--seed", "3", "--samples", "4", "--measured-re",
            "--out-csv", str(csv_path), "--out-json", str(json_path),
        )
        assert code == 0
        assert json.loads(json_path.read_text())["n_measured_re_nonconverged"] == 0
        # the flag is counted, not written: the CSV keeps its columns
        assert csv_path.read_text().splitlines()[0].endswith("strict,measured_re_transpose_bits")

    def test_measured_re_is_infinite_where_the_relative_entropy_is(self, tmp_path, capsys):
        # at d_R > d_C the transpose channel's reconstruction of a pure state
        # misses part of rho's support, and the measured RE sees it as S does
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "figure1", "--dims", "2,2,3", "--samples", "20", "--seed", "42", "--measured-re",
            "--out-csv", str(csv_path), "--out-json", str(json_path),
        )
        assert code == 0
        rows = csv_path.read_text().splitlines()
        header = rows[0].split(",")
        rel, ms = header.index("relent_transpose_bits"), header.index("measured_re_transpose_bits")
        cells = [row.split(",") for row in rows[1:]]
        assert len(cells) == 20
        assert [c[ms] == "inf" for c in cells] == [c[rel] == "inf" for c in cells]
        assert any(c[ms] == "inf" for c in cells)
        summary = json.loads(json_path.read_text())
        assert summary["n_infinite_relent"] == sum(c[ms] == "inf" for c in cells)
        assert summary["n_measured_re_nonconverged"] == 0
        # one of those states through recover's JSON writer
        path = tmp_path / "state.json"
        states.save_state(states.random_pure((2, 2, 3), states.rng_from_seed(7), ("B", "C", "R")), path)
        code, out, _ = run_cli(capsys, "recover", str(path), "--measured-re")
        assert code == 0
        doc = json.loads(out)
        assert doc["measured_re_transpose_bits"] is None and doc["measured_re_transpose_bits_is_infinite"]
        assert doc["relent_transpose_bits"] is None and doc["relent_transpose_bits_is_infinite"]
        assert doc["measured_re_converged"] is True

    def test_worker_flag_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(capsys, "figure1", "--seed", "42", "--samples", "30",
                       "--workers", "1", "--out-csv", str(a))[0] == 0
        assert run_cli(capsys, "figure1", "--seed", "42", "--samples", "30",
                       "--workers", "3", "--out-csv", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_dims_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["figure1", "--dims", "2,2"])
        assert err.value.code == 2

    def test_invalid_config_returns_2(self, capsys):
        code, _, errtext = run_cli(capsys, "figure1", "--samples", "0")
        assert code == 2
        assert "n_samples" in errtext

    def test_value_error_after_inputs_accepted_returns_1(self, capsys, monkeypatch):
        def broken_run(cfg):
            raise ValueError("invariant broke mid-run")

        monkeypatch.setattr("cmirecon.experiments.figure1_experiment", broken_run)
        code, _, errtext = run_cli(capsys, "figure1", "--samples", "3")
        assert code == 1
        assert "invariant broke mid-run" in errtext


class TestClassicalExampleCommand:
    def test_prints_report(self, capsys):
        code, out, _ = run_cli(capsys, "classical-example", "--d", "4", "--eps", "0.2")
        assert code == 0
        doc = json.loads(out)
        assert doc["d"] == 4
        assert "measured_bound_bits" in doc and "measured_bound_nats" in doc

    @pytest.mark.parametrize(
        "argv",
        [
            ["classical-example", "--d", "1"],
            ["classical-example", "--eps", "1.0"],
            ["classical-example", "--eps", "x"],
            ["optimize", "state.json", "--max-iterations", "-3"],
        ],
    )
    def test_bad_arguments_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2

    def test_writes_json(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        code, _, _ = run_cli(capsys, "classical-example", "--out-json", str(path))
        assert code == 0
        assert json.loads(path.read_text())["d"] == 16


class TestVerifyCommand:
    @pytest.mark.parametrize("flag", ["--samples", "--certificate-samples"])
    def test_zero_samples_is_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", flag, "0"])
        assert err.value.code == 2

    def test_passes_on_small_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--seed", "2", "--samples", "15", "--certificate-samples", "3"
        )
        assert code == 0
        lines = [l for l in out.strip().split("\n") if l.startswith("[")]
        assert len(lines) == 9
        assert all(l.startswith("[PASS]") for l in lines)

    def test_prints_each_check_runtime_after_the_results(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--seed", "2", "--samples", "3", "--certificate-samples", "1"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert all(l.startswith("[") for l in lines[:9])
        names = [l.split("] ", 1)[1].split(" (n=", 1)[0] for l in lines[:9]]
        assert [l.split(":", 1)[0] for l in lines[9:]] == [f"time {name}" for name in names]
        assert all(float(l.split(": ", 1)[1].removesuffix(" s")) >= 0 for l in lines[9:])

    def test_check_failure_gives_exit_one(self, capsys, monkeypatch):
        from cmirecon.experiments import CheckResult, SuiteReport

        def broken_suite(**kwargs):
            return SuiteReport(checks=[CheckResult("stub", 1, False, "forced", [0])])

        monkeypatch.setattr("cmirecon.experiments.inequality_suite", broken_suite)
        code, out, _ = run_cli(capsys, "verify", "--samples", "1")
        assert code == 1
        assert "[FAIL]" in out


class TestRecoverCommand:
    def test_reports_markov_state_at_origin(self, tmp_path, capsys):
        sigma = markov.markov_state(markov.random_markov_spec(states.rng_from_seed(1)))
        path = tmp_path / "state.json"
        states.save_state(sigma, path)
        code, out, _ = run_cli(capsys, "recover", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["cmi_bits"] < 1e-8
        assert doc["relent_transpose_bits"] < 1e-7
        assert doc["completion_used"] is False

    def test_reports_completion_for_singular_rho_b(self, tmp_path, capsys):
        # B embedded in dimension 4: rho_B has two zero eigenvalues
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(5), ("B", "C", "R"))
        big = np.zeros((4, 4, 4, 4), dtype=complex)
        big[:2, :, :2, :] = rho.matrix.reshape(2, 4, 2, 4)
        singular = states.MultipartiteState(big.reshape(16, 16), (("B", 4), ("C", 2), ("R", 2)))
        path = tmp_path / "state.json"
        states.save_state(singular, path)
        code, out, _ = run_cli(capsys, "recover", str(path))
        assert code == 0
        assert json.loads(out)["completion_used"] is True

    def test_measured_re_reports_convergence(self, tmp_path, capsys):
        rho = states.random_pure((2, 2, 2), states.sample_rng(11, 2), ("C", "B", "R"))
        path = tmp_path / "state.json"
        states.save_state(rho, path)
        code, out, _ = run_cli(capsys, "recover", str(path), "--measured-re")
        assert code == 0
        doc = json.loads(out)
        assert doc["measured_re_converged"] is True
        assert doc["measured_re_transpose_bits"] <= doc["relent_transpose_bits"] + 1e-7

    def test_negative_eigenvalue_is_usage_error(self, tmp_path, capsys):
        # unit trace, Hermitian and finite, but not positive: the loader's
        # boundary check is what rejects it
        weights = np.zeros(8)
        weights[:2] = [1.1, -0.1]
        doc = {
            "subsystems": [{"label": lab, "dim": 2} for lab in "BCR"],
            "matrix_re": np.diag(weights).tolist(),
            "matrix_im": np.zeros((8, 8)).tolist(),
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, _, errtext = run_cli(capsys, "recover", str(path))
        assert code == 2
        assert "eigenvalue" in errtext

    def test_missing_file_is_usage_error(self, capsys):
        code, _, errtext = run_cli(capsys, "recover", "/nonexistent/state.json")
        assert code == 2
        assert "error" in errtext

    @pytest.mark.parametrize("command", ["recover", "optimize"])
    def test_malformed_or_wrong_state_is_usage_error(self, tmp_path, capsys, command):
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        bipartite = tmp_path / "bipartite.json"
        states.save_state(states.random_pure((2, 2), states.rng_from_seed(3), ("B", "C")), bipartite)
        for path in (garbled, bipartite):
            code, _, errtext = run_cli(capsys, command, str(path))
            assert code == 2
            assert "error" in errtext


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "{dir}"],
        ["optimize", "{dir}"],
        ["figure1", "--samples", "2", "--out-csv", "{dir}/missing/r.csv"],
        ["figure1", "--samples", "2", "--out-json", "{dir}/missing/r.json"],
        ["classical-example", "--d", "2", "--out-json", "{dir}/missing/c.json"],
    ],
)
def test_unreadable_or_unwritable_path_is_usage_error(tmp_path, capsys, argv):
    code, _, errtext = run_cli(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 2
    assert "error" in errtext


class TestOptimizeCommand:
    def test_writes_result_json(self, tmp_path, capsys):
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(2), ("B", "C", "R"))
        state_path = tmp_path / "state.json"
        out_path = tmp_path / "result.json"
        states.save_state(rho, state_path)
        code, _, _ = run_cli(
            capsys,
            "optimize", str(state_path),
            "--max-iterations", "200",
            "--out-json", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["objective_kind"] == "fidelity"
        assert 0.0 < doc["best_value"] <= 1.0
        assert doc["converged"] in (True, False)
        assert doc["dual_gap"] < 1e-8 or not doc["converged"]
        assert doc["best_channel"]["input"] == [{"label": "B", "dim": 2}]

    def test_measured_re_objective(self, tmp_path, capsys):
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(7), ("B", "C", "R"))
        state_path = tmp_path / "state.json"
        states.save_state(rho, state_path)
        code, out, _ = run_cli(
            capsys,
            "optimize", str(state_path),
            "--objective", "measured_re",
            "--max-iterations", "3",
        )
        assert code == 0
        doc = json.loads(out)
        # the cap stops the search with its gap, in bits, still open
        assert isinstance(doc["dual_gap"], float)
        assert doc["dual_gap"] >= recovery.MEASURED_RE_GAP_TOL
        assert doc["converged"] is False
