"""Mutation probe for the test gates: does ``pytest -x tests`` catch each mutant?

A mutant is one textual edit of a source file, ``old`` -> ``new``, where
``old`` occurs exactly once in that file, and ``catcher``, the pytest node
id of a test that catches it. Each mutant is applied to a fresh copy of
this checkout in a temporary directory, where its catcher runs first; only
when the catcher passes do the copy's tests run with ``pytest -x``, so a
survivor is still judged by the whole suite. A mutant is caught when a
run fails. One line per mutant is printed (caught or survived, the seconds
taken and the first failing test), then a summary line. The exit code is
1 when any mutant survived or cannot be applied, else 0.

Run from anywhere; a mutant its catcher catches takes a few seconds, a
survivor a full tier-1 run:

    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    catcher: str


MUTANTS = (
    Mutant(
        "looser-support-leak", "src/cmirecon/entropy.py",
        "SUPPORT_LEAK_TOL = 1e-9", "SUPPORT_LEAK_TOL = 1e-6",
        "tests/test_entropy.py::TestSupportLeakEdge::test_leak_above_the_tolerance_is_infinite",
    ),
    Mutant(
        "dual-gap-without-d-b", "src/cmirecon/recovery.py",
        "return self.d_b * max(float(np.linalg.eigvalsh(self.dual_slack(v, grad, m))[-1]), 0.0)",
        "return max(float(np.linalg.eigvalsh(self.dual_slack(v, grad, m))[-1]), 0.0)",
        "tests/test_properties.py::test_fidelity_bound_holds_at_random_channels",
    ),
    Mutant(
        "no-transpose-completion", "src/cmirecon/channels.py",
        "    if not spec_b.kernel:\n", "    if True:\n",
        "tests/test_channels.py::TestKrausOperators::test_completion_routes_the_kernel_to_rho_bc[0]",
    ),
    Mutant(
        "support-rtol", "src/cmirecon/linalg.py",
        "SUPPORT_RTOL = 1e-10", "SUPPORT_RTOL = 1e-6",
        "tests/test_acceptance.py::test_markov_recovery_exactness",
    ),
    Mutant(
        "dual-gap-tol", "src/cmirecon/recovery.py",
        "DUAL_GAP_TOL = 5e-9", "DUAL_GAP_TOL = 5e-6",
        "tests/test_recovery.py::TestSearchEvaluations::test_fidelity_evaluates_each_trial_point_once",
    ),
    Mutant(
        "mre-decrement-tolerance", "src/cmirecon/entropy.py",
        "MRE_DECREMENT_TOLERANCE = 1e-12", "MRE_DECREMENT_TOLERANCE = 1e-8",
        "tests/test_entropy.py::TestTwoDeterministicStarts::test_matches_the_best_of_random_starts[pure-222-0]",
    ),
    Mutant(
        "widening-trailing-slack", "src/cmirecon/recovery.py",
        "np.linalg.eigh(slack)[1][:, ::-1]", "np.linalg.eigh(slack)[1]",
        "tests/test_recovery.py::TestDualBound::test_widening_sets_the_zero_columns_along_the_slack",
    ),
    Mutant(
        "xi-gap-tol", "src/cmirecon/recovery.py",
        "XI_GAP_TOL = 1e-10", "XI_GAP_TOL = 1e-7",
        "tests/test_recovery.py::TestUhlmannRoute::test_boundary_targets_certify_on_the_route[rank2_rho_c_in_dc3]",
    ),
    Mutant(
        "strict-tol", "src/cmirecon/experiments.py",
        "STRICT_TOL = 1e-9", "STRICT_TOL = 1e-6",
        "tests/test_experiments.py::TestFigure1::test_strict_is_pinned_at_its_tolerance[5e-08-True]",
    ),
    Mutant(
        "choi-psd-atol", "src/cmirecon/channels.py",
        "CHOI_PSD_ATOL = 1e-9", "CHOI_PSD_ATOL = 1e-3",
        "tests/test_channels.py::TestChannelValidation::test_rejects_a_small_negative_eigenvalue",
    ),
    Mutant(
        "kernel-size-strict", "src/cmirecon/linalg.py",
        "np.count_nonzero(eigenvalues <= support_cutoff(eigenvalues))",
        "np.count_nonzero(eigenvalues < support_cutoff(eigenvalues))",
        "tests/test_linalg.py::TestSpectrumSplit::test_an_eigenvalue_at_the_cutoff_is_in_the_kernel",
    ),
    Mutant(
        "root-from-zero", "src/cmirecon/linalg.py",
        "root = self.eigenvectors[:, k:] * np.sqrt(w[k:])",
        "root = self.eigenvectors[:, 0:] * np.sqrt(np.maximum(w[0:], 0.0))",
        "tests/test_channels.py::TestKrausOperators::test_completion_routes_the_kernel_to_rho_bc[0]",
    ),
    Mutant(
        # the state boundary's check no longer seeds the cached spectrum,
        # so the first read decomposes the matrix a second time
        "unseeded-spectrum", "src/cmirecon/states.py",
        '        object.__setattr__(self, "spectrum", spectrum)  # seeds the cached property\n', "",
        "tests/test_states.py::TestDecomposedOnFirstRead::test_the_boundary_decomposes_once",
    ),
    Mutant(
        # stinespring_to_channel held to the isometry tolerance only
        "stinespring-tp-unchecked", "src/cmirecon/channels.py",
        "    _check_trace_preserving(choi, d_in, d_out)\n    return _derived(choi, ins, outs)",
        "    return _derived(choi, ins, outs)",
        "tests/test_channels.py::TestStinespring::test_trace_preservation_is_held_to_the_channel_boundary",
    ),
    Mutant(
        # the measured-RE solve takes rho's round-off-negative eigenvalues as they are
        "mre-rho-unclipped", "src/cmirecon/entropy.py",
        "w_rho = np.maximum(rho_spec.eigenvalues, 0.0)", "w_rho = rho_spec.eigenvalues",
        "tests/test_entropy.py::TestMeasuredRelativeEntropy::test_round_off_negative_rho_is_clipped",
    ),
    Mutant(
        # the measured-RE solve no longer mixes a singular sigma
        "mre-sigma-unmixed", "src/cmirecon/entropy.py",
        "w_sigma = (1.0 - SIGMA_REGULARIZATION) * np.maximum(w_sigma, 0.0) + SIGMA_REGULARIZATION / d",
        "w_sigma = np.maximum(w_sigma, 0.0)",
        "tests/test_cli.py::TestFigure1Command::test_measured_re_nonconvergence_counted_in_summary",
    ),
    Mutant(
        # the measured-RE solve climbs from the identity start only
        "mre-one-start", "src/cmirecon/entropy.py",
        "for h0 in (np.zeros((d, d), dtype=complex), warm):",
        "for h0 in (np.zeros((d, d), dtype=complex),):",
        "tests/test_entropy.py::TestTwoDeterministicStarts::test_log_ratio_start_solves_a_commuting_pair[0]",
    ),
    Mutant(
        # each measured-RE recovery evaluation's inner solve capped at 20 Newton steps
        "inner-budget", "src/cmirecon/recovery.py",
        "INNER_MEASURED_RE_ITERATIONS = 200", "INNER_MEASURED_RE_ITERATIONS = 20",
        "tests/test_recovery.py::TestInnerConvergence::test_budget_covers_every_inner_solve_of_a_pure_target",
    ),
    Mutant(
        # the search's environment cut from the Choi dimension d_B d_BC to d_BC
        "d-env-kraus", "src/cmirecon/recovery.py",
        "self.d_env = self.d_b * self.d_bc", "self.d_env = self.d_bc",
        "tests/test_cli.py::TestOptimizeCommand::test_measured_re_objective",
    ),
    Mutant(
        # the ascent's first step no longer sets the start's zero Kraus columns
        "widening-skipped", "src/cmirecon/recovery.py",
        "        if steps == 0:\n", "        if False:\n",
        "tests/test_recovery.py::TestSingularMarginal::test_search_over_every_channel_certifies[fidelity]",
    ),
    Mutant(
        # the fidelity gradient divides by the roots of the kernel's eigenvalues too
        "gradient-over-kernel", "src/cmirecon/recovery.py",
        "k = linalg.kernel_size(lam)", "k = 0",
        "tests/test_recovery.py::TestFidelityGradient::test_gradient_reads_only_the_support_of_w_sigma_w",
    ),
    Mutant(
        # the transpose channel's completion reads rho_B's kernel vectors unconjugated
        "completion-unconjugated", "src/cmirecon/channels.py",
        "k.conj()", "k",
        "tests/test_channels.py::TestKrausOperators::test_completion_routes_the_kernel_to_rho_bc[0]",
    ),
    Mutant(
        # the witness objective reads every eigenvalue's log, the non-positive ones too
        "witness-kernel-unread", "src/cmirecon/entropy.py",
        "int(np.count_nonzero(spec.eigenvalues <= 0.0))", "0",
        "tests/test_entropy.py::TestWitnessObjective::test_rho_on_a_non_positive_eigenvalue_gives_minus_infinity",
    ),
    Mutant(
        # a point where W^dag sigma W is singular bounds the fidelity again
        "singular-bound-certified", "src/cmirecon/recovery.py",
        "math.inf if k else float(root.sum())", "float(root.sum())",
        "tests/test_recovery.py::TestDualBound::test_a_singular_w_sigma_w_bounds_nothing",
    ),
)

# what a test run leaves behind, not copied into the mutant's tree
_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".work-*", "*.egg-info"
)


def unapplicable(root: Path = ROOT) -> dict[str, str]:
    """The mutants whose ``old`` does not occur exactly once in ``root``, by name, with why."""
    problems = {}
    for m in MUTANTS:
        path = root / m.file
        count = path.read_text(encoding="utf-8").count(m.old) if path.is_file() else 0
        if count != 1:
            problems[m.name] = f"{m.file} holds its old text {count} time(s)"
    return problems


def _pytest(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """``pytest -x`` on ``args`` in ``tree``, importing cmirecon from the tree's src/."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *args]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def run_mutant(mutant: Mutant) -> tuple[bool, float, str]:
    """Apply one mutant to a copy of this checkout and run its catcher, then if need be its tests.

    Returns whether a run failed (the mutant was caught), the seconds both
    runs took and the first failing test, or ``""``. Only a failing test
    counts for the catcher: a catcher that passes, or cannot be collected,
    hands the mutant to the whole suite.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        path = tree / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new, 1), encoding="utf-8")
        start = time.perf_counter()
        out = _pytest(tree, mutant.catcher)
        # pytest exits 1 when a test failed, 4 when the node id is not found
        if out.returncode != 1:
            # test_mutants.py checks this list against the unmutated tree, so
            # in the mutated copy it would catch every mutant
            out = _pytest(tree, "--ignore", "tests/test_mutants.py", "tests")
        seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.M)
    return out.returncode != 0, seconds, failed.group(1) if failed else ""


def main() -> int:
    problems = unapplicable()
    for name, why in problems.items():
        print(f"cannot apply {name}: {why}")
    caught = survived = 0
    for m in MUTANTS:
        if m.name in problems:
            continue
        was_caught, seconds, first = run_mutant(m)
        caught += was_caught
        survived += not was_caught
        verdict = "caught  " if was_caught else "SURVIVED"
        print(f"{verdict} {m.name:26} {seconds:7.1f} s  {first}", flush=True)
    print(f"# {caught} caught, {survived} survived, {len(problems)} not applicable")
    return int(bool(survived or problems))


if __name__ == "__main__":
    sys.exit(main())
