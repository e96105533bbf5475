"""Mutation probe for the test gates: does ``pytest -x tests`` catch each mutant?

A mutant is one textual edit of a source file, ``old`` -> ``new``, where
``old`` occurs exactly once in that file. Each mutant is applied to a fresh
copy of this checkout in a temporary directory, and the copy's tests run
with ``pytest -x``. A mutant is caught when that run fails. One line per
mutant is printed (caught or survived, the seconds taken and the first
failing test), then a summary line. The exit code is 1 when any mutant
survived or cannot be applied, else 0.

Run from anywhere; each mutant takes from a few seconds (caught early) to
a full tier-1 run (survived), about 8 minutes in all on 2 cores:

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


MUTANTS = (
    Mutant(
        "looser-support-leak", "src/cmirecon/entropy.py",
        "SUPPORT_LEAK_TOL = 1e-9", "SUPPORT_LEAK_TOL = 1e-6",
    ),
    Mutant(
        "dual-gap-without-d-b", "src/cmirecon/recovery.py",
        "return self.d_b * max(float(np.linalg.eigvalsh(self.dual_slack(v, grad, m))[-1]), 0.0)",
        "return max(float(np.linalg.eigvalsh(self.dual_slack(v, grad, m))[-1]), 0.0)",
    ),
    Mutant(
        "no-transpose-completion", "src/cmirecon/channels.py",
        "    if spec_b.kernel:\n", "    if False:\n",
    ),
    Mutant(
        "support-rtol", "src/cmirecon/linalg.py",
        "SUPPORT_RTOL = 1e-10", "SUPPORT_RTOL = 1e-6",
    ),
    Mutant(
        "dual-gap-tol", "src/cmirecon/recovery.py",
        "DUAL_GAP_TOL = 5e-9", "DUAL_GAP_TOL = 5e-6",
    ),
    Mutant(
        "mre-decrement-tolerance", "src/cmirecon/entropy.py",
        "MRE_DECREMENT_TOLERANCE = 1e-12", "MRE_DECREMENT_TOLERANCE = 1e-8",
    ),
    Mutant(
        "widening-trailing-slack", "src/cmirecon/recovery.py",
        "np.linalg.eigh(slack)[1][:, ::-1]", "np.linalg.eigh(slack)[1]",
    ),
    Mutant(
        "xi-gap-tol", "src/cmirecon/recovery.py",
        "XI_GAP_TOL = 1e-10", "XI_GAP_TOL = 1e-7",
    ),
    Mutant(
        "strict-tol", "src/cmirecon/experiments.py",
        "STRICT_TOL = 1e-9", "STRICT_TOL = 1e-6",
    ),
    Mutant(
        "choi-psd-atol", "src/cmirecon/channels.py",
        "CHOI_PSD_ATOL = 1e-9", "CHOI_PSD_ATOL = 1e-3",
    ),
    Mutant(
        "kernel-size-strict", "src/cmirecon/linalg.py",
        "np.count_nonzero(eigenvalues <= support_cutoff(eigenvalues))",
        "np.count_nonzero(eigenvalues < support_cutoff(eigenvalues))",
    ),
    Mutant(
        "root-from-zero", "src/cmirecon/linalg.py",
        "root = self.eigenvectors[:, k:] * np.sqrt(w[k:])",
        "root = self.eigenvectors[:, 0:] * np.sqrt(np.maximum(w[0:], 0.0))",
    ),
    Mutant(
        # the state boundary's check no longer seeds the cached spectrum,
        # so the first read decomposes the matrix a second time
        "unseeded-spectrum", "src/cmirecon/states.py",
        '        object.__setattr__(self, "spectrum", spectrum)  # seeds the cached property\n', "",
    ),
    Mutant(
        # stinespring_to_channel held to the isometry tolerance only
        "stinespring-tp-unchecked", "src/cmirecon/channels.py",
        "    _check_trace_preserving(choi, d_in, d_out)\n    return _derived(choi, ins, outs)",
        "    return _derived(choi, ins, outs)",
    ),
    Mutant(
        # the measured-RE solve takes rho's round-off-negative eigenvalues as they are
        "mre-rho-unclipped", "src/cmirecon/entropy.py",
        "w_rho = np.maximum(rho_spec.eigenvalues, 0.0)", "w_rho = rho_spec.eigenvalues",
    ),
    Mutant(
        # the measured-RE solve no longer mixes a singular sigma
        "mre-sigma-unmixed", "src/cmirecon/entropy.py",
        "w_sigma = (1.0 - SIGMA_REGULARIZATION) * np.maximum(w_sigma, 0.0) + SIGMA_REGULARIZATION / d",
        "w_sigma = np.maximum(w_sigma, 0.0)",
    ),
    Mutant(
        # the measured-RE solve climbs from the identity start only
        "mre-one-start", "src/cmirecon/entropy.py",
        "for h0 in (np.zeros((d, d), dtype=complex), warm):",
        "for h0 in (np.zeros((d, d), dtype=complex),):",
    ),
    Mutant(
        # each measured-RE recovery evaluation's inner solve capped at 20 Newton steps
        "inner-budget", "src/cmirecon/recovery.py",
        "INNER_MEASURED_RE_ITERATIONS = 200", "INNER_MEASURED_RE_ITERATIONS = 20",
    ),
    Mutant(
        # the search's environment cut from the Choi dimension d_B d_BC to d_BC
        "d-env-kraus", "src/cmirecon/recovery.py",
        "self.d_env = self.d_b * self.d_bc", "self.d_env = self.d_bc",
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


def run_mutant(mutant: Mutant) -> tuple[bool, float, str]:
    """Apply one mutant to a copy of this checkout and run its tests with ``pytest -x``.

    Returns whether the run failed (the mutant was caught), the seconds it
    took and the first failing test, or ``""``.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        path = tree / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new, 1), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        # test_mutants.py checks this list against the unmutated tree, so
        # in the mutated copy it would catch every mutant
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
            "--ignore", "tests/test_mutants.py", "tests",
        ]
        start = time.perf_counter()
        out = subprocess.run(
            command,
            cwd=tree, env=env, capture_output=True, text=True,
        )
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
