"""Multipartite density matrices with labeled subsystems.

Construction, tensor products, partial trace, purification, diagonal
(classical) states, and seeded Haar-random sampling. States are immutable;
every constructor validates the density-matrix invariants and keeps the
eigendecomposition that check makes, and each state keeps the marginals
taken of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import linalg

TRACE_ATOL = 1e-9
EIGENVALUE_ATOL = 1e-9

Subsystems = tuple[tuple[str, int], ...]

_U64 = (1 << 64) - 1


def _philox_key(seed: int, index: int) -> int:
    # 128-bit Philox key from (seed, stream index); counter-based keying
    # makes parallel sampling independent of worker layout.
    return ((seed & _U64) << 64) | (index & _U64)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic random stream for one (seed, sample index) pair.

    Identical arguments produce bitwise-identical sample sequences across
    runs and platforms, so parallel workers can draw sample ``index``
    without coordinating.
    """
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, index)))


def rng_from_seed(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed (stream index 0)."""
    return sample_rng(seed, 0)


def _normalize_subsystems(subsystems: Iterable) -> Subsystems:
    subs = tuple((str(label), int(dim)) for label, dim in subsystems)
    if not subs:
        raise ValueError("at least one subsystem is required")
    labels = [label for label, _ in subs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate subsystem labels in {labels}")
    for label, dim in subs:
        if dim < 1:
            raise ValueError(f"subsystem {label!r} has dimension {dim} < 1")
    return subs


@dataclass(frozen=True)
class MultipartiteState:
    """Density matrix over an ordered list of labeled subsystems.

    Invariants checked at construction: the matrix is finite and Hermitian
    within 1e-9 (``linalg.eigh``), has unit trace within 1e-9, smallest
    eigenvalue >= -1e-9, and the subsystem dimensions multiply to the
    matrix size. The eigendecomposition made by that check is kept as
    ``spectrum``, so entropies, roots and projectors of the state need no
    second one. ``partial_trace`` keeps each marginal it takes on the
    state, keyed by the kept labels in state order, so a marginal is built
    and decomposed once per state.
    """

    matrix: np.ndarray
    subsystems: Subsystems
    spectrum: linalg.Spectrum = field(init=False, repr=False, compare=False)
    _marginals: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        subs = _normalize_subsystems(self.subsystems)
        spectrum = linalg.eigh(m)
        d = math.prod(dim for _, dim in subs)
        if m.shape[0] != d:
            raise ValueError(
                f"subsystem dimensions {tuple(dim for _, dim in subs)} "
                f"multiply to {d}, but the matrix is {m.shape[0]}x{m.shape[0]}"
            )
        tr = float(m.trace().real)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"state trace {tr!r} is not 1 within {TRACE_ATOL}")
        if spectrum.eigenvalues[0] < -EIGENVALUE_ATOL:
            raise ValueError(
                f"state has eigenvalue {spectrum.eigenvalues[0]:.3e} below -{EIGENVALUE_ATOL}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "subsystems", subs)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "_marginals", {})

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dim_of(self, label: str) -> int:
        for lab, dim in self.subsystems:
            if lab == label:
                return dim
        raise KeyError(f"unknown subsystem label {label!r}")


def random_pure(
    dims: Sequence[int],
    rng: np.random.Generator,
    labels: Sequence[str] | None = None,
) -> MultipartiteState:
    """Haar-random pure state |psi><psi| on the given subsystem dimensions.

    |psi> is an i.i.d. standard complex Gaussian vector, normalized, which
    is Haar-distributed on the unit sphere.
    """
    dims = tuple(int(d) for d in dims)
    if labels is None:
        labels = tuple(f"s{k}" for k in range(len(dims)))
    d = math.prod(dims)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return MultipartiteState(np.outer(psi, psi.conj()), tuple(zip(labels, dims)))


def random_mixed(
    dims: Sequence[int],
    rng: np.random.Generator,
    labels: Sequence[str] | None = None,
    ancilla_dim: int | None = None,
) -> MultipartiteState:
    """Random mixed state: the marginal of a Haar-random purification.

    Built as M M^dag / tr(M M^dag) for an i.i.d. complex Gaussian d x d_anc
    matrix M, which has exactly that distribution (Zyczkowski-Sommers), from
    the draws ``random_pure`` makes on ``dims + (d_anc,)``. ``ancilla_dim``
    (d_anc) sets the rank, almost surely full at its default, the full dimension.
    """
    dims = tuple(int(d) for d in dims)
    if labels is None:
        labels = tuple(f"s{k}" for k in range(len(dims)))
    d = math.prod(dims)
    ancilla_dim = d if ancilla_dim is None else int(ancilla_dim)
    if ancilla_dim < 1 or any(dim < 1 for dim in dims):
        raise ValueError(f"dimensions must be >= 1, got {dims} and ancilla {ancilla_dim}")
    psi = rng.standard_normal(d * ancilla_dim) + 1j * rng.standard_normal(d * ancilla_dim)
    m = psi.reshape(d, ancilla_dim) / np.linalg.norm(psi)
    return MultipartiteState(m @ m.conj().T, tuple(zip(labels, dims)))


def partial_trace(state: MultipartiteState, keep: Iterable[str] | str) -> MultipartiteState:
    """Reduced state on the ``keep`` subsystems, label order preserved.

    The marginal is kept on ``state``, so asking again for the same labels,
    in any order, returns the same object.
    """
    if isinstance(keep, str):
        keep = [keep]
    keep_set = set(keep)
    labels = state.labels
    unknown = keep_set - set(labels)
    if unknown:
        raise ValueError(f"unknown subsystem labels {sorted(unknown)}; state has {labels}")
    if not keep_set:
        raise ValueError("must keep at least one subsystem")
    key = tuple(label for label in labels if label in keep_set)
    if key in state._marginals:
        return state._marginals[key]

    dims = list(state.dims)
    n = len(dims)
    t = state.matrix.reshape(dims + dims)
    remaining = list(range(n))
    for pos in sorted((i for i, lab in enumerate(labels) if lab not in keep_set), reverse=True):
        k = remaining.index(pos)
        t = np.trace(t, axis1=k, axis2=k + len(remaining))
        remaining.pop(k)
    kept_subs = tuple(state.subsystems[i] for i in remaining)
    d = math.prod(dim for _, dim in kept_subs)
    marginal = MultipartiteState(t.reshape(d, d), kept_subs)
    state._marginals[key] = marginal
    return marginal


def tensor(a: MultipartiteState, b: MultipartiteState) -> MultipartiteState:
    """Kronecker product of two states; labels are concatenated."""
    collision = set(a.labels) & set(b.labels)
    if collision:
        raise ValueError(f"subsystem labels {sorted(collision)} appear in both factors")
    return MultipartiteState(np.kron(a.matrix, b.matrix), a.subsystems + b.subsystems)


def permute(state: MultipartiteState, order: Sequence[str]) -> MultipartiteState:
    """Reorder subsystems to the given label order (an index permutation)."""
    order = tuple(order)
    if sorted(order) != sorted(state.labels):
        raise ValueError(f"{order} is not a permutation of {state.labels}")
    if order == state.labels:
        return state
    perm = [state.labels.index(lab) for lab in order]
    dims = list(state.dims)
    n = len(dims)
    tensor_form = state.matrix.reshape(dims + dims)
    tensor_form = tensor_form.transpose(perm + [p + n for p in perm])
    subs = tuple(state.subsystems[p] for p in perm)
    return MultipartiteState(tensor_form.reshape(state.dim, state.dim), subs)


def purify(state: MultipartiteState, ancilla_label: str) -> MultipartiteState:
    """Pure state on system (x) ancilla whose ancilla marginal equals ``state``.

    The ancilla dimension is the rank of the state (at least 1), so the
    purification is as small as possible; any other purification differs
    only by an isometry on the ancilla.
    """
    if ancilla_label in state.labels:
        raise ValueError(f"ancilla label {ancilla_label!r} collides with {state.labels}")
    spec = state.spectrum
    keep = spec.eigenvalues > linalg.support_cutoff(spec.eigenvalues)
    if not np.any(keep):
        raise ValueError("state has numerically empty support")
    # psi[(a, k)] = sqrt(w_k) v_k[a] over the kept eigenpairs
    psi = (spec.eigenvectors[:, keep] * np.sqrt(spec.eigenvalues[keep])).reshape(-1)
    subs = state.subsystems + ((ancilla_label, int(np.count_nonzero(keep))),)
    return MultipartiteState(np.outer(psi, psi.conj()), subs)


def classical_state(table: np.ndarray, labels: Sequence[str]) -> MultipartiteState:
    """Diagonal density matrix for a joint probability table.

    ``table`` has one axis per subsystem (C-order flattening matches the
    computational product basis). Entries must be nonnegative and sum to
    1 within 1e-12.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != len(tuple(labels)):
        raise ValueError(
            f"table has {table.ndim} axes but {len(tuple(labels))} labels were given"
        )
    if np.any(table < 0):
        raise ValueError("probability table has negative entries")
    total = float(table.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probability table sums to {total!r}, not 1")
    subs = tuple(zip(labels, table.shape))
    return MultipartiteState(np.diag(table.ravel()).astype(complex), subs)


def classical_example_state(d: int, eps: float) -> MultipartiteState:
    """Classically correlated benchmark state on (C, B, R).

    C and R are d-dimensional and perfectly correlated: weight 1-eps on
    (0,0) and eps spread uniformly over (k,k) for k = 1..d-1. B is a
    maximally mixed qubit, uncorrelated with the rest, so every entropic
    quantity of interest is independent of its dimension.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    p_cr = np.full(d, eps / (d - 1))
    p_cr[0] = 1.0 - eps
    table = np.diag(p_cr)[:, None, :] * np.full((2, 1), 0.5)  # (C, B, R)
    return classical_state(table, ("C", "B", "R"))


# --- JSON interchange -------------------------------------------------------

def to_json_dict(state: MultipartiteState) -> dict:
    return {
        "subsystems": [{"label": lab, "dim": dim} for lab, dim in state.subsystems],
        "matrix_re": state.matrix.real.tolist(),
        "matrix_im": state.matrix.imag.tolist(),
    }


def from_json_dict(data: dict) -> MultipartiteState:
    try:
        subs = tuple((item["label"], int(item["dim"])) for item in data["subsystems"])
        matrix = np.asarray(data["matrix_re"], dtype=float) + 1j * np.asarray(
            data["matrix_im"], dtype=float
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    return MultipartiteState(matrix, subs)


def save_state(state: MultipartiteState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(state), fh)


def load_state(path) -> MultipartiteState:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
