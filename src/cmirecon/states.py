"""Multipartite density matrices with labeled subsystems.

Construction, tensor products, partial trace, purification, diagonal
(classical) states, and seeded Haar-random sampling. States are immutable,
are decomposed on first read, and keep the marginals taken of them.

What depends only on the subsystem layout (labels and dims, the partial
trace and permute plans, normalized subsystems) is worked out once per
layout and cached (``functools.lru_cache``, keyed by labels and dims, never
by matrix values); bad labels raise on every call, since a cache keeps no
exceptions.

Validation happens once, at the input boundary: ``MultipartiteState(...)``
and the JSON loaders check the density-matrix invariants. Every other
constructor here builds from input that is already checked (a valid state,
a random draw, a checked probability table) and skips that check; it
still validates its own arguments (labels, dimensions, tables).
"""

from __future__ import annotations

import functools
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


# Bound on each per-layout plan cache below; a program sees a handful of layouts.
PLAN_CACHE_SIZE = 256


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _layout(subsystems: Subsystems) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The labels and the dims of normalized subsystems."""
    return tuple(label for label, _ in subsystems), tuple(dim for _, dim in subsystems)


@dataclass(frozen=True)
class MultipartiteState:
    """Density matrix over an ordered list of labeled subsystems.

    Invariants checked by this constructor, the input boundary: the matrix
    is finite and Hermitian within 1e-9 (``linalg.eigh``), has unit trace
    within 1e-9, smallest eigenvalue >= -1e-9, and the subsystem dimensions
    multiply to the matrix size. The module's other constructors build
    states from checked input without repeating the check (``_derived``).
    The eigendecomposition is kept as ``spectrum``, this check's or made on
    first read, so entropies, roots and projectors need no second one.
    ``partial_trace`` keeps each marginal it takes, keyed by the kept labels
    in state order, so a marginal is built and decomposed at most once.
    """

    matrix: np.ndarray
    subsystems: Subsystems
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
            raise ValueError(f"state has eigenvalue {spectrum.eigenvalues[0]:.3e} below -{EIGENVALUE_ATOL}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "subsystems", subs)
        object.__setattr__(self, "spectrum", spectrum)  # seeds the cached property
        object.__setattr__(self, "_marginals", {})

    @functools.cached_property
    def spectrum(self) -> linalg.Spectrum:
        """The matrix's eigendecomposition, made once, on first read."""
        return linalg._spectrum(self.matrix)

    @property
    def labels(self) -> tuple[str, ...]:
        return _layout(self.subsystems)[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return _layout(self.subsystems)[1]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dim_of(self, label: str) -> int:
        for lab, dim in self.subsystems:
            if lab == label:
                return dim
        raise KeyError(f"unknown subsystem label {label!r}")


def _derived(matrix: np.ndarray, subsystems: Subsystems) -> MultipartiteState:
    """A state built from input the program has already checked.

    Skips the boundary check of ``MultipartiteState.__post_init__`` and
    decomposes nothing: the spectrum is made when first read. The matrix is
    kept read-only and complex; ``subsystems`` must already be normalized.
    """
    m = np.asarray(matrix, dtype=complex)
    state = object.__new__(MultipartiteState)
    m.setflags(write=False)
    object.__setattr__(state, "matrix", m)
    object.__setattr__(state, "subsystems", subsystems)
    object.__setattr__(state, "_marginals", {})
    return state


def _labelled(dims: Sequence[int], labels: Sequence[str] | None) -> Subsystems:
    """Normalized subsystems for ``dims``, labelled s0, s1, ... by default."""
    return _labelled_plan(tuple(dims), None if labels is None else tuple(map(str, labels)))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _labelled_plan(dims: tuple, labels: tuple | None) -> Subsystems:
    dims = tuple(int(d) for d in dims)
    labels = tuple(f"s{k}" for k in range(len(dims))) if labels is None else labels
    if len(labels) != len(dims):
        raise ValueError(f"{len(labels)} labels given for {len(dims)} subsystems")
    return _normalize_subsystems(zip(labels, dims))


def random_pure(
    dims: Sequence[int],
    rng: np.random.Generator,
    labels: Sequence[str] | None = None,
) -> MultipartiteState:
    """Haar-random pure state |psi><psi| on the given subsystem dimensions.

    |psi> is an i.i.d. standard complex Gaussian vector, normalized, which
    is Haar-distributed on the unit sphere.
    """
    subs = _labelled(dims, labels)
    d = math.prod(dim for _, dim in subs)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return _derived(np.outer(psi, psi.conj()), subs)


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
    subs = _labelled(dims, labels)
    d = math.prod(dim for _, dim in subs)
    ancilla_dim = d if ancilla_dim is None else int(ancilla_dim)
    if ancilla_dim < 1:
        raise ValueError(f"ancilla dimension must be >= 1, got {ancilla_dim}")
    psi = rng.standard_normal(d * ancilla_dim) + 1j * rng.standard_normal(d * ancilla_dim)
    m = psi.reshape(d, ancilla_dim) / np.linalg.norm(psi)
    return _derived(m @ m.conj().T, subs)


def partial_trace(state: MultipartiteState, keep: Iterable[str] | str) -> MultipartiteState:
    """Reduced state on the ``keep`` subsystems, label order preserved.

    The marginal is kept on ``state``, so asking again for the same labels,
    in any order, returns the same object.
    """
    if isinstance(keep, str):
        keep = (keep,)
    key, shape, trace_axes, kept_subs, d = _trace_plan(state.subsystems, frozenset(keep))
    marginal = state._marginals.get(key)
    if marginal is None:
        t = state.matrix.reshape(shape)
        for axis1, axis2 in trace_axes:
            t = np.trace(t, axis1=axis1, axis2=axis2)
        marginal = _derived(t.reshape(d, d), kept_subs)
        state._marginals[key] = marginal
    return marginal


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _trace_plan(subsystems: Subsystems, keep: frozenset):
    """How ``partial_trace`` reduces a layout to the ``keep`` labels.

    Returns the marginal's key (the kept labels in state order), the
    tensor shape of the matrix, the axis pairs to trace one after the
    other (last subsystem first), the kept subsystems and their dimension.
    """
    labels, dims = _layout(subsystems)
    unknown = keep - set(labels)
    if unknown:
        raise ValueError(f"unknown subsystem labels {sorted(unknown)}; state has {labels}")
    if not keep:
        raise ValueError("must keep at least one subsystem")
    key = tuple(label for label in labels if label in keep)
    remaining = list(range(len(dims)))
    trace_axes = []
    for pos in sorted((i for i, lab in enumerate(labels) if lab not in keep), reverse=True):
        k = remaining.index(pos)
        trace_axes.append((k, k + len(remaining)))
        remaining.pop(k)
    kept_subs = tuple(subsystems[i] for i in remaining)
    d = math.prod(dim for _, dim in kept_subs)
    return key, dims + dims, tuple(trace_axes), kept_subs, d


def tensor(a: MultipartiteState, b: MultipartiteState) -> MultipartiteState:
    """Kronecker product of two states; labels are concatenated."""
    collision = set(a.labels) & set(b.labels)
    if collision:
        raise ValueError(f"subsystem labels {sorted(collision)} appear in both factors")
    return _derived(np.kron(a.matrix, b.matrix), a.subsystems + b.subsystems)


def permute(state: MultipartiteState, order: Sequence[str]) -> MultipartiteState:
    """Reorder subsystems to the given label order (an index permutation)."""
    plan = _permute_plan(state.subsystems, tuple(order))
    if plan is None:
        return state
    shape, axes, subs = plan
    tensor_form = state.matrix.reshape(shape).transpose(axes)
    return _derived(tensor_form.reshape(state.dim, state.dim), subs)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _permute_plan(subsystems: Subsystems, order: tuple):
    """How ``permute`` reorders a layout: ``None`` when ``order`` is the
    layout's own, else the tensor shape, the axis permutation and the
    reordered subsystems."""
    labels, dims = _layout(subsystems)
    if sorted(order) != sorted(labels):
        raise ValueError(f"{order} is not a permutation of {labels}")
    if order == labels:
        return None
    perm = [labels.index(lab) for lab in order]
    n = len(dims)
    return dims + dims, tuple(perm + [p + n for p in perm]), tuple(subsystems[p] for p in perm)


def purify(state: MultipartiteState, ancilla_label: str) -> MultipartiteState:
    """Pure state on system (x) ancilla whose ancilla marginal equals ``state``.

    The ancilla dimension is the rank of the state (at least 1), so the
    purification is as small as possible; any other purification differs
    only by an isometry on the ancilla.
    """
    ancilla_label = str(ancilla_label)
    if ancilla_label in state.labels:
        raise ValueError(f"ancilla label {ancilla_label!r} collides with {state.labels}")
    root = state.spectrum.root
    if root.shape[1] == 0:
        raise ValueError("state has numerically empty support")
    # psi[(a, k)] = sqrt(w_k) v_k[a] over the kept eigenpairs
    psi = root.reshape(-1)
    subs = state.subsystems + ((ancilla_label, root.shape[1]),)
    return _derived(np.outer(psi, psi.conj()), subs)


def classical_state(table: np.ndarray, labels: Sequence[str]) -> MultipartiteState:
    """Diagonal density matrix for a joint probability table.

    ``table`` has one axis per subsystem (C-order flattening matches the
    computational product basis). Entries must be finite, nonnegative and
    sum to 1 within 1e-12; that check stands in for the state's own.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != len(tuple(labels)):
        raise ValueError(
            f"table has {table.ndim} axes but {len(tuple(labels))} labels were given"
        )
    if not np.all(np.isfinite(table)):
        raise ValueError("probability table has non-finite entries")
    if np.any(table < 0):
        raise ValueError("probability table has negative entries")
    total = float(table.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probability table sums to {total!r}, not 1")
    subs = _normalize_subsystems(zip(labels, table.shape))
    return _derived(np.diag(table.ravel()).astype(complex), subs)


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
