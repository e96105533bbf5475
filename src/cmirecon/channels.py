"""Quantum channels in Choi form.

Application to labeled states, CPTP validation, the transpose recovery
channel built from a bipartite state with its Kraus operators (and the
universal recovery map's), and random channels through Stinespring
isometries. Both derived constructors build their Choi matrix from a Kraus
stack (``_choi``).

Validation happens at the input boundary: ``Channel(...)`` and the JSON
loader check the CPTP invariants, ``stinespring_to_channel`` its isometry
and trace preservation (its Choi matrix is positive by construction). The
transpose channel and the state ``apply`` returns are built from checked
input and skip the check; both still check their arguments.
``apply`` checks its labels and builds its einsum operand lists once per
(state layout, channel layout, ``on``) and caches that plan
(``functools.lru_cache``); bad labels raise on every call.

Choi convention: choi = (id (x) channel)(|O><O|) with |O> the unnormalized
maximally entangled vector, scaled so that tracing out the output leaves
the identity on the input. Channel application then needs no dimension
factor: channel(pi) = tr_in[(pi^T (x) I) choi].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg, states
from .states import MultipartiteState, Subsystems, _normalize_subsystems

CHOI_PSD_ATOL = 1e-9
# no looser than the state boundary, so an accepted channel maps a valid
# state to one that MultipartiteState accepts
TRACE_PRESERVING_ATOL = states.TRACE_ATOL
ISOMETRY_ATOL = 1e-6


@dataclass(frozen=True)
class Channel:
    """Completely positive trace-preserving map in Choi form.

    The Choi matrix lives on input (x) output with the input factor first.
    This constructor, the input boundary, checks that it is finite and
    Hermitian (``linalg.eigh``), positivity (min eigenvalue >= -1e-9) and
    trace preservation (tr_out choi = identity on the input, within
    TRACE_PRESERVING_ATOL, the state boundary's unit-trace tolerance).
    ``transpose_channel`` skips the check and ``stinespring_to_channel``
    keeps only trace preservation (``_derived``).
    """

    choi: np.ndarray
    input_dims: Subsystems
    output_dims: Subsystems

    def __post_init__(self):
        m = np.asarray(self.choi, dtype=complex)
        ins = _normalize_subsystems(self.input_dims)
        outs = _normalize_subsystems(self.output_dims)
        d_in = math.prod(d for _, d in ins)
        d_out = math.prod(d for _, d in outs)
        if m.shape != (d_in * d_out, d_in * d_out):
            raise ValueError(
                f"Choi matrix shape {m.shape} does not match input {d_in} x output {d_out}"
            )
        lowest = linalg.eigh(m).eigenvalues[0]
        if lowest < -CHOI_PSD_ATOL:
            raise ValueError(f"Choi matrix has eigenvalue {lowest:.3e}; map is not CP")
        _check_trace_preserving(m, d_in, d_out)
        m.setflags(write=False)
        object.__setattr__(self, "choi", m)
        object.__setattr__(self, "input_dims", ins)
        object.__setattr__(self, "output_dims", outs)

    @property
    def input_labels(self) -> tuple[str, ...]:
        return states._layout(self.input_dims)[0]

    @property
    def output_labels(self) -> tuple[str, ...]:
        return states._layout(self.output_dims)[0]

    @property
    def d_in(self) -> int:
        return math.prod(d for _, d in self.input_dims)

    @property
    def d_out(self) -> int:
        return math.prod(d for _, d in self.output_dims)


def _check_trace_preserving(choi: np.ndarray, d_in: int, d_out: int) -> None:
    """Raise unless tr_out choi = I within TRACE_PRESERVING_ATOL (NaN fails)."""
    marginal = np.trace(choi.reshape(d_in, d_out, d_in, d_out), axis1=1, axis2=3)
    dev = float(np.abs(marginal - np.eye(d_in)).max())
    if not dev <= TRACE_PRESERVING_ATOL:
        raise ValueError(f"map is not trace preserving: deviation {dev:.3e}")


def _derived(choi: np.ndarray, input_dims: Subsystems, output_dims: Subsystems) -> Channel:
    """A channel built from input the program has already checked.

    Skips the boundary check of ``Channel.__post_init__``, so nothing is
    decomposed. The subsystems must already be normalized.
    """
    m = np.asarray(choi, dtype=complex)
    m.setflags(write=False)
    channel = object.__new__(Channel)
    object.__setattr__(channel, "choi", m)
    object.__setattr__(channel, "input_dims", input_dims)
    object.__setattr__(channel, "output_dims", output_dims)
    return channel


def apply(
    channel: Channel, state: MultipartiteState, on: Sequence[str] | str | None = None
) -> MultipartiteState:
    """Apply ``channel`` to the ``on`` subsystems of a state, identity elsewhere.

    The ``on`` labels (default: the channel's input labels; a string is one
    label) must match the channel input dimensions in order. In the output,
    the channel's output subsystems take the place of the first ``on``
    subsystem in state order; a name collision with an untouched subsystem
    is an error. Only the result is built, by one contraction.
    """
    if isinstance(on, str):
        on = (on,)
    elif on is not None:
        on = tuple(on)
    state_shape, state_axes, choi_shape, choi_axes, out_axes, subs, d = _apply_plan(
        state.subsystems, channel.input_dims, channel.output_dims, on
    )
    out = np.einsum(
        state.matrix.reshape(state_shape),
        state_axes,
        channel.choi.reshape(choi_shape),
        choi_axes,
        out_axes,
    )
    return states._derived(out.reshape(d, d), subs)


@functools.lru_cache(maxsize=states.PLAN_CACHE_SIZE)
def _apply_plan(
    subsystems: Subsystems, input_dims: Subsystems, output_dims: Subsystems, on: tuple | None
):
    """How ``apply`` contracts a state layout with a channel layout.

    Checks the ``on`` labels against both layouts and returns the einsum
    operands: the state's tensor shape and axes, the Choi tensor's shape and
    axes, the output axes, then the output subsystems and their dimension.
    """
    labels, dims = states._layout(subsystems)
    in_labels, in_dims = states._layout(input_dims)
    out_labels, out_dims = states._layout(output_dims)
    on = in_labels if on is None else on
    for label in on:
        if label not in labels:
            raise ValueError(f"state has no subsystem {label!r}; labels are {labels}")
    if len(set(on)) != len(on):
        raise ValueError(f"repeated labels in {list(on)}")
    on_dims = tuple(dims[labels.index(label)] for label in on)
    if on_dims != in_dims:
        raise ValueError(
            f"subsystems {list(on)} have dims {on_dims}, channel expects {in_dims}"
        )
    rest = [label for label in labels if label not in on]
    collision = set(out_labels) & set(rest)
    if collision:
        raise ValueError(f"channel output labels {sorted(collision)} collide with {rest}")

    # state tensor axes: rows 0..n-1, columns n..2n-1; Choi tensor axes:
    # (in, out, in, out), its outputs numbered from 2n
    n = len(labels)
    pos = [labels.index(label) for label in on]
    first = min(pos)
    before = [k for k in range(first) if k not in pos]
    after = [k for k in range(first + 1, n) if k not in pos]
    n_out = len(out_dims)
    out_rows = list(range(2 * n, 2 * n + n_out))
    out_cols = list(range(2 * n + n_out, 2 * n + 2 * n_out))
    io_dims = in_dims + out_dims
    subs = (
        tuple(subsystems[k] for k in before)
        + output_dims
        + tuple(subsystems[k] for k in after)
    )
    return (
        dims + dims,
        tuple(range(2 * n)),
        io_dims + io_dims,
        tuple(pos + out_rows + [n + k for k in pos] + out_cols),
        tuple(before + out_rows + after + [n + k for k in before] + out_cols + [n + k for k in after]),
        subs,
        math.prod(dim for _, dim in subs),
    )


def transpose_channel(rho_bc: MultipartiteState) -> Channel:
    """Transpose (Petz) recovery channel of a bipartite state.

    For a state on subsystems (B, C) this is the map B -> BC

        T(pi) = sqrt(rho_BC) (rho_B^{-1/2} pi rho_B^{-1/2} (x) I_C) sqrt(rho_BC)

    completed to a trace-preserving map by routing any weight outside the
    support of rho_B to rho_BC. T(rho_B) = rho_BC, and the completion is
    irrelevant whenever rho_B has full rank. Its Kraus operators are
    ``_transpose_kraus(rho_bc)``.
    """
    if len(rho_bc.subsystems) != 2:
        raise ValueError(f"expected a bipartite state, got subsystems {rho_bc.subsystems}")
    b = rho_bc.subsystems[0]
    return _derived(_choi(_transpose_kraus(rho_bc)), (b,), rho_bc.subsystems)


def _transpose_kraus(rho_bc: MultipartiteState) -> np.ndarray:
    """The transpose channel's Kraus operators, as the stack k[o, i, e] of K_e[o, i].

    The first d_C are sqrt(rho_BC) (rho_B^{-1/2} (x) |c>). When rho_B has a
    kernel, the completion follows: |w_j><k_m| for the columns w_j of
    rho_BC's root (rho_BC = W W^dag) and the kernel vectors k_m of rho_B,
    so that the weight outside rho_B's support is routed to rho_BC.
    """
    (b_label, d_b), (_, d_c) = rho_bc.subsystems
    sqrt_bc = rho_bc.spectrum.apply(np.sqrt)
    spec_b = states.partial_trace(rho_bc, [b_label]).spectrum
    inv_sqrt_b = spec_b.apply(lambda x: 1.0 / np.sqrt(x))
    # kt[o, j, c] = sum_i sqrt_bc[o, (i, c)] inv_sqrt_b[i, j]
    kt = inv_sqrt_b.T @ sqrt_bc.reshape(d_b * d_c, d_b, d_c)
    if not spec_b.kernel:
        return kt
    w, k = rho_bc.spectrum.root, spec_b.eigenvectors[:, : spec_b.kernel]
    completion = np.einsum("oj,im->oijm", w, k.conj()).reshape(d_b * d_c, d_b, -1)
    return np.concatenate([kt, completion], axis=2)


def _universal_kraus(rho_bc: MultipartiteState) -> np.ndarray:
    """The universal recovery map's Kraus stack k[o, i, e], like ``_transpose_kraus``.

    R = int beta0(t) R^t dt, beta0(t) = (pi/2) / (cosh(pi t) + 1), averages
    the transpose channels rotated to R^t(pi) = rho_BC^{(1+it)/2}
    (rho_B^{-(1+it)/2} pi rho_B^{-(1-it)/2} (x) I_C) rho_BC^{(1-it)/2}, with
    T's completion, and D_M(rho || R(rho_BR)) <= I(C:R|B)
    (Sutter-Berta-Tomamichel). In the eigenbases of rho_B (input, mu) and
    rho_BC (output, lambda), R^t multiplies T's Choi entry [(a,c),(b,d)] by
    e^{iwt}, w = x_ac - x_bd for x_ac = (ln lambda_c - ln mu_a) / 2, each log
    0 on its kernel; beta0's characteristic function is w / sinh w. So R's
    Choi matrix is T's times w / sinh w in that basis, and its root factor's
    columns are R's at most d_B d_BC Kraus operators.
    """
    (b_label, d_b), _ = rho_bc.subsystems
    spec_bc, spec_b = rho_bc.spectrum, states.partial_trace(rho_bc, [b_label]).spectrum
    ln_bc, ln_b = (np.log(np.r_[np.ones(s.kernel), s.eigenvalues[s.kernel :]]) for s in (spec_bc, spec_b))
    x = (ln_bc[None, :] - ln_b[:, None]).ravel() / 2.0
    w = x[:, None] - x[None, :]
    weight = np.divide(w, np.sinh(w), out=np.ones_like(w), where=w != 0.0)
    basis = np.kron(spec_b.eigenvectors.conj(), spec_bc.eigenvectors)
    rotated = basis.conj().T @ _choi(_transpose_kraus(rho_bc)) @ basis
    root = linalg._spectrum(basis @ (rotated * weight) @ basis.conj().T).root
    return root.reshape(d_b, rho_bc.dim, -1).transpose(1, 0, 2)


def _choi(kraus: np.ndarray) -> np.ndarray:
    """The Choi matrix of the Kraus stack k[o, i, e]: choi[io, jp] = sum_e K_e[o, i] K_e[p, j]^*."""
    d_out, d_in, _ = kraus.shape
    choi = np.einsum("oic,pjc->iojp", kraus, kraus.conj())
    return choi.reshape(d_in * d_out, d_in * d_out)


def stinespring_to_channel(
    v: np.ndarray,
    input_dims: Subsystems | Iterable,
    output_dims: Subsystems | Iterable,
    env_dim: int,
) -> Channel:
    """Channel pi -> tr_env(V pi V^dag) from an isometry V: in -> out (x) env.

    Rows of ``v`` are indexed by (output, environment) with output major.
    Checks the isometry and trace preservation; the Choi matrix is positive by construction.
    """
    ins = _normalize_subsystems(input_dims)
    outs = _normalize_subsystems(output_dims)
    d_in = math.prod(d for _, d in ins)
    d_out = math.prod(d for _, d in outs)
    v = np.asarray(v, dtype=complex)
    if v.shape != (d_out * env_dim, d_in):
        raise ValueError(f"isometry shape {v.shape}, expected ({d_out * env_dim}, {d_in})")
    dev = float(np.abs(v.conj().T @ v - np.eye(d_in)).max())
    if not dev <= ISOMETRY_ATOL:
        raise ValueError(f"matrix is not an isometry: max|V^dag V - I| = {dev:.3e}")
    choi = _choi(v.reshape(d_out, env_dim, d_in).transpose(0, 2, 1))
    _check_trace_preserving(choi, d_in, d_out)
    return _derived(choi, ins, outs)


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry: QR-orthonormalized complex Gaussian matrix."""
    if rows < cols:
        raise ValueError(f"no isometry with {rows} rows and {cols} columns")
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))  # phase fix for the Haar distribution


def random_channel(
    d_in: int, d_out: int, rng: np.random.Generator, input_dims=None, output_dims=None
) -> Channel:
    """Random CPTP map from a Haar-random Stinespring isometry.

    Its environment dimension d_in * d_out suffices to reach every extreme
    point of the channel set.
    """
    d_env = d_in * d_out
    ins = (("X", d_in),) if input_dims is None else input_dims
    outs = (("X", d_out),) if output_dims is None else output_dims
    v = haar_isometry(d_out * d_env, d_in, rng)
    return stinespring_to_channel(v, ins, outs, d_env)


# --- JSON interchange -------------------------------------------------------

def to_json_dict(channel: Channel) -> dict:
    return {
        "input": [{"label": lab, "dim": dim} for lab, dim in channel.input_dims],
        "output": [{"label": lab, "dim": dim} for lab, dim in channel.output_dims],
        "matrix_re": channel.choi.real.tolist(),
        "matrix_im": channel.choi.imag.tolist(),
    }


def from_json_dict(data: dict) -> Channel:
    try:
        ins = tuple((item["label"], int(item["dim"])) for item in data["input"])
        outs = tuple((item["label"], int(item["dim"])) for item in data["output"])
        matrix = np.asarray(data["matrix_re"], dtype=float) + 1j * np.asarray(
            data["matrix_im"], dtype=float
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed channel document: {exc}") from exc
    return Channel(matrix, ins, outs)

