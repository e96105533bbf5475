"""Quantum channels in Choi form.

Application to labeled states, composition, CPTP validation, the transpose
recovery channel built from a bipartite state, the depolarizing channel,
and random channels through Stinespring isometries.

Choi convention: choi = (id (x) channel)(|O><O|) with |O> the unnormalized
maximally entangled vector, scaled so that tracing out the output leaves
the identity on the input. Channel application then needs no dimension
factor: channel(pi) = tr_in[(pi^T (x) I) choi].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg, states
from .states import MultipartiteState, Subsystems, _normalize_subsystems

CHOI_PSD_ATOL = 1e-9
TRACE_PRESERVING_ATOL = 1e-8
ISOMETRY_ATOL = 1e-6


@dataclass(frozen=True)
class Channel:
    """Completely positive trace-preserving map in Choi form.

    The Choi matrix lives on input (x) output with the input factor first.
    Validation checks positivity (min eigenvalue >= -1e-9) and trace
    preservation (tr_out choi = identity on the input, within 1e-8).
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
        asym = linalg.asymmetry(m)
        if asym > linalg.HERMITICITY_ATOL:
            raise ValueError(f"Choi matrix is not Hermitian: asymmetry {asym:.3e}")
        if linalg.min_eigenvalue(m) < -CHOI_PSD_ATOL:
            raise ValueError(
                f"Choi matrix has eigenvalue {linalg.min_eigenvalue(m):.3e}; map is not CP"
            )
        marginal = np.trace(m.reshape(d_in, d_out, d_in, d_out), axis1=1, axis2=3)
        dev = float(np.abs(marginal - np.eye(d_in)).max())
        if dev > TRACE_PRESERVING_ATOL:
            raise ValueError(f"map is not trace preserving: deviation {dev:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "choi", m)
        object.__setattr__(self, "input_dims", ins)
        object.__setattr__(self, "output_dims", outs)

    @property
    def input_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.input_dims)

    @property
    def output_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.output_dims)

    @property
    def d_in(self) -> int:
        return math.prod(d for _, d in self.input_dims)

    @property
    def d_out(self) -> int:
        return math.prod(d for _, d in self.output_dims)


def apply(
    channel: Channel, state: MultipartiteState, on: Sequence[str] | None = None
) -> MultipartiteState:
    """Apply ``channel`` to the ``on`` subsystems of a state, identity elsewhere.

    The ``on`` labels (default: the channel's input labels) must match the
    channel input dimensions in order. In the output, those subsystems are
    replaced in place by the channel's output subsystems; a name collision
    with an untouched subsystem is an error.
    """
    on = list(on) if on is not None else list(channel.input_labels)
    for label in on:
        if label not in state.labels:
            raise ValueError(f"state has no subsystem {label!r}; labels are {state.labels}")
    if len(set(on)) != len(on):
        raise ValueError(f"repeated labels in {on}")
    on_dims = tuple(state.dim_of(label) for label in on)
    if on_dims != tuple(d for _, d in channel.input_dims):
        raise ValueError(
            f"subsystems {on} have dims {on_dims}, channel expects "
            f"{tuple(d for _, d in channel.input_dims)}"
        )
    rest = [label for label in state.labels if label not in on]
    collision = set(channel.output_labels) & set(rest)
    if collision:
        raise ValueError(f"channel output labels {sorted(collision)} collide with {rest}")

    ordered = states.permute(state, rest + on)
    d_rest = math.prod(ordered.dim_of(label) for label in rest) if rest else 1
    d_in, d_out = channel.d_in, channel.d_out
    pr = ordered.matrix.reshape(d_rest, d_in, d_rest, d_in)
    j = channel.choi.reshape(d_in, d_out, d_in, d_out)
    out = np.einsum("risj,iojp->rosp", pr, j).reshape(d_rest * d_out, d_rest * d_out)
    rest_subs = tuple((label, ordered.dim_of(label)) for label in rest)
    result = MultipartiteState(out, rest_subs + channel.output_dims)

    # splice the output labels where the first consumed input label sat
    new_order: list[str] = []
    inserted = False
    for label in state.labels:
        if label in on:
            if not inserted:
                new_order.extend(channel.output_labels)
                inserted = True
        else:
            new_order.append(label)
    return states.permute(result, new_order)


def identity_channel(dims: Subsystems | Iterable) -> Channel:
    dims = _normalize_subsystems(dims)
    d = math.prod(dim for _, dim in dims)
    omega = np.eye(d).reshape(d * d)  # |O> = sum_i |ii>, index (i_in, i_out)
    return Channel(np.outer(omega, omega.conj()), dims, dims)


def depolarizing(input_dims: Subsystems | Iterable, output_dims=None) -> Channel:
    """Constant channel mapping every input to the maximally mixed state."""
    ins = _normalize_subsystems(input_dims)
    outs = _normalize_subsystems(output_dims) if output_dims is not None else ins
    d_in = math.prod(d for _, d in ins)
    d_out = math.prod(d for _, d in outs)
    choi = np.kron(np.eye(d_in), np.eye(d_out) / d_out)
    return Channel(choi, ins, outs)


def transpose_channel(rho_bc: MultipartiteState) -> Channel:
    """Transpose (Petz) recovery channel of a bipartite state.

    For a state on subsystems (B, C) this is the map B -> BC

        T(pi) = sqrt(rho_BC) (rho_B^{-1/2} pi rho_B^{-1/2} (x) I_C) sqrt(rho_BC)

    completed to a trace-preserving map by routing any weight outside the
    support of rho_B to rho_BC. T(rho_B) = rho_BC, and the completion is
    irrelevant whenever rho_B has full rank.
    """
    if len(rho_bc.subsystems) != 2:
        raise ValueError(f"expected a bipartite state, got subsystems {rho_bc.subsystems}")
    (b_label, d_b), (c_label, d_c) = rho_bc.subsystems
    rho_b = states.partial_trace(rho_bc, [b_label]).matrix
    sqrt_bc = linalg.sqrtm_psd(rho_bc.matrix)
    spec_b = linalg.eigh(rho_b)
    inv_sqrt_b = spec_b.apply(lambda x: 1.0 / np.sqrt(x))
    proj_b = spec_b.apply(np.ones_like)
    k = sqrt_bc @ np.kron(inv_sqrt_b, np.eye(d_c))
    kt = k.reshape(d_b * d_c, d_b, d_c)
    choi = np.einsum("oic,pjc->iojp", kt, kt.conj())
    defect = np.eye(d_b) - proj_b
    if np.abs(defect).max() > 1e-14:
        choi = choi + np.einsum("ji,op->iojp", defect, rho_bc.matrix)
    choi = choi.reshape(d_b * d_b * d_c, d_b * d_b * d_c)
    return Channel(choi, ((b_label, d_b),), rho_bc.subsystems)


def stinespring_to_channel(
    v: np.ndarray,
    input_dims: Subsystems | Iterable,
    output_dims: Subsystems | Iterable,
    env_dim: int,
) -> Channel:
    """Channel pi -> tr_env(V pi V^dag) from an isometry V: in -> out (x) env.

    Rows of ``v`` are indexed by (output, environment) with output major.
    """
    ins = _normalize_subsystems(input_dims)
    outs = _normalize_subsystems(output_dims)
    d_in = math.prod(d for _, d in ins)
    d_out = math.prod(d for _, d in outs)
    v = np.asarray(v, dtype=complex)
    if v.shape != (d_out * env_dim, d_in):
        raise ValueError(f"isometry shape {v.shape}, expected ({d_out * env_dim}, {d_in})")
    dev = float(np.abs(v.conj().T @ v - np.eye(d_in)).max())
    if dev > ISOMETRY_ATOL:
        raise ValueError(f"matrix is not an isometry: max|V^dag V - I| = {dev:.3e}")
    vt = v.reshape(d_out, env_dim, d_in)
    choi = np.einsum("oei,pej->iojp", vt, vt.conj()).reshape(d_in * d_out, d_in * d_out)
    return Channel(choi, ins, outs)


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry: QR-orthonormalized complex Gaussian matrix."""
    if rows < cols:
        raise ValueError(f"no isometry with {rows} rows and {cols} columns")
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))  # phase fix for the Haar distribution


def random_channel(
    d_in: int,
    d_out: int,
    d_env: int | None,
    rng: np.random.Generator,
    input_dims=None,
    output_dims=None,
) -> Channel:
    """Random CPTP map from a Haar-random Stinespring isometry.

    The default environment dimension d_in * d_out suffices to reach every
    extreme point of the channel set.
    """
    if d_env is None:
        d_env = d_in * d_out
    if d_env < 1:
        raise ValueError(f"environment dimension must be >= 1, got {d_env}")
    ins = _normalize_subsystems(input_dims) if input_dims is not None else (("X", d_in),)
    outs = _normalize_subsystems(output_dims) if output_dims is not None else (("X", d_out),)
    v = haar_isometry(d_out * d_env, d_in, rng)
    return stinespring_to_channel(v, ins, outs, d_env)


def mix(ch1: Channel, ch2: Channel, weight: float) -> Channel:
    """Convex combination: weight * ch1 + (1 - weight) * ch2."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    if ch1.input_dims != ch2.input_dims or ch1.output_dims != ch2.output_dims:
        raise ValueError("channels must share input and output subsystems")
    choi = weight * ch1.choi + (1.0 - weight) * ch2.choi
    return Channel(choi, ch1.input_dims, ch1.output_dims)


def compose(second: Channel, first: Channel) -> Channel:
    """Composite channel second(first(.))."""
    if tuple(d for _, d in first.output_dims) != tuple(d for _, d in second.input_dims):
        raise ValueError(
            f"cannot compose: first outputs dims {first.output_dims}, "
            f"second expects {second.input_dims}"
        )
    j1 = first.choi.reshape(first.d_in, first.d_out, first.d_in, first.d_out)
    j2 = second.choi.reshape(second.d_in, second.d_out, second.d_in, second.d_out)
    j = np.einsum("iojp,oapb->iajb", j1, j2)
    d_in, d_out = first.d_in, second.d_out
    return Channel(j.reshape(d_in * d_out, d_in * d_out), first.input_dims, second.output_dims)


def kraus_operators(channel: Channel, cutoff: float | None = None) -> list[np.ndarray]:
    """Kraus operators from the spectral decomposition of the Choi matrix.

    Ordered by decreasing weight; eigenvalues at or below the cutoff are
    dropped.
    """
    spec = linalg.eigh(channel.choi)
    if cutoff is None:
        cutoff = linalg.support_cutoff(spec.eigenvalues)
    d_in, d_out = channel.d_in, channel.d_out
    ops = []
    for i in range(len(spec.eigenvalues) - 1, -1, -1):
        w = spec.eigenvalues[i]
        if w <= cutoff:
            break
        vec = spec.eigenvectors[:, i].reshape(d_in, d_out)
        ops.append(np.sqrt(w) * vec.T)
    return ops


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


def save_channel(channel: Channel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(channel), fh)


def load_channel(path) -> Channel:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
