"""Property tests for the physics the paper's bounds rest on.

Hypothesis draws the dimensions, seeds and ranks; every state, unitary and
channel is then built from ``sample_rng`` streams. ``derandomize=True``
makes each run try the same examples, so the suite stays deterministic.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cmirecon import channels, entropy, linalg, states

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

seeds = st.integers(0, 2**63 - 1)
# unequal dimensions up to (3, 3, 4) on (B, C, R)
tripartite_dims = st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 4))


def tripartite_state(dims, seed, rank):
    """A state on (B, C, R): pure for rank 1, else of the given (capped) rank."""
    rng = states.sample_rng(seed, 0)
    labels = ("B", "C", "R")
    if rank == 1:
        return states.random_pure(dims, rng, labels)
    return states.random_mixed(dims, rng, labels, ancilla_dim=min(rank, math.prod(dims)))


def haar_unitary(d, rng):
    return channels.haar_isometry(d, d, rng)


@PROPERTY
@given(tripartite_dims, seeds, st.integers(1, 6))
def test_cmi_invariant_under_local_unitaries(dims, seed, rank):
    rho = tripartite_state(dims, seed, rank)
    rng = states.sample_rng(seed, 1)
    u = haar_unitary(dims[0], rng)
    for d in dims[1:]:
        u = np.kron(u, haar_unitary(d, rng))
    rotated = states.MultipartiteState(u @ rho.matrix @ u.conj().T, rho.subsystems)
    assert abs(entropy.cmi(rotated) - entropy.cmi(rho)) < 1e-9


@PROPERTY
@given(tripartite_dims, seeds, st.integers(1, 6))
def test_strong_subadditivity(dims, seed, rank):
    assert entropy.cmi(tripartite_state(dims, seed, rank)) >= -1e-9


@PROPERTY
@given(st.integers(2, 3), st.integers(2, 3), st.integers(1, 3), st.integers(1, 9), seeds)
def test_data_processing_on_one_subsystem(d_in, d_out, d_r, d_env, seed):
    # id_R (x) N contracts both divergences for any channel N on A
    d_env = max(d_env, -(-d_in // d_out))  # the Stinespring isometry needs d_out d_env >= d_in
    rng = states.sample_rng(seed, 0)
    rho = states.random_mixed((d_in, d_r), rng, ("A", "R"))
    sigma = states.random_mixed((d_in, d_r), rng, ("A", "R"))
    ch = channels.random_channel(d_in, d_out, d_env, rng, (("A", d_in),), (("A", d_out),))
    rho_out = channels.apply(ch, rho, on=["A"])
    sigma_out = channels.apply(ch, sigma, on=["A"])
    assert entropy.relative_entropy(rho_out, sigma_out) <= entropy.relative_entropy(rho, sigma) + 1e-7
    assert entropy.fidelity(rho_out, sigma_out) >= entropy.fidelity(rho, sigma) - 1e-9


@PROPERTY
@given(st.integers(2, 3), st.integers(2, 3), st.integers(1, 3), seeds)
def test_transpose_channel_maps_rho_b_to_rho_bc(d_b, d_c, rank_b, seed):
    # rank_b < d_b confines rho_BC to a random rank_b-dimensional subspace of
    # B, so rho_B is singular and the trace-preserving completion is built
    rank_b = min(rank_b, d_b)
    rng = states.sample_rng(seed, 0)
    rho = states.random_mixed((d_b, d_c), rng, ("B", "C")).matrix
    keep = np.kron(haar_unitary(d_b, rng)[:, :rank_b], np.eye(d_c))
    confined = keep @ keep.conj().T @ rho @ keep @ keep.conj().T
    rho_bc = states.MultipartiteState(confined / np.trace(confined).real, (("B", d_b), ("C", d_c)))
    rho_b = states.partial_trace(rho_bc, ["B"])
    w = rho_b.spectrum.eigenvalues
    assert np.count_nonzero(w > linalg.support_cutoff(w)) == rank_b

    t = channels.transpose_channel(rho_bc)
    out = channels.apply(t, rho_b)
    assert out.subsystems == rho_bc.subsystems
    assert linalg.trace_norm(out.matrix - rho_bc.matrix) < 1e-9
