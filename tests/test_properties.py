"""Property tests for the physics the paper's bounds rest on.

Hypothesis draws the dimensions, seeds and ranks; every state, unitary and
channel is then built from ``sample_rng`` streams. ``derandomize=True``
makes each run try the same examples, so the suite stays deterministic.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmirecon import channels, entropy, linalg, markov, recovery, states

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

seeds = st.integers(0, 2**63 - 1)
# unequal dimensions up to (3, 3, 4) on (B, C, R)
tripartite_dims = st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 4))
# the recovery search's dimensions; rank None is full rank
recovery_dims = st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)])
recovery_ranks = st.sampled_from([1, 2, None])


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
    v = channels.haar_isometry(d_out * d_env, d_in, rng)
    ch = channels.stinespring_to_channel(v, (("A", d_in),), (("A", d_out),), d_env)
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


@PROPERTY
@given(st.integers(2, 4), seeds)
def test_measured_re_invariant_under_unitaries(d, seed):
    # D_M(U rho U^dag || U sigma U^dag) = D_M(rho || sigma) on full-rank pairs
    rng = states.sample_rng(seed, 0)
    rho = states.random_mixed((d,), rng, ("A",)).matrix
    sigma = states.random_mixed((d,), rng, ("A",)).matrix
    u = haar_unitary(d, rng)
    plain = entropy.measured_relative_entropy(rho, sigma)
    rotated = entropy.measured_relative_entropy(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
    assert plain.converged and rotated.converged
    assert abs(rotated.value_bits - plain.value_bits) < 1e-8


def singular_pair(d, rank, inside, seed):
    """sigma of rank < d, and rho of full rank on sigma's support (``inside``) or on all of C^d."""
    rng = states.sample_rng(seed, 0)
    u = haar_unitary(d, rng)
    w = np.zeros(d)
    w[d - rank :] = rng.dirichlet(np.ones(rank))
    sigma = states.MultipartiteState((u * w) @ u.conj().T, (("A", d),))
    if not inside:
        return states.random_mixed((d,), rng, ("A",)), sigma
    support = u[:, d - rank :]
    a = states.random_mixed((rank,), rng, ("A",)).matrix
    return states.MultipartiteState(support @ a @ support.conj().T, (("A", d),)), sigma


@PROPERTY
@given(st.integers(2, 5), st.integers(1, 4), st.booleans(), seeds)
def test_measured_re_on_a_singular_sigma(d, rank, inside, seed):
    # D_M is +inf exactly when S is, by one leak rule; a rho inside sigma's
    # support has the D_M of the pair compressed to that support
    rho, sigma = singular_pair(d, min(rank, d - 1), inside, seed)
    sol = entropy.measured_relative_entropy(rho, sigma)
    rel = entropy.relative_entropy(rho, sigma)
    assert sol.converged
    assert (sol.value_bits == math.inf) == (rel == math.inf) == (not inside)
    if inside:
        spec = sigma.spectrum
        support = spec.eigenvectors[:, spec.kernel :]
        compressed = entropy.measured_relative_entropy(
            support.conj().T @ rho.matrix @ support, np.diag(spec.eigenvalues[spec.kernel :])
        )
        assert abs(sol.value_bits - compressed.value_bits) < 1e-9
        assert entropy.renyi_half(rho, sigma) - 1e-6 <= sol.value_bits <= rel + 1e-7
        # the witness is positive semidefinite and zero on sigma's kernel
        kernel = spec.eigenvectors[:, : spec.kernel]
        assert np.abs(kernel.conj().T @ sol.witness).max() < 1e-12 * np.abs(sol.witness).max()
        assert np.linalg.eigvalsh(sol.witness)[0] > -1e-12 * np.abs(sol.witness).max()


def channel_isometry(problem, kind, rng):
    """The isometry of a random channel: "haar" draws a Haar isometry of the
    full environment; 1 or 2 a Haar channel of that Kraus rank; and
    "replacement" the channel that prepares a random BC state of rank 1 or
    2 from any input. The last three leave zero Kraus columns."""
    d_bc, d_b = problem.d_bc, problem.d_b
    if kind == "haar":
        return channels.haar_isometry(*problem.isometry_shape(), rng)
    if kind == "replacement":
        r = int(rng.integers(1, 3))
        t = rng.standard_normal((d_bc, r)) + 1j * rng.standard_normal((d_bc, r))
        t /= np.linalg.norm(t)
        # Kraus operator (j, b') is t_j <b'|, so sum_e K_e^dag K_e = ||t||_F^2 1_B
        kraus = np.einsum("oj,bc->objc", t, np.eye(d_b)).reshape(d_bc, d_b, r * d_b)
    else:
        v = channels.haar_isometry(d_bc * kind, d_b, rng)
        kraus = v.reshape(d_bc, kind, d_b).transpose(0, 2, 1)
    return problem.isometry(kraus)


@settings(PROPERTY, max_examples=24)
@given(recovery_dims, seeds, recovery_ranks)
def test_fidelity_bound_holds_at_random_channels(dims, seed, rank):
    # score(V) + dual_gap(V) bounds the fidelity of every channel, the best
    # found included; at a low Kraus rank W^dag sigma W can be singular, and
    # there the bound holds because the score is +inf
    rho = tripartite_state(dims, seed, rank or math.prod(dims))
    best = recovery.optimize_recovery(rho, "fidelity").best_value
    problem = recovery._RecoveryProblem(rho)
    rng = states.sample_rng(seed, 1)
    for kind in ("haar", "replacement", 1, 2):
        for _ in range(5):
            v = channel_isometry(problem, kind, rng)
            score, grad, m = problem.fidelity_and_gradient(v, problem.fidelity_value(v)[1])
            assert score + problem.dual_gap(v, grad, m) >= best - 1e-12


def confine_b(rho, rng):
    """rho on (B, C, R) projected onto a random (d_B - 1)-dimensional subspace
    of B, so rho_B is singular and the transpose channel uses its completion."""
    d_b = rho.dims[0]
    keep = haar_unitary(d_b, rng)[:, : d_b - 1]
    p = np.kron(keep @ keep.conj().T, np.eye(rho.matrix.shape[0] // d_b))
    confined = p @ rho.matrix @ p
    return states.MultipartiteState(confined / np.trace(confined).real, rho.subsystems)


@settings(PROPERTY, max_examples=4)
@given(st.sampled_from([(3, 2, 2), (2, 3, 2), (2, 2, 3)]), seeds, recovery_ranks, st.booleans())
@example((3, 2, 2), 0, None, True)
def test_measured_re_bound_holds_at_random_channels(dims, seed, rank, singular_b):
    # -D_M(V) + dual_gap(V) bounds the score of every channel, the one a
    # capped search found included, whether or not the inner solves converged
    rho = tripartite_state(dims, seed, rank or math.prod(dims))
    rng = states.sample_rng(seed, 1)
    if singular_b:
        rho = confine_b(rho, rng)
    best = -recovery.optimize_recovery(rho, "measured_re", max_iterations=20).best_value
    problem = recovery._RecoveryProblem(rho)
    for _ in range(3):
        v = channels.haar_isometry(*problem.isometry_shape(), rng)
        score, grad, m = problem.measured_re_score_and_gradient(v, problem.measured_re_score(v)[1])
        assert score + problem.dual_gap(v, grad, m) >= best - 1e-9


@settings(PROPERTY, max_examples=20)
@given(seeds)
def test_rank_two_fidelity_search_certifies(seed):
    rho = tripartite_state((2, 2, 2), seed, 2)
    result = recovery.optimize_recovery(rho, "fidelity")
    assert result.converged and result.dual_gap < recovery.DUAL_GAP_TOL


def assert_boundary_accepts(built):
    """The boundary constructor accepts a derived state or channel, and
    decomposes a state to the same bits."""
    if isinstance(built, channels.Channel):
        channels.Channel(built.choi, built.input_dims, built.output_dims)
        return
    checked = states.MultipartiteState(built.matrix, built.subsystems)
    assert np.array_equal(checked.spectrum.eigenvalues, built.spectrum.eigenvalues)
    assert np.array_equal(checked.spectrum.eigenvectors, built.spectrum.eigenvectors)


def partial_trace_oracle(state, keep):
    """The marginal on ``keep`` by one einsum over the state's tensor form."""
    rows = "abcdef"[: len(state.dims)]
    cols = "".join(r.upper() if lab in keep else r for r, lab in zip(rows, state.labels))
    out = "".join(r for r, lab in zip(rows, state.labels) if lab in keep)
    d = math.prod(dim for dim, lab in zip(state.dims, state.labels) if lab in keep)
    t = state.matrix.reshape(state.dims * 2)
    return np.einsum(f"{rows}{cols}->{out}{out.upper()}", t).reshape(d, d)


@PROPERTY
@given(tripartite_dims, seeds, st.integers(1, 6), st.integers(1, 3))
def test_derived_constructors_pass_the_boundary_check(dims, seed, rank, rank_b):
    # rank_b < d_B confines B to a random subspace, so rho_B is singular and
    # the transpose channel builds its trace-preserving completion
    rng = states.sample_rng(seed, 1)
    drawn = tripartite_state(dims, seed, rank)
    d_b, d_c, d_r = dims
    keep = np.kron(haar_unitary(d_b, rng)[:, : min(rank_b, d_b)], np.eye(d_c * d_r))
    confined = keep @ keep.conj().T @ drawn.matrix @ keep @ keep.conj().T
    rho = states.MultipartiteState(confined / np.trace(confined).real, drawn.subsystems)
    rho_bc = states.partial_trace(rho, ["B", "C"])
    w_b = states.partial_trace(rho, ["B"]).spectrum.eigenvalues
    assert np.count_nonzero(w_b > linalg.support_cutoff(w_b)) == min(rank_b, d_b)
    t = channels.transpose_channel(rho_bc)
    table = rng.random((d_b, d_r))
    built = [
        drawn,
        states.permute(rho, ("R", "B", "C")),
        states.tensor(rho_bc, states.random_pure((2,), rng, ("X",))),
        states.purify(rho_bc, "P"),
        states.classical_state(table / table.sum(), ("B", "R")),
        markov.markov_state(markov.random_markov_spec(rng)),
        t,
        channels.apply(t, states.partial_trace(rho, ["B", "R"])),
        channels.random_channel(d_b, d_c, rng, (("B", d_b),), (("C", d_c),)),
    ]
    for labels in (["B"], ["C"], ["R"], ["B", "C"], ["B", "R"], ["C", "R"]):
        marginal = states.partial_trace(rho, labels)
        assert np.abs(marginal.matrix - partial_trace_oracle(rho, labels)).max() < 1e-14
        built.append(marginal)
    for item in built:
        assert_boundary_accepts(item)


# --- per-layout plans: cached paths against their definitions ---------------

LABEL_POOL = ("A", "B", "C", "D")


@st.composite
def layouts(draw, max_subsystems=4):
    """Subsystems with unequal dims 1-3 and shuffled labels."""
    n = draw(st.integers(1, max_subsystems))
    labels = draw(st.permutations(LABEL_POOL))[:n]
    return tuple((label, draw(st.integers(1, 3))) for label in labels)


def layout_state(subsystems, seed):
    labels, dims = zip(*subsystems)
    return states.random_mixed(dims, states.sample_rng(seed, 0), labels)


def first_and_cached(plan, call):
    """``call()`` with ``plan``'s cache cleared, then again, as a cache hit."""
    plan.cache_clear()
    first = call()
    assert plan.cache_info().misses >= 1
    hits = plan.cache_info().hits
    again = call()
    assert plan.cache_info().hits > hits
    return first, again


def assert_same_error_twice(call, message):
    """``call()`` raises ValueError(message) on a first and on a repeated call."""
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


@PROPERTY
@given(layouts(), seeds)
def test_partial_trace_plan_matches_einsum(subsystems, seed):
    rho = layout_state(subsystems, seed)
    labels = rho.labels
    for r in range(1, len(labels) + 1):
        for keep in itertools.combinations(labels, r):
            # each call on a fresh state with rho's layout, so the marginal is
            # built through the plan rather than looked up on the state
            first, again = first_and_cached(
                states._trace_plan,
                lambda: states.partial_trace(
                    states.MultipartiteState(rho.matrix, rho.subsystems), keep[::-1]
                ),
            )
            oracle = partial_trace_oracle(rho, keep)
            for marginal in (first, again):
                assert marginal.labels == keep
                assert marginal.subsystems == tuple(s for s in subsystems if s[0] in keep)
                assert np.abs(marginal.matrix - oracle).max() < 1e-14
    assert_same_error_twice(
        lambda: states.partial_trace(rho, [labels[0], "Z"]),
        f"unknown subsystem labels ['Z']; state has {labels}",
    )
    assert_same_error_twice(lambda: states.partial_trace(rho, []), "must keep at least one subsystem")


@PROPERTY
@given(layouts(), seeds, st.randoms(use_true_random=False))
def test_permute_plan_round_trips(subsystems, seed, random):
    rho = layout_state(subsystems, seed)
    order = tuple(random.sample(rho.labels, len(rho.labels)))
    first, again = first_and_cached(states._permute_plan, lambda: states.permute(rho, order))
    for permuted in (first, again):
        assert permuted.labels == order
        assert permuted.dims == tuple(rho.dim_of(label) for label in order)
        back = states.permute(permuted, rho.labels)
        assert back.subsystems == rho.subsystems
        assert np.array_equal(back.matrix, rho.matrix)
    short = order[:-1]
    assert_same_error_twice(
        lambda: states.permute(rho, short), f"{short} is not a permutation of {rho.labels}"
    )


def apply_oracle(channel, state, on):
    """``channels.apply`` by one string einsum over the state and Choi tensors."""
    letters = iter("abcdefghijklmnopqrstuvwxyz")
    rows = {label: next(letters) for label in state.labels}
    cols = {label: next(letters) for label in state.labels}
    out_rows = "".join(next(letters) for _ in channel.output_dims)
    out_cols = "".join(next(letters) for _ in channel.output_dims)
    choi = "".join(rows[k] for k in on) + out_rows + "".join(cols[k] for k in on) + out_cols
    kept_labels = [label for label in state.labels if label not in on]
    first = min(state.labels.index(label) for label in on)
    before = [label for label in kept_labels if state.labels.index(label) < first]
    after = [label for label in kept_labels if state.labels.index(label) > first]
    out = (
        "".join(rows[k] for k in before) + out_rows + "".join(rows[k] for k in after)
        + "".join(cols[k] for k in before) + out_cols + "".join(cols[k] for k in after)
    )
    io_dims = tuple(d for _, d in channel.input_dims + channel.output_dims)
    t = np.einsum(
        f"{''.join(rows.values())}{''.join(cols.values())},{choi}->{out}",
        state.matrix.reshape(state.dims * 2),
        channel.choi.reshape(io_dims * 2),
    )
    subs = (
        tuple((k, state.dim_of(k)) for k in before)
        + channel.output_dims
        + tuple((k, state.dim_of(k)) for k in after)
    )
    d = math.prod(dim for _, dim in subs)
    return t.reshape(d, d), subs


@PROPERTY
@given(
    layouts(max_subsystems=3),
    seeds,
    st.randoms(use_true_random=False),
    st.lists(st.integers(1, 2), min_size=1, max_size=2),
)
def test_apply_plan_matches_choi_einsum(subsystems, seed, random, out_dims):
    rho = layout_state(subsystems, seed)
    on = random.sample(rho.labels, random.randint(1, len(rho.labels)))
    in_dims = tuple((label, rho.dim_of(label)) for label in on)
    outputs = tuple(zip(("P", "Q"), out_dims))
    d_in, d_out = math.prod(d for _, d in in_dims), math.prod(out_dims)
    ch = channels.random_channel(d_in, d_out, states.sample_rng(seed, 1), in_dims, outputs)
    first, again = first_and_cached(channels._apply_plan, lambda: channels.apply(ch, rho, on=on))
    oracle, subs = apply_oracle(ch, rho, on)
    for out in (first, again):
        assert out.subsystems == subs
        assert np.abs(out.matrix - oracle).max() < 1e-13
    assert_same_error_twice(
        lambda: channels.apply(ch, rho, on=[*on[:-1], "Z"]),
        f"state has no subsystem 'Z'; labels are {rho.labels}",
    )
    assert_same_error_twice(
        lambda: channels.apply(ch, rho, on=on + on[:1]), f"repeated labels in {on + on[:1]}"
    )
