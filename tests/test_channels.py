import json
import math

import numpy as np
import pytest

from cmirecon import channels, linalg, states
from cmirecon.channels import Channel


def depolarizing(input_dims, output_dims):
    """Constant channel mapping every input to the maximally mixed state."""
    d_in = math.prod(d for _, d in input_dims)
    d_out = math.prod(d for _, d in output_dims)
    return Channel(np.kron(np.eye(d_in), np.eye(d_out) / d_out), input_dims, output_dims)


def apply_by_permutation(channel, state, on):
    """Oracle for ``channels.apply``: permute ``on`` to the end, contract, permute back."""
    rest = [label for label in state.labels if label not in on]
    ordered = states.permute(state, rest + on)
    d_rest = math.prod(ordered.dim_of(label) for label in rest) if rest else 1
    d_in, d_out = channel.d_in, channel.d_out
    pr = ordered.matrix.reshape(d_rest, d_in, d_rest, d_in)
    j = channel.choi.reshape(d_in, d_out, d_in, d_out)
    out = np.einsum("risj,iojp->rosp", pr, j).reshape(d_rest * d_out, d_rest * d_out)
    rest_subs = tuple((label, ordered.dim_of(label)) for label in rest)
    result = states.MultipartiteState(out, rest_subs + channel.output_dims)
    # splice the output labels where the first consumed input label sat
    new_order = []
    inserted = False
    for label in state.labels:
        if label in on:
            if not inserted:
                new_order.extend(channel.output_labels)
                inserted = True
        else:
            new_order.append(label)
    return states.permute(result, new_order)


def assert_cptp(ch):
    assert linalg.min_eigenvalue(ch.choi) >= -1e-9
    d_in, d_out = ch.d_in, ch.d_out
    marginal = np.trace(ch.choi.reshape(d_in, d_out, d_in, d_out), axis1=1, axis2=3)
    assert np.abs(marginal - np.eye(d_in)).max() < 1e-8


class TestChannelValidation:
    def test_rejects_non_cp(self):
        # transpose map on a qubit: Choi has a negative eigenvalue
        j = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for k in range(2):
                j[i * 2 + k, k * 2 + i] = 1.0
        with pytest.raises(ValueError, match="not CP"):
            Channel(j, (("A", 2),), (("A", 2),))

    def test_rejects_non_tp(self):
        j = np.zeros((4, 4), dtype=complex)
        j[0, 0] = 1.0  # sub-normalized
        with pytest.raises(ValueError, match="trace preserving"):
            Channel(j, (("A", 2),), (("A", 2),))

    def test_rejects_non_hermitian(self):
        j = np.eye(4, dtype=complex) / 2
        j[0, 3] = 0.1  # no matching conjugate entry
        with pytest.raises(ValueError, match="Hermitian"):
            Channel(j, (("A", 2),), (("A", 2),))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Channel(np.eye(4), (("A", 2),), (("A", 3),))


class TestApply:
    def test_identity_channel(self):
        rho = states.random_mixed((2, 3), states.rng_from_seed(0), ("A", "B"))
        omega = np.eye(6).reshape(36)  # |O> = sum_i |ii>, index (i_in, i_out)
        ch = Channel(np.outer(omega, omega), (("A", 2), ("B", 3)), (("A", 2), ("B", 3)))
        out = channels.apply(ch, rho)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-10

    @pytest.mark.parametrize("rank", [None, 2, 1], ids=["full", "rank2", "pure"])
    @pytest.mark.parametrize(
        "on, outputs, labels",
        [
            (["B"], (("P", 2), ("Q", 3)), ("A", "P", "Q", "C")),
            (["C"], (("P", 3),), ("A", "B", "P")),
            (["C", "A"], (("P", 3),), ("P", "B")),
            (["B", "A"], (("P", 2), ("Q", 2)), ("P", "Q", "C")),
        ],
        ids=["middle", "last", "two-out-of-order", "two-reversed"],
    )
    def test_matches_permutation_oracle(self, on, outputs, labels, rank):
        rng = states.sample_rng(77, len(on) + len(outputs))
        rho = states.random_mixed((2, 3, 4), rng, ("A", "B", "C"), ancilla_dim=rank)
        in_dims = tuple((label, rho.dim_of(label)) for label in on)
        d_in, d_out = math.prod(d for _, d in in_dims), math.prod(d for _, d in outputs)
        ch = channels.random_channel(d_in, d_out, None, rng, in_dims, outputs)
        out = channels.apply(ch, rho, on=on)
        ref = apply_by_permutation(ch, rho, on)
        assert out.labels == ref.labels == labels
        assert out.dims == ref.dims
        assert np.abs(out.matrix - ref.matrix).max() < 1e-13

    def test_depolarizing_maps_to_maximally_mixed(self):
        rho = states.random_pure((2, 2), states.rng_from_seed(1), ("A", "R"))
        ch = depolarizing((("A", 2),), (("A", 2),))
        out = channels.apply(ch, rho, on=["A"])
        marg_a = states.partial_trace(out, ["A"])
        assert np.abs(marg_a.matrix - np.eye(2) / 2).max() < 1e-10
        # untouched marginal preserved
        before = states.partial_trace(rho, ["R"])
        after = states.partial_trace(out, ["R"])
        assert np.abs(before.matrix - after.matrix).max() < 1e-10

    def test_output_subsystems_spliced_in_place(self):
        rho = states.random_pure((2, 2), states.rng_from_seed(2), ("B", "R"))
        rho_bc = states.random_mixed((2, 2), states.rng_from_seed(3), ("B", "C"))
        t = channels.transpose_channel(rho_bc)
        out = channels.apply(t, rho, on=["B"])
        assert out.labels == ("B", "C", "R")

    def test_linearity_on_convex_mixtures(self):
        rng = states.rng_from_seed(4)
        a = states.random_mixed((2,), rng, ("A",))
        b = states.random_mixed((2,), rng, ("A",))
        ch = channels.random_channel(2, 3, None, rng, (("A", 2),), (("A", 3),))
        w = 0.3
        mixed = states.MultipartiteState(w * a.matrix + (1 - w) * b.matrix, a.subsystems)
        lhs = channels.apply(ch, mixed).matrix
        rhs = w * channels.apply(ch, a).matrix + (1 - w) * channels.apply(ch, b).matrix
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_dim_mismatch_rejected(self):
        rho = states.random_mixed((3,), states.rng_from_seed(5), ("A",))
        ch = depolarizing((("A", 2),), (("A", 2),))
        with pytest.raises(ValueError, match="dims"):
            channels.apply(ch, rho, on=["A"])

    def test_label_collision_rejected(self):
        rho = states.random_pure((2, 2), states.rng_from_seed(6), ("B", "C"))
        rho_bc = states.random_mixed((2, 2), states.rng_from_seed(7), ("B", "C"))
        t = channels.transpose_channel(rho_bc)  # outputs B, C
        with pytest.raises(ValueError, match="collide"):
            channels.apply(t, rho, on=["B"])


class TestTransposeChannel:
    def test_recovers_bc_marginal_from_b(self):
        rho_bc = states.random_mixed((2, 3), states.rng_from_seed(8), ("B", "C"))
        t = channels.transpose_channel(rho_bc)
        rho_b = states.partial_trace(rho_bc, ["B"])
        out = channels.apply(t, rho_b)
        assert linalg.trace_norm(out.matrix - rho_bc.matrix) < 1e-9

    def test_product_input_attaches_other_factor(self):
        # on a product rho_B (x) rho_C the map acts as pi -> (P pi P) (x) rho_C
        rng = states.rng_from_seed(9)
        rho_b = states.random_mixed((2,), rng, ("B",))
        rho_c = states.random_mixed((3,), rng, ("C",))
        t = channels.transpose_channel(states.tensor(rho_b, rho_c))
        pi = states.random_mixed((2,), states.rng_from_seed(10), ("B",))
        out = channels.apply(t, pi)
        proj = rho_b.spectrum.apply(np.ones_like)
        compressed = proj @ pi.matrix @ proj
        expect = np.kron(compressed, rho_c.matrix)
        expect += np.trace(pi.matrix - compressed).real * states.tensor(rho_b, rho_c).matrix
        assert np.abs(out.matrix - expect).max() < 1e-9

    def test_cptp_on_random_inputs(self):
        for seed in range(100):
            rho_bc = states.random_mixed((2, 2), states.sample_rng(100, seed), ("B", "C"))
            assert_cptp(channels.transpose_channel(rho_bc))

    def test_completion_branch_irrelevant_for_full_rank(self):
        # compare against a variant that completes through the maximally
        # mixed state instead; full-rank rho_B makes them identical
        rho_bc = states.random_mixed((2, 2), states.rng_from_seed(11), ("B", "C"))
        t = channels.transpose_channel(rho_bc)
        d_b, d_c = 2, 2
        rho_b = states.partial_trace(rho_bc, ["B"]).matrix
        inv_sqrt_b = linalg.matrix_function(rho_b, lambda x: 1.0 / np.sqrt(x))
        k = linalg.matrix_function(rho_bc.matrix, np.sqrt) @ np.kron(inv_sqrt_b, np.eye(d_c))
        kt = k.reshape(d_b * d_c, d_b, d_c)
        choi = np.einsum("oic,pjc->iojp", kt, kt.conj())
        defect = np.eye(d_b) - linalg.matrix_function(rho_b, np.ones_like)
        choi = choi + np.einsum("ji,op->iojp", defect, np.eye(d_b * d_c) / (d_b * d_c))
        alt = Channel(choi.reshape(8, 8), t.input_dims, t.output_dims)
        assert np.abs(alt.choi - t.choi).max() < 1e-9

    def test_rejects_non_bipartite(self):
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(12), ("A", "B", "C"))
        with pytest.raises(ValueError, match="bipartite"):
            channels.transpose_channel(rho)


class TestStinespring:
    def test_env_dim_one_is_unitary_conjugation(self):
        rng = states.rng_from_seed(13)
        u = channels.haar_isometry(3, 3, rng)
        ch = channels.stinespring_to_channel(u, (("A", 3),), (("A", 3),), 1)
        rho = states.random_mixed((3,), rng, ("A",))
        out = channels.apply(ch, rho)
        assert np.abs(out.matrix - u @ rho.matrix @ u.conj().T).max() < 1e-10

    def test_attach_basis_state(self):
        # V: |psi>_B -> |psi>_B (x) |0>_C realized with env dim 1
        d_b, d_c = 2, 2
        v = np.zeros((d_b * d_c, d_b), dtype=complex)
        for i in range(d_b):
            v[i * d_c + 0, i] = 1.0
        ch = channels.stinespring_to_channel(v, (("B", d_b),), (("B", d_b), ("C", d_c)), 1)
        rho = states.random_mixed((2,), states.rng_from_seed(14), ("B",))
        out = channels.apply(ch, rho)
        zero = np.zeros((2, 2), dtype=complex)
        zero[0, 0] = 1.0
        assert np.abs(out.matrix - np.kron(rho.matrix, zero)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_random_isometries_give_cptp(self, seed):
        rng = states.sample_rng(200, seed)
        v = channels.haar_isometry(12, 3, rng)
        ch = channels.stinespring_to_channel(v, (("A", 3),), (("A", 4),), 3)
        assert_cptp(ch)

    def test_rejects_non_isometry(self):
        v = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError, match="isometry"):
            channels.stinespring_to_channel(v, (("A", 2),), (("A", 2),), 2)


class TestRandomChannel:
    def test_deterministic_under_seed(self):
        a = channels.random_channel(2, 2, None, states.sample_rng(5, 1))
        b = channels.random_channel(2, 2, None, states.sample_rng(5, 1))
        assert np.array_equal(a.choi, b.choi)

    @pytest.mark.parametrize("seed", range(5))
    def test_cptp(self, seed):
        ch = channels.random_channel(3, 2, 4, states.sample_rng(6, seed))
        assert_cptp(ch)


class TestMixAndCompose:
    def test_mix_matches_mixture_of_applications(self):
        rng = states.rng_from_seed(16)
        a = channels.random_channel(2, 3, None, rng, (("A", 2),), (("A", 3),))
        b = channels.random_channel(2, 3, None, rng, (("A", 2),), (("A", 3),))
        rho = states.random_mixed((2,), rng, ("A",))
        w = 0.4
        mixed = Channel(w * a.choi + (1 - w) * b.choi, a.input_dims, a.output_dims)
        lhs = channels.apply(mixed, rho).matrix
        rhs = w * channels.apply(a, rho).matrix + (1 - w) * channels.apply(b, rho).matrix
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_depolarizing_absorbs_composition(self):
        rng = states.rng_from_seed(18)
        dep = depolarizing((("A", 2),), (("A", 2),))
        ch = channels.random_channel(2, 2, None, rng, (("A", 2),), (("A", 2),))
        rho = states.random_mixed((2,), rng, ("A",))
        out = channels.apply(dep, channels.apply(ch, rho))
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-10


class TestKeptSpectrum:
    def test_spectrum_is_the_eigh_of_the_choi_matrix(self):
        rng = states.rng_from_seed(22)
        rho_bc = states.random_mixed((2, 3), rng, ("B", "C"))
        for ch in (
            channels.transpose_channel(rho_bc),
            channels.random_channel(2, 3, None, rng, (("A", 2),), (("A", 3),)),
        ):
            fresh = linalg.eigh(ch.choi)
            assert np.array_equal(ch.spectrum.eigenvalues, fresh.eigenvalues)
            assert np.array_equal(ch.spectrum.eigenvectors, fresh.eigenvectors)


class TestKrausOperators:
    @pytest.mark.parametrize("seed", range(5))
    def test_kraus_rebuild_matches_application(self, seed):
        rng = states.sample_rng(400, seed)
        ch = channels.random_channel(2, 3, 2, rng, (("A", 2),), (("A", 3),))
        ops = channels.kraus_operators(ch)
        rho = states.random_mixed((2,), rng, ("A",))
        rebuilt = sum(k @ rho.matrix @ k.conj().T for k in ops)
        assert np.abs(rebuilt - channels.apply(ch, rho).matrix).max() < 1e-10
        complete = sum(k.conj().T @ k for k in ops)
        assert np.abs(complete - np.eye(2)).max() < 1e-8


class TestChannelJson:
    def test_round_trip(self):
        ch = channels.random_channel(2, 4, None, states.rng_from_seed(19), (("B", 2),), (("B", 2), ("C", 2)))
        loaded = channels.from_json_dict(json.loads(json.dumps(channels.to_json_dict(ch))))
        assert loaded.input_dims == ch.input_dims
        assert loaded.output_dims == ch.output_dims
        assert np.abs(loaded.choi - ch.choi).max() < 1e-15

    def test_document_blocks(self):
        ch = depolarizing((("B", 2),), (("B", 2), ("C", 3)))
        doc = channels.to_json_dict(ch)
        assert doc["input"] == [{"label": "B", "dim": 2}]
        assert doc["output"] == [{"label": "B", "dim": 2}, {"label": "C", "dim": 3}]
