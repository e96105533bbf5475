import math

import numpy as np
import pytest

from cmirecon import channels, entropy, linalg, markov, recovery, states
from cmirecon.markov import MarkovBlock, MarkovSpec


def transpose_recovery_distance(rho_tri):
    rho_bc = states.permute(states.partial_trace(rho_tri, ["B", "C"]), ("B", "C"))
    t = channels.transpose_channel(rho_bc)
    rebuilt = recovery.reconstruct(rho_tri, t)
    return linalg.trace_norm(rho_tri.matrix - rebuilt.matrix)


def single_block_spec(rng, d_c=2, d_l=1, d_rb=2, d_r=2):
    left = states.random_mixed((d_c, d_l), rng, ("C", "BL"))
    right = states.random_mixed((d_rb, d_r), rng, ("BR", "R"))
    return MarkovSpec((MarkovBlock(1.0, left, right),))


class TestMarkovSpecValidation:
    def test_weights_must_sum_to_one(self):
        rng = states.rng_from_seed(0)
        left = states.random_mixed((2, 1), rng, ("C", "BL"))
        right = states.random_mixed((1, 2), rng, ("BR", "R"))
        with pytest.raises(ValueError, match="sum"):
            MarkovSpec((MarkovBlock(0.5, left, right),))

    def test_weight_must_be_a_number(self):
        # a NaN weight passes a sign test and makes the weight sum NaN, which
        # passes the sum test; markov_state trusts its spec
        rng = states.rng_from_seed(0)
        left = states.random_mixed((2, 1), rng, ("C", "BL"))
        right = states.random_mixed((1, 2), rng, ("BR", "R"))
        with pytest.raises(ValueError, match="not a number"):
            MarkovBlock(math.nan, left, right)

    def test_inconsistent_cr_dims_rejected(self):
        rng = states.rng_from_seed(1)
        b1 = MarkovBlock(
            0.5,
            states.random_mixed((2, 1), rng, ("C", "BL")),
            states.random_mixed((1, 2), rng, ("BR", "R")),
        )
        b2 = MarkovBlock(
            0.5,
            states.random_mixed((3, 1), rng, ("C", "BL")),
            states.random_mixed((1, 2), rng, ("BR", "R")),
        )
        with pytest.raises(ValueError, match="match across blocks"):
            MarkovSpec((b1, b2))


class TestMarkovState:
    def test_single_trivial_left_block_is_product(self):
        rng = states.rng_from_seed(2)
        spec = single_block_spec(rng, d_l=1, d_rb=2)
        sigma = markov.markov_state(spec)
        assert abs(entropy.cmi(sigma)) < 1e-9
        # with d_L = 1 the state is rho_C (x) rho_BR
        rho_c = states.partial_trace(spec.blocks[0].left, ["C"])
        expect = states.permute(
            states.tensor(rho_c, spec.blocks[0].right), ("BR", "C", "R")
        )
        assert np.abs(sigma.matrix - expect.matrix).max() < 1e-12

    def test_classical_b_blocks(self):
        # two 1x1 blocks: sum_k p_k |k><k|_B (x) rho_C^k (x) rho_R^k
        rng = states.rng_from_seed(3)
        p = [0.3, 0.7]
        blocks = []
        parts = []
        for w in p:
            left = states.random_mixed((2, 1), rng, ("C", "BL"))
            right = states.random_mixed((1, 2), rng, ("BR", "R"))
            blocks.append(MarkovBlock(w, left, right))
            parts.append((states.partial_trace(left, ["C"]), states.partial_trace(right, ["R"])))
        sigma = markov.markov_state(MarkovSpec(tuple(blocks)))
        assert abs(entropy.cmi(sigma)) < 1e-9
        expect = np.zeros_like(sigma.matrix)
        for k, (w, (rho_c, rho_r)) in enumerate(zip(p, parts)):
            bproj = np.zeros((2, 2))
            bproj[k, k] = 1.0
            expect += w * np.kron(bproj, np.kron(rho_c.matrix, rho_r.matrix))
        assert np.abs(sigma.matrix - expect).max() < 1e-12

    @pytest.mark.parametrize("seed", range(15))
    def test_random_specs_have_zero_cmi_and_exact_recovery(self, seed):
        rng = states.sample_rng(500, seed)
        spec = markov.random_markov_spec(rng)
        sigma = markov.markov_state(spec)
        assert abs(entropy.cmi(sigma)) < 1e-8
        assert transpose_recovery_distance(sigma) < 1e-7

    def test_block_layout_reconstructs_direct_sum(self):
        rng = states.rng_from_seed(4)
        spec = markov.random_markov_spec(rng)
        sigma = markov.markov_state(spec)
        d_c, d_r = spec.d_c, spec.d_r
        d_cr = d_c * d_r
        for (offset, d_l, d_rb), block in zip(markov.block_layout(spec), spec.blocks):
            rows = np.array(
                [(offset + bi) * d_cr + x for bi in range(d_l * d_rb) for x in range(d_cr)]
            )
            got = sigma.matrix[np.ix_(rows, rows)]
            prod = np.kron(block.left.matrix, block.right.matrix)
            t = prod.reshape(d_c, d_l, d_rb, d_r, d_c, d_l, d_rb, d_r)
            t = t.transpose(1, 2, 0, 3, 5, 6, 4, 7)
            expect = block.weight * t.reshape(d_l * d_rb * d_cr, d_l * d_rb * d_cr)
            assert np.abs(got - expect).max() < 1e-12


class TestMarkovGap:
    def test_zero_for_markov_state_itself(self):
        sigma = markov.markov_state(markov.random_markov_spec(states.rng_from_seed(5)))
        assert abs(markov.markov_gap(sigma, sigma)) < 1e-7

    @pytest.mark.parametrize("seed", range(10))
    def test_nonnegative_for_random_states(self, seed):
        rng = states.sample_rng(600, seed)
        spec = markov.random_markov_spec(rng)
        sigma = markov.markov_state(spec)
        rho = states.random_mixed(sigma.dims, rng, sigma.labels)
        assert markov.markov_gap(rho, sigma) >= -1e-7

    def test_ghz_vs_uniform_classical_markov(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = psi[7] = 1 / np.sqrt(2)
        ghz = states.MultipartiteState(
            np.outer(psi, psi.conj()), (("B", 2), ("C", 2), ("R", 2))
        )
        # classical-B Markov state matching the GHZ diagonal
        rng = states.rng_from_seed(6)
        blocks = []
        for k in range(2):
            table_c = np.zeros(2)
            table_c[k] = 1.0
            left = states.tensor(
                states.classical_state(table_c, ["C"]),
                states.classical_state(np.ones(1), ["BL"]),
            )
            right = states.tensor(
                states.classical_state(np.ones(1), ["BR"]),
                states.classical_state(table_c.copy(), ["R"]),
            )
            blocks.append(MarkovBlock(0.5, left, right))
        sigma = markov.markov_state(MarkovSpec(tuple(blocks)))
        gap = markov.markov_gap(ghz, sigma)
        # S(ghz||sigma) = 1 bit, CMI = 1 bit
        assert math.isfinite(gap)
        assert gap >= -1e-9
        assert abs(gap) < 1e-8

    def test_support_violation_gives_infinite_gap(self):
        # rank-1 Markov sigma (pure product blocks) cannot carry a generic state
        rng = states.rng_from_seed(7)
        left = states.random_pure((2, 1), rng, ("C", "BL"))
        right = states.random_pure((2, 2), rng, ("BR", "R"))
        sigma = markov.markov_state(MarkovSpec((MarkovBlock(1.0, left, right),)))
        pure = states.random_pure(sigma.dims, states.rng_from_seed(8), sigma.labels)
        gap = markov.markov_gap(pure, sigma)
        assert gap == math.inf

    def test_non_markov_sigma_rejected(self):
        ghz_like = states.random_pure((2, 2, 2), states.rng_from_seed(9), ("B", "C", "R"))
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(10), ("B", "C", "R"))
        with pytest.raises(ValueError, match="certified Markov"):
            markov.markov_gap(rho, ghz_like)

    def test_dims_must_match(self):
        sigma = markov.markov_state(single_block_spec(states.rng_from_seed(11)))
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(12), ("B", "C", "R"))
        if rho.subsystems != sigma.subsystems:
            with pytest.raises(ValueError, match="share subsystems"):
                markov.markov_gap(rho, sigma)
