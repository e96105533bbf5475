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

    def test_rejects_a_small_negative_eigenvalue(self):
        # the dephasing channel's Choi matrix diag(1, 0, 0, 1) plus
        # 1e-6 |0><0| (x) Z: still trace preserving, smallest eigenvalue -1e-6
        j = np.diag([1.0 + 1e-6, -1e-6, 0.0, 1.0]).astype(complex)
        assert np.linalg.eigvalsh(j)[0] == -1e-6
        with pytest.raises(ValueError, match="not CP"):
            Channel(j, (("A", 2),), (("A", 2),))

    def test_rejects_non_tp(self):
        j = np.zeros((4, 4), dtype=complex)
        j[0, 0] = 1.0  # sub-normalized
        with pytest.raises(ValueError, match="trace preserving"):
            Channel(j, (("A", 2),), (("A", 2),))

    def test_trace_error_is_held_to_the_state_boundary(self):
        # the identity qubit channel, scaled: 5e-9 would pass a trace error
        # through apply that MultipartiteState rejects
        phi = np.zeros(4, dtype=complex)
        phi[[0, 3]] = 1.0
        identity = np.outer(phi, phi)
        with pytest.raises(ValueError, match="trace preserving"):
            Channel(identity * (1.0 + 5e-9), (("A", 2),), (("A", 2),))
        ch = Channel(identity * (1.0 + 5e-10), (("A", 2),), (("A", 2),))
        out = channels.apply(ch, states.random_mixed((2,), states.rng_from_seed(3), ("A",)))
        assert states.MultipartiteState(out.matrix, out.subsystems).subsystems == out.subsystems

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
        ch = channels.random_channel(d_in, d_out, rng, in_dims, outputs)
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

    def test_string_on_is_one_label(self):
        rng = states.rng_from_seed(9)
        rho = states.random_mixed((2, 3), rng, ("B1", "R"))
        ch = channels.random_channel(2, 2, rng, (("B1", 2),), (("B1", 2),))
        out = channels.apply(ch, rho, on="B1")
        assert out.subsystems == rho.subsystems
        assert np.array_equal(out.matrix, channels.apply(ch, rho, on=["B1"]).matrix)

    def test_linearity_on_convex_mixtures(self):
        rng = states.rng_from_seed(4)
        a = states.random_mixed((2,), rng, ("A",))
        b = states.random_mixed((2,), rng, ("A",))
        ch = channels.random_channel(2, 3, rng, (("A", 2),), (("A", 3),))
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

    def test_rejects_a_non_finite_isometry(self):
        v = np.eye(4, 2, dtype=complex)
        v[0, 0] = np.nan
        with pytest.raises(ValueError, match="isometry"):
            channels.stinespring_to_channel(v, (("A", 2),), (("A", 2),), 2)

    def test_trace_preservation_is_held_to_the_channel_boundary(self):
        # V^dag V = (1 + 1e-7)^2 I passes ISOMETRY_ATOL, but tr_out of the
        # Choi matrix misses the identity by 2e-7, past TRACE_PRESERVING_ATOL
        v = channels.haar_isometry(4, 2, states.rng_from_seed(25)) * (1.0 + 1e-7)
        assert np.abs(v.conj().T @ v - np.eye(2)).max() < channels.ISOMETRY_ATOL
        vt = v.reshape(2, 2, 2)
        choi = np.einsum("oei,pej->iojp", vt, vt.conj()).reshape(4, 4)
        for build in (
            lambda: channels.stinespring_to_channel(v, (("A", 2),), (("A", 2),), 2),
            lambda: Channel(choi, (("A", 2),), (("A", 2),)),
        ):
            with pytest.raises(ValueError, match="trace preserving"):
                build()

    def test_decomposes_nothing(self, decompositions):
        v = channels.haar_isometry(12, 3, states.rng_from_seed(26))
        ch = channels.stinespring_to_channel(v, (("A", 3),), (("A", 4),), 3)
        assert decompositions() == 0
        assert_cptp(ch)


class TestRandomChannel:
    def test_deterministic_under_seed(self):
        a = channels.random_channel(2, 2, states.sample_rng(5, 1))
        b = channels.random_channel(2, 2, states.sample_rng(5, 1))
        assert np.array_equal(a.choi, b.choi)

    @pytest.mark.parametrize("seed", range(5))
    def test_cptp(self, seed):
        ch = channels.random_channel(3, 2, states.sample_rng(6, seed))
        assert_cptp(ch)


class TestMixAndCompose:
    def test_mix_matches_mixture_of_applications(self):
        rng = states.rng_from_seed(16)
        a = channels.random_channel(2, 3, rng, (("A", 2),), (("A", 3),))
        b = channels.random_channel(2, 3, rng, (("A", 2),), (("A", 3),))
        rho = states.random_mixed((2,), rng, ("A",))
        w = 0.4
        mixed = Channel(w * a.choi + (1 - w) * b.choi, a.input_dims, a.output_dims)
        lhs = channels.apply(mixed, rho).matrix
        rhs = w * channels.apply(a, rho).matrix + (1 - w) * channels.apply(b, rho).matrix
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_depolarizing_absorbs_composition(self):
        rng = states.rng_from_seed(18)
        dep = depolarizing((("A", 2),), (("A", 2),))
        ch = channels.random_channel(2, 2, rng, (("A", 2),), (("A", 2),))
        rho = states.random_mixed((2,), rng, ("A",))
        out = channels.apply(dep, channels.apply(ch, rho))
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-10


class TestDecomposedOnFirstRead:
    def test_the_boundary_decomposes_once(self, decompositions):
        rho = states.random_mixed((2,), states.rng_from_seed(22), ("A",))
        read = decompositions()
        ch = depolarizing((("A", 2),), (("A", 3),))
        assert decompositions() == read + 1
        channels.apply(ch, rho)
        assert decompositions() == read + 1


def _confined_bc(seed):
    """A (B, C) state with B confined to a random 2-dimensional subspace of
    dimension 4, so rho_B has a kernel of complex vectors."""
    rng = states.sample_rng(seed, 0)
    rho = states.random_mixed((2, 2), rng, ("B", "C"))
    embed = np.kron(channels.haar_isometry(4, 2, rng), np.eye(2))
    return states.MultipartiteState(embed @ rho.matrix @ embed.conj().T, (("B", 4), ("C", 2)))


def _kraus_apply(kraus, pi):
    return np.einsum("oie,ij,pje->op", kraus, pi, kraus.conj())


class TestKrausOperators:
    """The transpose channel's Kraus stack k[o, i, e]."""

    @pytest.mark.parametrize("seed", range(5))
    def test_kraus_rebuild_matches_application(self, seed):
        rng = states.sample_rng(400, seed)
        rho_bc = states.random_mixed((2, 3), rng, ("B", "C"))
        kraus = channels._transpose_kraus(rho_bc)
        assert kraus.shape == (6, 2, 3)
        pi = states.random_mixed((2,), rng, ("B",))
        applied = channels.apply(channels.transpose_channel(rho_bc), pi).matrix
        assert np.abs(_kraus_apply(kraus, pi.matrix) - applied).max() < 1e-13
        complete = np.einsum("oie,oje->ij", kraus.conj(), kraus)
        assert np.abs(complete - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_completion_routes_the_kernel_to_rho_bc(self, seed):
        rho_bc = _confined_bc(seed)
        spec_b = states.partial_trace(rho_bc, ["B"]).spectrum
        assert spec_b.kernel == 2
        kraus = channels._transpose_kraus(rho_bc)
        # d_C operators, then rank(rho_BC) x kernel completion operators
        assert kraus.shape == (8, 4, 2 + 4 * 2)
        complete = np.einsum("oie,oje->ij", kraus.conj(), kraus)
        assert np.abs(complete - np.eye(4)).max() < 1e-12
        pi = states.random_mixed((4,), states.sample_rng(seed, 1), ("B",))
        t = channels.transpose_channel(rho_bc)
        assert np.abs(_kraus_apply(kraus, pi.matrix) - channels.apply(t, pi).matrix).max() < 1e-13
        # a state on rho_B's kernel is sent to rho_BC
        k = spec_b.eigenvectors[:, :1]
        assert np.abs(_kraus_apply(kraus, k @ k.conj().T) - rho_bc.matrix).max() < 1e-13


def _singular_b_state():
    """A full-rank (2,2,2) state with B embedded in dimension 4: rho_B has rank 2.

    The same state as ``_singular_b_state`` in test_recovery.py.
    """
    rho = states.random_mixed((2, 2, 2), states.rng_from_seed(5), ("B", "C", "R"))
    big = np.zeros((4, 4, 4, 4), dtype=complex)
    big[:2, :, :2, :] = rho.matrix.reshape(2, 4, 2, 4)
    return states.MultipartiteState(big.reshape(16, 16), (("B", 4), ("C", 2), ("R", 2)))


_UNIVERSAL_CASES = [
    pytest.param(
        lambda: states.random_pure((2, 2, 3), states.rng_from_seed(301), ("B", "C", "R")),
        id="pure-223",
    ),
    pytest.param(
        lambda: states.random_mixed(
            (3, 2, 2), states.rng_from_seed(201), ("B", "C", "R"), ancilla_dim=2
        ),
        id="rank2-322",
    ),
    pytest.param(_singular_b_state, id="singular-b-422"),
]


def _bc(draw):
    return states.partial_trace(draw(), ["B", "C"])


def _power(m, z):
    """m^z on m's support, 0 on its kernel, for a complex exponent z."""
    w, v = np.linalg.eigh(m)
    k = linalg.kernel_size(w)
    f = np.zeros(len(w), dtype=complex)
    f[k:] = w[k:] ** z
    return (v * f) @ v.conj().T


def _rotated_choi(rho_bc, t):
    """The Choi matrix of R^t(pi) = rho_BC^{(1+it)/2} (rho_B^{-(1+it)/2} pi
    rho_B^{-(1-it)/2} (x) I_C) rho_BC^{(1-it)/2}, with the transpose channel's
    completion on rho_B's kernel."""
    (_, d_b), (_, d_c) = rho_bc.subsystems
    rho_b = states.partial_trace(rho_bc, ["B"]).matrix
    z = (1.0 + 1j * t) / 2.0
    left = _power(rho_bc.matrix, z) @ np.kron(_power(rho_b, -z), np.eye(d_c))
    completion = channels._transpose_kraus(rho_bc)[:, :, d_c:]
    return channels._choi(np.concatenate([left.reshape(d_b * d_c, d_b, d_c), completion], axis=2))


def _quadrature_choi(rho_bc):
    """sum_k h beta0(t_k) Choi(R^{t_k}) over 641 points on |t| <= 10, beta0(t) = (pi/2) / (cosh(pi t) + 1).

    beta0 holds about 2e-14 of its mass beyond |t| = 10, and the integrand
    is analytic in the strip |Im t| < 1, so the equal-weight rule is exact
    to round-off.
    """
    ts, h = np.linspace(-10.0, 10.0, 641, retstep=True)
    beta = (math.pi / 2.0) / (np.cosh(math.pi * ts) + 1.0)
    return sum(h * b * _rotated_choi(rho_bc, t) for b, t in zip(beta, ts))


class TestUniversalRecoveryMap:
    """The universal recovery map R = int beta0(t) R^t dt in closed form (``_universal_kraus``)."""

    @pytest.mark.parametrize("draw", _UNIVERSAL_CASES)
    def test_matches_the_quadrature_oracle(self, draw):
        rho_bc = _bc(draw)
        # the oracle's R^0 is the transpose channel
        transpose = channels._choi(channels._transpose_kraus(rho_bc))
        assert np.abs(_rotated_choi(rho_bc, 0.0) - transpose).max() < 1e-14
        choi = channels._choi(channels._universal_kraus(rho_bc))
        assert np.abs(choi - _quadrature_choi(rho_bc)).max() < 1e-12
        # and R is not T: the rotations move the Choi matrix
        assert np.abs(choi - transpose).max() > 1e-3

    @pytest.mark.parametrize("draw", _UNIVERSAL_CASES)
    def test_is_a_channel(self, draw):
        rho_bc = _bc(draw)
        d_b, d_bc = rho_bc.dims[0], rho_bc.dim
        kraus = channels._universal_kraus(rho_bc)
        assert kraus.shape[:2] == (d_bc, d_b) and kraus.shape[2] <= d_b * d_bc
        choi = channels._choi(kraus)
        marginal = np.trace(choi.reshape(d_b, d_bc, d_b, d_bc), axis1=1, axis2=3)
        assert np.abs(marginal - np.eye(d_b)).max() <= channels.TRACE_PRESERVING_ATOL
        assert np.linalg.eigvalsh(choi)[0] >= -1e-14
        channels.Channel(choi, (rho_bc.subsystems[0],), rho_bc.subsystems)

    @pytest.mark.parametrize("seed", range(3))
    def test_flat_spectra_give_the_transpose_channel(self, seed):
        # rho_B = 1/2 and rho_BC a maximally entangled pure state turned by a
        # local unitary: every log ratio w is 0, so R = T
        rng = states.sample_rng(402, seed)
        u = np.kron(channels.haar_isometry(2, 2, rng), channels.haar_isometry(2, 2, rng))
        phi = u @ np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        rho_bc = states.MultipartiteState(np.outer(phi, phi.conj()), (("B", 2), ("C", 2)))
        universal = channels._choi(channels._universal_kraus(rho_bc))
        assert np.abs(universal - channels._choi(channels._transpose_kraus(rho_bc))).max() < 1e-15

    def test_a_diagonal_flat_state_gives_the_transpose_channel_bit_for_bit(self):
        # every eigenbasis is the computational one, so nothing rotates
        rho_bc = states.MultipartiteState(np.diag([0.5, 0.0, 0.0, 0.5]), (("B", 2), ("C", 2)))
        universal = channels._choi(channels._universal_kraus(rho_bc))
        assert np.array_equal(universal, channels._choi(channels._transpose_kraus(rho_bc)))


class TestChannelJson:
    def test_round_trip(self):
        ch = channels.random_channel(2, 4, states.rng_from_seed(19), (("B", 2),), (("B", 2), ("C", 2)))
        loaded = channels.from_json_dict(json.loads(json.dumps(channels.to_json_dict(ch))))
        assert loaded.input_dims == ch.input_dims
        assert loaded.output_dims == ch.output_dims
        assert np.abs(loaded.choi - ch.choi).max() < 1e-15

    def test_document_blocks(self):
        ch = depolarizing((("B", 2),), (("B", 2), ("C", 3)))
        doc = channels.to_json_dict(ch)
        assert doc["input"] == [{"label": "B", "dim": 2}]
        assert doc["output"] == [{"label": "B", "dim": 2}, {"label": "C", "dim": 3}]
