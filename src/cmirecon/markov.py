"""Quantum Markov states and Markovianity diagnostics.

A tripartite state on (B, C, R) with zero conditional mutual information
decomposes the B system into orthogonal blocks B_Lk (x) B_Rk, with the
state a weighted direct sum of products over (C, B_Lk) and (B_Rk, R).
This module builds such states explicitly, generates random instances,
and measures the relative-entropy gap of an arbitrary state to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entropy, states
from .states import MultipartiteState

WEIGHT_ATOL = 1e-12

# A candidate must itself have CMI below this to count as certified Markov.
MARKOV_CMI_TOL = 1e-6

# random_markov_spec draws C and R of these dimensions and B of at most
# RANDOM_MAX_B_DIM.
RANDOM_D_C = 2
RANDOM_D_R = 2
RANDOM_MAX_B_DIM = 4


@dataclass(frozen=True)
class MarkovBlock:
    """One direct-sum block: weight, state on (C, B_L), state on (B_R, R)."""

    weight: float
    left: MultipartiteState
    right: MultipartiteState

    def __post_init__(self):
        if not self.weight >= 0:
            raise ValueError(f"block weight {self.weight} is negative or not a number")
        if len(self.left.subsystems) != 2 or len(self.right.subsystems) != 2:
            raise ValueError("block states must be bipartite: (C, B_L) and (B_R, R)")

    @property
    def d_c(self) -> int:
        return self.left.subsystems[0][1]

    @property
    def d_l(self) -> int:
        return self.left.subsystems[1][1]

    @property
    def d_r_block(self) -> int:
        return self.right.subsystems[0][1]

    @property
    def d_r(self) -> int:
        return self.right.subsystems[1][1]


@dataclass(frozen=True)
class MarkovSpec:
    """Block decomposition defining a quantum Markov state."""

    blocks: tuple[MarkovBlock, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("need at least one block")
        total = sum(b.weight for b in blocks)
        if abs(total - 1.0) > WEIGHT_ATOL:
            raise ValueError(f"block weights sum to {total!r}, not 1")
        d_c = blocks[0].d_c
        d_r = blocks[0].d_r
        for b in blocks:
            if b.d_c != d_c or b.d_r != d_r:
                raise ValueError(
                    f"C and R dimensions must match across blocks: got ({b.d_c}, {b.d_r}) "
                    f"vs ({d_c}, {d_r})"
                )
        object.__setattr__(self, "blocks", blocks)

    @property
    def d_c(self) -> int:
        return self.blocks[0].d_c

    @property
    def d_r(self) -> int:
        return self.blocks[0].d_r

    @property
    def d_b(self) -> int:
        return sum(b.d_l * b.d_r_block for b in self.blocks)


def block_layout(spec: MarkovSpec) -> list[tuple[int, int, int]]:
    """Offsets of the blocks inside B: a list of (offset, d_L, d_R) triples.

    Block k occupies B basis indices offset .. offset + d_L*d_R - 1, with
    the left factor major, so tests can cut the direct sum back apart.
    """
    layout = []
    offset = 0
    for b in spec.blocks:
        layout.append((offset, b.d_l, b.d_r_block))
        offset += b.d_l * b.d_r_block
    return layout


def markov_state(spec: MarkovSpec) -> MultipartiteState:
    """Assemble the direct-sum state on (B, C, R) from its block spec.

    B is the direct sum of the B_Lk (x) B_Rk block spaces, laid out in
    spec order (see ``block_layout``). The output has zero conditional
    mutual information up to numerical round-off.
    """
    d_b, d_c, d_r = spec.d_b, spec.d_c, spec.d_r
    d_cr = d_c * d_r
    full = np.zeros((d_b * d_cr, d_b * d_cr), dtype=complex)
    for (offset, d_l, d_rb), block in zip(block_layout(spec), spec.blocks):
        prod = np.kron(block.left.matrix, block.right.matrix)
        # (C, B_L, B_R, R) -> (B_L, B_R, C, R)
        t = prod.reshape(d_c, d_l, d_rb, d_r, d_c, d_l, d_rb, d_r)
        t = t.transpose(1, 2, 0, 3, 5, 6, 4, 7)
        d_block = d_l * d_rb
        mat = t.reshape(d_block * d_cr, d_block * d_cr)
        # the block's rows (offset + bi) * d_cr + x form one range
        rows = slice(offset * d_cr, (offset + d_block) * d_cr)
        full[rows, rows] += block.weight * mat
    subs = (("B", d_b), ("C", d_c), ("R", d_r))
    return states._derived(full, subs)


def random_markov_spec(rng: np.random.Generator) -> MarkovSpec:
    """Random block structure with mixed shapes and random block states.

    Block shapes (d_L, d_R) are drawn from {1, 2} while the accumulated
    B dimension stays within ``RANDOM_MAX_B_DIM``; weights are
    Dirichlet-uniform.
    """
    shapes: list[tuple[int, int]] = []
    budget = RANDOM_MAX_B_DIM
    while budget > 0:
        options = [
            (dl, dr) for dl in (1, 2) for dr in (1, 2) if dl * dr <= budget
        ]
        dl, dr = options[rng.integers(len(options))]
        shapes.append((dl, dr))
        budget -= dl * dr
        if shapes and rng.random() < 0.3:
            break
    weights = rng.dirichlet(np.ones(len(shapes)))
    blocks = []
    for (dl, dr), w in zip(shapes, weights):
        left = states.random_mixed((RANDOM_D_C, dl), rng, labels=("C", "BL"))
        right = states.random_mixed((dr, RANDOM_D_R), rng, labels=("BR", "R"))
        blocks.append(MarkovBlock(float(w), left, right))
    return MarkovSpec(tuple(blocks))


def markov_gap(rho: MultipartiteState, sigma_markov: MultipartiteState) -> float:
    """Relative-entropy distance to a Markov state minus the CMI I(C:R|B) of rho.

    Nonnegative for every certified Markov sigma (up to round-off);
    ``math.inf`` when rho's support escapes sigma's.
    """
    if rho.subsystems != sigma_markov.subsystems:
        raise ValueError(
            f"states must share subsystems: {rho.subsystems} vs {sigma_markov.subsystems}"
        )
    sigma_cmi = entropy.cmi(sigma_markov)
    if abs(sigma_cmi) > MARKOV_CMI_TOL:
        raise ValueError(
            f"sigma is not a certified Markov state: its CMI is {sigma_cmi:.3e}"
        )
    rel = entropy.relative_entropy(rho, sigma_markov)
    if math.isinf(rel):
        return math.inf
    return rel - entropy.cmi(rho)
