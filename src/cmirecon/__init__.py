"""Conditional mutual information, entropic distances, and recovery channels
for small multipartite quantum states."""

from .channels import (
    Channel,
    apply,
    random_channel,
    stinespring_to_channel,
    transpose_channel,
)
from .entropy import (
    MeasuredReSolution,
    cmi,
    fidelity,
    measured_relative_entropy,
    relative_entropy,
    relative_entropy_continuity_bound,
    renyi_half,
    von_neumann,
)
from .markov import MarkovBlock, MarkovSpec, markov_gap, markov_state, random_markov_spec
from .recovery import (
    OptimizerResult,
    optimize_recovery,
    reconstruct,
)
from .states import (
    MultipartiteState,
    classical_example_state,
    classical_state,
    partial_trace,
    permute,
    purify,
    random_mixed,
    random_pure,
    rng_from_seed,
    sample_rng,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "MarkovBlock",
    "MarkovSpec",
    "MeasuredReSolution",
    "MultipartiteState",
    "OptimizerResult",
    "apply",
    "classical_example_state",
    "classical_state",
    "cmi",
    "fidelity",
    "markov_gap",
    "markov_state",
    "measured_relative_entropy",
    "optimize_recovery",
    "partial_trace",
    "permute",
    "purify",
    "random_channel",
    "random_markov_spec",
    "random_mixed",
    "random_pure",
    "reconstruct",
    "relative_entropy",
    "relative_entropy_continuity_bound",
    "renyi_half",
    "rng_from_seed",
    "sample_rng",
    "stinespring_to_channel",
    "tensor",
    "transpose_channel",
    "von_neumann",
]
