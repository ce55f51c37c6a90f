"""Numerical toolkit for correlation classes of bipartite quantum states.

The chain {zero discord} within {strong PPT} within {PPT} for 2xN states
is the organizing fact: classical-quantum states are detected exactly,
strong PPT is certified through the canonical block Cholesky
factorization, and quantum discord is computed by optimizing over
projective measurements on the low-dimensional side.
"""

from .bipartite import (
    BipartiteState,
    PptVerdict,
    assemble_blocks,
    block_tensor,
    is_ppt,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_a,
    validate,
)
from .discord import (
    DEFAULT_OPT,
    CqVerdict,
    DiscordReport,
    OptimizerConfig,
    commutator_criterion,
    cq_detect,
    discord_a,
)
from .factorization import (
    SpptFactorization,
    SpptVerdict,
    factorize,
    is_sppt,
)
from .families import (
    BellDiagonalParams,
    CqSpec,
    XStateParams,
    bell_diagonal,
    bell_is_sppt,
    bell_zero_discord,
    build_cq_state,
    random_cq,
    random_cq_spec,
    random_ginibre_density,
    random_pure,
    random_sppt,
    random_unitary,
    xstate,
    xstate_is_positive,
    xstate_is_ppt,
    xstate_is_sppt,
    xstate_zero_discord,
)
from .matlib import DEFAULT_TOL, Tolerance
from .statefile import read_statefile, write_statefile

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Tolerance",
    "DEFAULT_TOL",
    "BipartiteState",
    "PptVerdict",
    "validate",
    "block_tensor",
    "assemble_blocks",
    "partial_transpose_a",
    "partial_trace_a",
    "partial_trace_b",
    "is_ppt",
    "SpptFactorization",
    "SpptVerdict",
    "factorize",
    "is_sppt",
    "OptimizerConfig",
    "DEFAULT_OPT",
    "DiscordReport",
    "CqVerdict",
    "discord_a",
    "commutator_criterion",
    "cq_detect",
    "XStateParams",
    "BellDiagonalParams",
    "CqSpec",
    "build_cq_state",
    "xstate",
    "xstate_is_positive",
    "xstate_is_ppt",
    "xstate_is_sppt",
    "xstate_zero_discord",
    "bell_diagonal",
    "bell_is_sppt",
    "bell_zero_discord",
    "random_ginibre_density",
    "random_unitary",
    "random_cq_spec",
    "random_cq",
    "random_sppt",
    "random_pure",
    "read_statefile",
    "write_statefile",
]
