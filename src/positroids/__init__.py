"""Positroid toolkit.

Positroids are the matroids realized by full-row-rank real matrices whose
maximal minors are all nonnegative. They are encoded combinatorially by a
decorated permutation or, equivalently, a Grassmann necklace, and this
package computes with those encodings directly: basis membership via Gale
orders, the rank of an arbitrary subset of the ground set via non-crossing
partitions of its cyclic intervals (no basis enumeration), witness bases
through staged interval exchanges, and an exact-rational bridge from
totally nonnegative matrices to positroids; the way back, positroid to
matrix, is not implemented.

The ground set is always {1..n}, ordered cyclically.
"""

from .cyclic import (
    CyclicInterval,
    IntervalDecomposition,
    cyclic_leq,
    cyclic_less,
    decompose,
    format_set_spec,
    gale_leq,
    half_open,
    interval_contains,
    open_interval,
    parse_set_spec,
    position,
)
from .errors import (
    ContractViolationError,
    EnumerationLimitError,
    NotAPositroidError,
    ValidationError,
)
from .morph import (
    ExchangeKind,
    ExchangeRecord,
    GapStatus,
    MorphState,
    align_basis,
    interval_exchange,
    is_compatible,
    mimic,
    morph_sequence,
    witness_basis,
)
from .positroid import (
    DecoratedPermutation,
    GrassmannNecklace,
    Positroid,
    enumerate_bases,
    loops_and_coloops,
    necklace_of,
    permutation_of,
    rank_bruteforce,
    reduce,
)
from .rank import (
    ArrowTable,
    NonCrossingPartition,
    RankCertificate,
    arrow_table,
    bound_for_partition,
    ccw_count,
    cw_count,
    enumerate_ncp,
    min_elements,
    natural_bound,
    rank,
    rank_dp,
    rank_of_interval,
)
from .realize import (
    BasisCollection,
    RationalMatrix,
    first_negative_minor,
    is_totally_nonnegative,
    matroid_from_matrix,
    maximal_minor,
    necklace_from_bases,
    positroid_from_matrix,
    random_tnn_matrix,
    row_rank,
)

__version__ = "0.1.0"

__all__ = [
    "CyclicInterval",
    "IntervalDecomposition",
    "cyclic_leq",
    "cyclic_less",
    "decompose",
    "format_set_spec",
    "gale_leq",
    "half_open",
    "interval_contains",
    "open_interval",
    "parse_set_spec",
    "position",
    "ContractViolationError",
    "EnumerationLimitError",
    "NotAPositroidError",
    "ValidationError",
    "ExchangeKind",
    "ExchangeRecord",
    "GapStatus",
    "MorphState",
    "align_basis",
    "interval_exchange",
    "is_compatible",
    "mimic",
    "morph_sequence",
    "witness_basis",
    "DecoratedPermutation",
    "GrassmannNecklace",
    "Positroid",
    "enumerate_bases",
    "loops_and_coloops",
    "necklace_of",
    "permutation_of",
    "rank_bruteforce",
    "reduce",
    "ArrowTable",
    "NonCrossingPartition",
    "RankCertificate",
    "arrow_table",
    "bound_for_partition",
    "ccw_count",
    "cw_count",
    "enumerate_ncp",
    "min_elements",
    "natural_bound",
    "rank",
    "rank_dp",
    "rank_of_interval",
    "BasisCollection",
    "RationalMatrix",
    "first_negative_minor",
    "is_totally_nonnegative",
    "matroid_from_matrix",
    "maximal_minor",
    "necklace_from_bases",
    "positroid_from_matrix",
    "random_tnn_matrix",
    "row_rank",
    "__version__",
]
