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

Each module's __all__ is the one list of its public names; the package
exports their union and __version__.
"""

# `from .rank import *` rebinds the package's `rank` to the function of
# that name, so the module is read through a second name bound first
from . import cyclic, errors, morph, positroid, rank as _rank, realize
from .cyclic import *
from .errors import *
from .morph import *
from .positroid import *
from .rank import *
from .realize import *

__version__ = "0.1.0"

__all__ = [
    *cyclic.__all__, *errors.__all__, *morph.__all__,
    *positroid.__all__, *_rank.__all__, *realize.__all__, "__version__",
]
