"""Permutation groups, small-graph automorphisms, and a certified check
that the Petersen graph's automorphism group is S5."""

from . import graphs, perms, search, verify
from .graphs import *
from .perms import *
from .search import *
from .verify import *

__version__ = "0.1.0"

__all__ = [*graphs.__all__, *perms.__all__, *search.__all__, *verify.__all__]
