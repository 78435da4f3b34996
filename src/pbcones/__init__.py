"""Exact intersection rings, curve/Kahler cones and blow-down certificates
for projective bundles over curves."""

# Not oracle or cli: every pbcone start-up imports this package, and only
# `pbcone check` needs the oracle.
from .bundles import *
from .cohomology import *
from .cones import *
from .blowdown import *

__version__ = "0.1.0"
