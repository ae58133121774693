"""percolab: a desk-scale laboratory for critical bond percolation.

Seed-deterministic lazy sampling on Z^d, annulus spanning-cluster
certification, empirical transition kernels between spanning clusters,
positive-kernel contraction numerics, and conditional-measure convergence
experiments, all backed by exact-enumeration oracles on tiny graphs.
"""

from .lattice import LatticeSpec, Region, annulus, box
from .engine import PercolationConfig, edge_state, enumerate_exact
from .scales import ScaleParams, faithful_params, toy_params

__version__ = "0.1.0"

__all__ = [
    "LatticeSpec",
    "Region",
    "annulus",
    "box",
    "PercolationConfig",
    "edge_state",
    "enumerate_exact",
    "ScaleParams",
    "faithful_params",
    "toy_params",
    "__version__",
]
