"""Exact coloring invariants of hypergraphs.

The central object is a hypergraph with multiset edges.  Its invariant
polynomial counts colorings in which every edge has a unique vertex of
maximal color; evaluated at negated arguments it counts compatible pairs
of acyclic orientations and colorings.  Submodules specialize the same
machinery to graphs, simplicial complexes, building sets, set partitions
and families of paths.
"""

from .combinatorics import (
    bernoulli,
    f_polynomial,
    power_sum_polynomial,
)
from .compositions import (
    SetComposition,
    SetDecomposition,
    colorings,
    enumerate_decompositions,
    enumerate_set_compositions,
)
from .hypergraph import (
    FormalSum,
    Hypergraph,
    antipode,
    disjoint_union,
    iterated_coproduct,
)
from .invariant import (
    ConstraintSystem,
    chi_eval_colorings,
    chi_eval_definition,
    chi_eval_negative,
    chi_on_formal_sum,
    chi_polynomial,
    constrained_compositions,
)
from .orientations import (
    acyclic_orientations,
    all_orientations,
    count_compatible_pairs,
    is_acyclic,
    is_compatible,
    is_strictly_compatible,
    orientation_count,
)
from .polynomial import Polynomial
from .submonoids import (
    BuildingSet,
    PathFamily,
    RootedForest,
    RootedTree,
    SetPartition,
    SimpleGraph,
    SimplicialComplex,
    building_polynomial,
    chromatic_polynomial,
    partition_coproduct,
    partition_polynomial,
    partitioning_forests,
    path_coproduct,
    path_polynomial,
    path_to_graph,
    rip_sew_coproduct,
    shg_coproduct,
    simplify,
    skeleton_orientation,
    skeletons,
    tubes,
    tubes_polynomial,
)

__version__ = "0.1.0"
