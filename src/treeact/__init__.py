"""Exact-arithmetic experiments with group actions on finite trees,
invariant orderings on balls, and dynamical realizations."""

__version__ = "0.1.0"

from .matrices import (
    GroupMatrix,
    FiniteMatrixGroup,
    commutator,
    congruence_membership,
    elementary,
    enumerate_group,
    normal_core,
    six_generators,
    six_generators_embedded,
    verify_hexagon_relations,
    verify_ll_identity,
)
from .ordering import (
    Ball,
    OrderAssignment,
    ball_generate,
    check_axioms,
    check_invariance,
    compactness_extract,
    search_invariant,
)
from .realize import (
    PLHomeo,
    RealizationMap,
    almost_free_report,
    fixed_set,
    generator_pl_map,
    order_from_realization,
    realize,
    verify_realization,
)
from .tower import (
    FiniteTreeAction,
    InverseSystem,
    attach_decorations,
    build_congruence_tower,
    degree_profile,
    orbit,
    projection_orbit_growth,
    star_dendrite,
    verify_tower,
)
from .trees import (
    Tree,
    TreeAutomorphism,
    common_fixed_point,
    convex_hull,
    first_point_map,
    path,
    point_order,
    validate_tree,
)
