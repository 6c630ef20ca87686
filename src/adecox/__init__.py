"""Exact arithmetic for marked rational surfaces of types A, D and E.

The package builds the intersection lattice of a family member, enumerates
its distinguished curve classes (roots, lines, rulings), computes weight
multisets and symmetric-square decompositions over the induced root system,
presents the graded section ring with its quadratic relations, and realizes
the D-family embedding into the quadric cone.  All computations run over
the integers and rationals; there are no tolerances.
"""

from .cox import (
    CoxPresentation,
    Generator,
    Relation,
    RelationCensus,
    SurfaceConfigD,
    anticanonical_shift,
    cox_generators,
    cox_presentation,
    dn_ideal,
    git_hilbert,
    graded_piece_dim,
    relation_census,
    section_dim,
    torus_character,
    verify_hilbert,
)
from .curves import (
    ClassSet,
    enumerate_lines,
    enumerate_roots,
    enumerate_rulings,
    pairs_of_lines_summing_to,
)
from .flag import (
    QuadricSystem,
    appendix_tensor_check,
    cone_quadric_D,
    embed_cox_into_cone_D,
)
from .lattice import (
    DivisorClass,
    IntersectionLattice,
    SurfaceFamily,
    basis_class,
    build_lattice,
    degree,
    pair,
    reflect,
)
from .roots import (
    RootSystemData,
    build_root_system,
    classify_type,
    simple_roots,
    weyl_orbit,
)
from .selftest import CHECKS, run_selftest
from .weights import (
    DominantCharacter,
    WeightMultiset,
    decompose_sym2,
    freudenthal,
    is_weyl_invariant,
    line_highest_class,
    line_weight_multiset,
    ruling_highest_class,
    ruling_weight_multiset,
    sym2_multiset,
    verify_weight_lemma,
    weight_of,
    weyl_dim,
)

__all__ = [
    "CHECKS",
    "ClassSet",
    "CoxPresentation",
    "DivisorClass",
    "DominantCharacter",
    "Generator",
    "IntersectionLattice",
    "QuadricSystem",
    "Relation",
    "RelationCensus",
    "RootSystemData",
    "SurfaceConfigD",
    "SurfaceFamily",
    "WeightMultiset",
    "anticanonical_shift",
    "appendix_tensor_check",
    "basis_class",
    "build_lattice",
    "build_root_system",
    "classify_type",
    "cone_quadric_D",
    "cox_generators",
    "cox_presentation",
    "decompose_sym2",
    "degree",
    "dn_ideal",
    "embed_cox_into_cone_D",
    "enumerate_lines",
    "enumerate_roots",
    "enumerate_rulings",
    "freudenthal",
    "git_hilbert",
    "graded_piece_dim",
    "is_weyl_invariant",
    "line_highest_class",
    "line_weight_multiset",
    "pair",
    "pairs_of_lines_summing_to",
    "reflect",
    "relation_census",
    "ruling_highest_class",
    "ruling_weight_multiset",
    "run_selftest",
    "section_dim",
    "simple_roots",
    "sym2_multiset",
    "torus_character",
    "verify_hilbert",
    "verify_weight_lemma",
    "weight_of",
    "weyl_dim",
    "weyl_orbit",
]

__version__ = "0.1.0"
