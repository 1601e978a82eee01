"""Desk-scale toolkit for cyclic products of groups.

A cyclic product glues vertex groups around a cycle of length at least five,
letting neighbouring groups commute elementwise.  The package provides exact
normal forms for the word problem, bounded pieces of the associated polygonal
complex and its square subdivision, tree-walls with truncated stabilizer
audits, an algebraic reconstruction of the complex from parabolic subgroups,
the automorphism group in inner-times-local normal form, and disc diagrams
with an exact integer curvature identity.
"""

from .errors import (
    CycleWallError,
    DecompositionError,
    EnumerationCapError,
    FillError,
    GroupMismatchError,
    InfiniteGroupError,
    ResourceLimitError,
    ValidationError,
)
from .localgroups import (
    LocalGroupSpec,
    LocalIso,
    cyclic_group,
    determining_set,
    integers_group,
    isomorphisms,
    table_group,
)
from .words import (
    GroupElement,
    Presentation,
    Syllable,
    coset_rep,
    cyclic_reduce,
    enumerate_ball_elements,
    format_word,
    identity,
    inv,
    mul,
    parabolic_member,
    parse_word,
    reduce_word,
)
from .davis import (
    ComplexBall,
    build_ball,
    subdivision,
)
from .walls import (
    TreeWall,
    crossing_graph,
    delta,
    walls_of_ball,
)
from .algebraic import (
    CSubgroup,
    build_script_X_ball,
    join_is_cmaximal,
    phi_iso_check,
)
from .autgroup import (
    AutElement,
    CycleSymmetry,
    LocalAut,
    aut_compose,
    aut_decompose,
    enumerate_loc,
    witness_fixator_check,
)
from .diagrams import (
    DiscDiagram,
    convention_lock,
    fill_loop,
    gauss_bonnet_check,
)
from .reports import Report

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
