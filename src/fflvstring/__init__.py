"""Exact lattice-point pipelines for chain polytopes and string polytopes.

The package constructs, in exact integer/rational arithmetic, the lattice
points of the PBW-chain polytopes of families A and C, the string points of
the matching Demazure modules in rank 2n-1, and the affine unimodular map
carrying one set onto the other, together with verification pipelines that
confirm the set equality and its supporting properties by exhaustive
computation at small rank.
"""

from .crystal import demazure_set, extract_string, string_points
from .degenmap import (
    apply_T,
    build_matrix,
    build_translation,
    fold_label,
    fold_vector,
    weight_twist_solve,
)
from .errors import VerificationError
from .fflv import dyck_check_A, fundamental_points, points
from .rootsys import (
    LieType,
    RootLabel,
    build_labels,
    fflv_weight,
    reduced_word,
    string_weight,
    weyl_dim,
)
from .verify import (
    VerificationReport,
    check_main,
    run_grid,
)
from .wedge import (
    act_monomial,
    act_simple,
    minimality_check_A,
    nonannihilation_check,
    oracle_string_points_A,
    sim_check,
)

__version__ = "0.1.0"

__all__ = [
    "LieType",
    "RootLabel",
    "VerificationError",
    "VerificationReport",
    "act_monomial",
    "act_simple",
    "apply_T",
    "build_labels",
    "build_matrix",
    "build_translation",
    "check_main",
    "demazure_set",
    "dyck_check_A",
    "extract_string",
    "fflv_weight",
    "fold_label",
    "fold_vector",
    "fundamental_points",
    "minimality_check_A",
    "nonannihilation_check",
    "oracle_string_points_A",
    "points",
    "reduced_word",
    "run_grid",
    "sim_check",
    "string_points",
    "string_weight",
    "weight_twist_solve",
    "weyl_dim",
]
