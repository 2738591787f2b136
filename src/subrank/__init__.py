"""Constructive generic-subrank certificates for tensors.

Builds the sparse pattern matrix whose generic full row rank witnesses a
subrank lower bound, finds a machine-checkable crossing-out certificate,
verifies it by exact linear algebra over a prime field, and evaluates the
closed-form subrank and locus-dimension formulas.
"""

from .certificate import (
    Certificate,
    CrossingStuckError,
    Step,
    TooFewColumnsError,
    Verdict,
    certificate_from_json,
    certificate_to_json,
    find_certificate,
    validate,
)
from .combinatorics import (
    Block,
    Orbit,
    act,
    all_orbits,
    count_rows,
    enumerate_rows,
    is_admissible,
    maximal_uncrossed_block,
)
from .formulas import (
    DimensionResult,
    RegimeReport,
    SubrankResult,
    classify,
    dim_C_r,
    generic_subrank,
    integer_root,
    pattern_col_count,
)
from .modular import (
    DEFAULT_PRIME,
    MERSENNE61,
    ModularMatrix,
    RandomAssignment,
    instantiate,
    is_prime,
    modular_to_coordinate_list,
    random_assignment,
    rank_mod_p,
    subspace_dimension_oracle,
    verify_generic_rank,
)
from .pattern import (
    PatternMatrix,
    Variable,
    build_pattern,
    occurrences,
    parse_variable,
    pattern_to_coordinate_list,
)

__version__ = "0.1.0"
