"""Exact computations for forbidden-subposet problems in the Boolean lattice.

Subpackages cover the lattice primitives (bitmask subsets and canonical
families), finite posets and the complete multilevel family, closed-form
bound formulas in exact rational arithmetic, exhaustive containment search,
extremal lower-bound constructions, maximal-chain partitions, and an exact
small-n solver. The ``subposet`` CLI exposes all of it with deterministic
JSON output.
"""

from .chains import (
    capped_level_coeff,
    count_pairs_enumerated,
    count_pairs_formula,
    lym_sum,
    min_max_partition,
    min_r_partition,
    minr_maxt_partition,
    three_per_level_coeff,
)
from .constructions import (
    construct_induced,
    construct_rst,
    construct_rst_induced,
    construct_rt,
)
from .containment import (
    Relations,
    contains_subposet,
    max_antichain,
    s_minus,
    s_plus,
)
from .formulas import (
    CaseLabel,
    Regime,
    antichain_height,
    classify,
    density_bounds,
    density_bounds_induced,
    induced_free_levels,
    middle_height,
    positive_part,
    wide_ends,
)
from .lattice import (
    SetFamily,
    consecutive_levels,
    largest_mod_classes,
    level,
    modular_classes,
    parse_family,
    serialize_family,
    sigma,
)
from .posets import (
    Poset,
    chain_poset,
    complete_multilevel,
    named_poset,
    parse_poset,
    parse_signature,
)
from .solver import certified_lower_bound, la_exact

__version__ = "0.1.0"
