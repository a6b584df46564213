"""ffwitness: explicit small subsets of finite fields that provably contain
non-d-th-power or primitive elements, with certificates and audits."""

from .field import (
    CapExceeded,
    DEFAULT_CAP,
    FieldDescriptor,
    FieldElement,
    frobenius,
    is_dth_power,
    make_field,
    mult_order,
)
from .poly import (
    Polynomial,
    binomial_irreducible_check,
    composed_irreducible_check,
    is_irreducible,
    roots_in_extension,
)
from .charsum import (
    Character,
    CharSumResult,
    characters_of_order,
    incomplete_char_sum,
    is_r_free,
    make_character,
    r_free_indicator_sum,
    weil_applicability,
)
from .construct import (
    ConstructionReport,
    ConstructionSpec,
    build_set,
    construct_pipeline,
    coulter_kosick_check,
    find_non_dth_power,
    hm_artin_schreier_check,
    mn_conjecture_search,
    primitive_lower_bound,
    primitive_set_search,
    theorem_conditions_check,
)

__version__ = "0.1.0"
