"""Exact toolkit for Lefschetz properties of monomial quotient modules."""

from .exact import ExactMatrix, binomial, multinomial
from .lefschetz import (
    CSMEntry,
    CSMReport,
    LefschetzReport,
    LinearForm,
    MapFailure,
    Summand,
    TensorCondition,
    TypeTwoVerdict,
    check_slp,
    check_wlp,
    csm_decompose,
    csm_slp_criterion,
    direct_sum_check,
    direct_sum_slp,
    mult_matrix,
    slp_with_witnesses,
    tensor_slp_condition,
    type_two_ideal,
    type_two_slp_conditions,
)
from .lgv import (
    LabeledMatrix,
    PathSign,
    PipelineInvariantError,
    PipelineResult,
    binomial_matrix,
    cl_matrix,
    count_nonintersecting,
    lgv_positivity,
    lgv_rank_certificate,
    pascal_column_transform,
    restrict_rows,
    run_pipeline,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    ParseError,
    QuotientModule,
    algebra_quotient,
    lex_ideal,
    monomials_of_degree,
    parse_ideal,
    parse_monomial,
    variable_power,
)
from .series import (
    HilbertSeries,
    ReflectingDegree,
    degrees_coincide,
    is_almost_centered,
    is_symmetric,
    is_unimodal,
    two_power_quotient_dim,
)

__version__ = "0.1.0"
