"""Inequality measures for non-negative size distributions.

Micro-data measures (Lorenz curve, Gini, quantile shares), welfare indices
(Atkinson, generalized entropy), a bounded composite index combining a Gini
value with a tail-gap term, plus panel ingestion, ranking comparison, and
time-series reporting over published country indicators.

Each exported name loads its module on first use (PEP 562), so that
``import ineqkit`` or a run of ``ineq micro`` does not pay for the panel and
ranking code.  The composite and error names are bound at import, so that
``ineqkit.composite`` is the function, not its module.
"""

import importlib

# Each exported name, by the module that defines it.
_EXPORTS = {
    "composite": (
        "DEFAULT_WEIGHT", "CompositeResult", "alternative_index", "b_over_t_from_t_over_b",
        "calibrate_alpha", "composite", "generalized_composite", "h_transform", "mean_alpha",
    ),
    "errors": (
        "ArityError", "CalibrationDomainError", "DegenerateSampleError", "DivisionByZeroShareError",
        "DomainError", "EmptyInputError", "IneqError", "JoinError", "NotFoundError", "SchemaError",
        "ZeroIncomeError",
    ),
    "micro": (
        "IncomeSample", "LorenzCurve", "bottom_share", "gini", "lorenz_curve", "palma_ratio",
        "ratio_b_over_t", "read_sample", "top_share",
    ),
    "panel": (
        "CountryYearRecord", "Panel", "RowDiagnostic", "SchemaConfig", "Source", "parse_panel",
        "ratio_of", "serialize_panel", "slice_panel", "t_over_b_of",
    ),
    "ranking": (
        "Indicator", "RankComparison", "RankEntry", "RankTable", "SeriesPoint", "compare_rankings",
        "rank", "rank_values", "replicate_table", "round_half_away", "series",
    ),
    "welfare": ("atkinson", "ge_index", "ge_zero", "theil"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_MODULE_OF, "__version__"]

for _module in ("composite", "errors"):
    # Importing ``.composite`` binds the module to the name ``composite``;
    # the function replaces it here.
    _loaded = importlib.import_module(f".{_module}", __name__)
    globals().update({name: getattr(_loaded, name) for name in _EXPORTS[_module]})
del _module, _loaded


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
