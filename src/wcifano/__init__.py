"""Screening, enumeration and classification of candidate smooth well
formed Fano weighted complete intersections by weight/degree tuples.

The package loads a submodule only when one of its names is first used:
_EXPORTS maps each submodule to the public names it provides, __all__
is derived from it, and the module __getattr__ imports the home module
of a name on first access and binds the name here.  So `import
wcifano` loads no submodule, and `wcifano.cli check` loads core,
filters and output only.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "Candidate",
        "CandidateError",
        "EmptyWeights",
        "GcdClass",
        "NonPositiveEntry",
        "NotNormalized",
        "TooManyDegrees",
        "canonical_key",
        "fano_index",
        "gcd_classes",
        "new_candidate",
        "normalize",
    ),
    "enumerator": (
        "CapTooSmall",
        "EnumerationQuery",
        "EnumerationResult",
        "InvalidQuery",
        "SearchStats",
        "enumerate_candidates",
        "enumerate_streaming",
    ),
    "filters": (
        "CALABI_YAU_PROFILE",
        "FILTER_ORDER",
        "FilterId",
        "FilterReport",
        "FilterVerdict",
        "NoDegrees",
        "SMOOTH_FANO_PROFILE",
        "ambient_well_formed",
        "deltas_ok",
        "fano_positive",
        "gcd_cover_ok",
        "is_linear_cone",
        "is_normalized",
        "last_weight_ok",
        "run_all",
        "unit_prefix_ok",
    ),
    "output": (
        "OutputRecord",
        "parse_jsonl_line",
    ),
    "transforms": (
        "DegenerateEmpty",
        "DegreeNotDivisible",
        "DimensionZero",
        "NoUnitWeight",
        "NotFano",
        "OverallGcdNotOne",
        "TransformError",
        "TransformKind",
        "TransformTrace",
        "hyperplane_section",
        "replay_trace",
        "unconize",
        "wellformize",
    ),
    "verify": (
        "Verdict",
        "VerificationResult",
        "VerifyCase",
        "survey_codim",
        "verify_case_i",
        "verify_case_ii",
        "verify_case_iii",
        "verify_hypersurface_remark",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the home module of a public name and bind the name here."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """The names bound so far and every public name, bound or not."""
    return sorted(set(globals()) | set(__all__))
