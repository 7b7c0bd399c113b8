"""schwingerlab: convex mixtures of Gaussian generating functionals on
finite periodic lattices, with numerical verification of the Euclidean
field-theory axioms they satisfy.  Names and submodules load on first use (PEP 562)."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {   # submodule: the names exported here from it
    "errors": "DomainError SchemaError SchwingerLabError",
    "lattice": "Grid Isometry TestFunction apply_isometry gaussian_packet positive_time_support "
               "site_indicator",
    "propagator": "SpectralMeasure free_two_point sobolev_norms spectral_two_point",
    "functional": "Mixture QuasiFree SchwingerFunctional cumulant cumulant_scale envelope "
                  "gaussianize load_model model_from_dict model_to_dict moment_analytic "
                  "moment_growth_check moment_numeric regularity_certificate save_model",
    "axioms": "CheckReport SuiteConfig SuiteResult check_cluster_defect check_euclidean_invariance "
              "check_normalization_neutrality check_reflection_positivity "
              "check_stochastic_positivity run_axiom_suite summary_lines",
    "montecarlo": "estimate_fourth_cumulant sample_stream",
    "experiments": "ExperimentReport ExperimentSpec run_experiment run_iteration "
                   "run_refinement_study run_two_mass_fourth_cumulant two_mass_mixture",
    "cli": "", "fixtures": "", "partitions": "", "serialize": ""}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_HOME.get(name, name)}")
    return module if name in _EXPORTS else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
