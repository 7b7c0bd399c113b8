"""schwingerlab: convex mixtures of Gaussian generating functionals on
finite periodic lattices, with numerical verification of the Euclidean
field-theory axioms they satisfy."""

__version__ = "0.1.0"

from .errors import DomainError, SchemaError, SchwingerLabError
from .lattice import (Grid, Isometry, TestFunction, apply_isometry,
                      gaussian_packet, positive_time_support, site_indicator)
from .propagator import SpectralMeasure, free_two_point, sobolev_norms, spectral_two_point
from .functional import (Mixture, QuasiFree, SchwingerFunctional, cumulant,
                         cumulant_scale, envelope, gaussianize, load_model,
                         model_from_dict, model_to_dict, moment_analytic,
                         moment_growth_check, moment_numeric,
                         regularity_certificate, save_model)
from .axioms import (CheckReport, SuiteConfig, SuiteResult,
                     check_cluster_defect, check_euclidean_invariance,
                     check_normalization_neutrality,
                     check_reflection_positivity,
                     check_stochastic_positivity, run_axiom_suite,
                     summary_lines)
from .montecarlo import estimate_fourth_cumulant, sample_stream
from .experiments import (ExperimentReport, ExperimentSpec, run_experiment,
                          run_iteration, run_refinement_study,
                          run_two_mass_fourth_cumulant, two_mass_mixture)
