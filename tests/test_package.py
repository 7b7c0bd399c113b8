"""The package namespace: lazy exports and what each CLI command imports."""

import importlib
import json
import subprocess
import sys

import pytest

import schwingerlab
from schwingerlab import save_model
from schwingerlab.experiments import two_mass_mixture
from schwingerlab.serialize import write_json

# every public name of the package, frozen: the lazy table must keep exporting each one
EXPORTED = {
    "errors": ["DomainError", "SchemaError", "SchwingerLabError"],
    "lattice": ["Grid", "Isometry", "TestFunction", "apply_isometry", "gaussian_packet",
                "positive_time_support", "site_indicator"],
    "propagator": ["SpectralMeasure", "free_two_point", "sobolev_norms", "spectral_two_point"],
    "functional": ["Mixture", "QuasiFree", "SchwingerFunctional", "cumulant", "cumulant_scale",
                   "envelope", "gaussianize", "load_model", "model_from_dict", "model_to_dict",
                   "moment_analytic", "moment_growth_check", "moment_numeric",
                   "regularity_certificate", "save_model"],
    "axioms": ["CheckReport", "SuiteConfig", "SuiteResult", "check_cluster_defect",
               "check_euclidean_invariance", "check_normalization_neutrality",
               "check_reflection_positivity", "check_stochastic_positivity",
               "run_axiom_suite", "summary_lines"],
    "montecarlo": ["estimate_fourth_cumulant", "sample_stream"],
    "experiments": ["ExperimentReport", "ExperimentSpec", "run_experiment", "run_iteration",
                    "run_refinement_study", "run_two_mass_fourth_cumulant", "two_mass_mixture"],
}
NAMES = [name for names in EXPORTED.values() for name in names]

# a fresh interpreter runs `body`, then prints the package modules it holds
LOADED = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("schwingerlab."))))
"""


def loaded_modules(body: str, *argv: str) -> set[str]:
    """The `schwingerlab.*` modules a fresh interpreter holds after `body`."""
    proc = subprocess.run([sys.executable, "-c", LOADED.format(body=body), *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("schwingerlab.") for m in json.loads(proc.stdout.splitlines()[-1])}


def command_modules(*argv: str) -> set[str]:
    return loaded_modules("from schwingerlab.cli import main\n"
                          "assert main(sys.argv[1:]) == 0", *argv)


@pytest.fixture
def cli_inputs(tmp_path):
    model, recipe, spec = tmp_path / "model.json", tmp_path / "recipe.json", tmp_path / "spec.json"
    save_model(two_mass_mixture(1.0, 4.0), model)
    write_json(recipe, {"functions": [{"center": [4.0, 4.0], "width": 1.0}]})
    write_json(spec, {"experiment_id": "iteration",
                      "grid": {"d": 2, "n_per_axis": 16, "spacing": 0.5},
                      "params": {"families": [[[1.0, 1.0]], [[4.0, 1.0]]],
                                 "lambda_weights": [1.0, 0.0],
                                 "packet": {"center": [4.0, 4.0], "width": 1.0}}})
    return str(model), str(recipe), str(spec), str(tmp_path / "out")


def test_a_bare_import_loads_no_submodule():
    assert loaded_modules("import schwingerlab") == set()


def test_each_command_loads_only_the_layers_it_runs(cli_inputs):
    model, recipe, spec, out = cli_inputs
    grid = ["--grid", "2,16,0.5", "--out", out]
    optional = {"axioms", "experiments", "montecarlo"}
    assert command_modules("verify", model, *grid) & optional == {"axioms"}
    assert command_modules("moments", model, "--recipe", recipe, "--order", "2",
                           *grid) & optional == set()
    assert command_modules("sample", model, "--count", "2", *grid) & optional == {"montecarlo"}
    assert command_modules("experiment", spec, "--out", out) & optional == {"experiments",
                                                                            "montecarlo"}


def test_a_submodule_is_an_attribute_after_a_bare_import():
    loaded = loaded_modules("import schwingerlab\n"
                            "assert schwingerlab.lattice.Grid(2, 16, 0.5).volume == 256")
    assert "lattice" in loaded and "functional" not in loaded


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_each_export_is_its_defining_module_object(module):
    home = importlib.import_module(f"schwingerlab.{module}")
    for name in EXPORTED[module]:
        assert getattr(schwingerlab, name) is getattr(home, name), name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from schwingerlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert set(NAMES) <= set(dir(schwingerlab))
    assert sorted(schwingerlab.__all__) == sorted(NAMES)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_export"):
        schwingerlab.no_such_export
    assert not hasattr(schwingerlab, "no_such_export")
    assert not hasattr(schwingerlab, "__wrapped__")
