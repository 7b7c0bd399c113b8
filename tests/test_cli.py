"""Command-line interface: exit codes, file outputs, determinism."""

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schwingerlab import (DomainError, QuasiFree, SpectralMeasure, load_model, model_to_dict,
                          save_model)
from schwingerlab.cli import main
from schwingerlab.experiments import two_mass_mixture
from schwingerlab.montecarlo import MAX_SAMPLE_COUNT
from schwingerlab.serialize import write_json


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "mixture.json"
    save_model(two_mass_mixture(1.0, 4.0), path)
    return str(path)


@pytest.fixture
def free_model_file(tmp_path):
    path = tmp_path / "free.json"
    save_model(QuasiFree(SpectralMeasure.delta(1.0)), path)
    return str(path)


@pytest.fixture
def recipe_file(tmp_path):
    path = tmp_path / "recipe.json"
    write_json(path, {"functions": [{"center": [4.0, 4.0], "width": 1.0}]})
    return str(path)


def test_verify_free_field_exits_zero(free_model_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["verify", free_model_file, "--out", str(out), "--seed", "3"])
    assert code == 0
    doc = json.loads((out / "checks.json").read_text())
    assert doc["passed"] and doc["quasi_free"]
    assert (out / "checks.txt").exists()


def test_verify_heavy_free_field_passes_with_valid_json(tmp_path, capsys):
    # every reflection-matrix entry underflows to 0: the witness is 0.0, not NaN
    path = tmp_path / "heavy.json"
    save_model(QuasiFree(SpectralMeasure(((1.0, 1e4),))), path)
    out = tmp_path / "out"
    assert main(["verify", str(path), "--grid", "2,16,0.5", "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"{name} in checks.json")
    doc = json.loads((out / "checks.json").read_text(), parse_constant=reject)
    assert doc["reports"][1]["witness"] == 0.0
    assert "suite: pass" in capsys.readouterr().out


def test_verify_mixture_reports_not_quasifree(model_file, tmp_path):
    out = tmp_path / "out"
    code = main(["verify", model_file, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "checks.json").read_text())
    assert doc["passed"] and doc["quasi_free"] is False


@pytest.mark.parametrize("grid", ["2,32,0.25", "3,16,0.5", "1,64,0.5", "2,16,0.5"])
def test_verify_tied_mixture_is_not_quasi_free_on_any_grid(tmp_path, capsys, grid):
    # the second leaf's S2 equals the first's on the fixture packet of 2,32,0.25
    path = tmp_path / "tied.json"
    write_json(path, {"format": "schwinger-model", "version": 1, "model": {
        "kind": "mixture", "children": [
            {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [[1.0, 1.0]]}},
            {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [
                [0.25, 0.3096322759589235], [4.0, 0.6903677240410765]]}}]}})
    assert main(["verify", str(path), "--grid", grid, "--out", str(tmp_path / "out")]) == 0
    assert "quasi-free: false" in capsys.readouterr().out.splitlines()


def test_verify_malformed_weights_uses_schema_exit(tmp_path):
    path = tmp_path / "broken.json"
    write_json(path, {
        "format": "schwinger-model", "version": 1,
        "model": {"kind": "mixture", "children": [
            {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [[1.0, 1.0]]}},
            {"weight": 0.4, "model": {"kind": "quasifree", "atoms": [[4.0, 1.0]]}},
        ]}})
    assert main(["verify", str(path), "--out", str(tmp_path / "o")]) == 2


def _nan_weight_model():
    return {"kind": "mixture", "children": [
        {"weight": float("nan"), "model": {"kind": "quasifree", "atoms": [[1.0, 1.0]]}},
        {"weight": 1.0, "model": {"kind": "quasifree", "atoms": [[4.0, 1.0]]}},
    ]}


@pytest.mark.parametrize("model,grid", [
    (_nan_weight_model(), "2,32,0.25"),
    ({"kind": "quasifree", "atoms": [[float("nan"), 1.0]]}, "2,32,0.25"),
    ({"kind": "quasifree", "atoms": [[1.0, 1.0]]}, "2,32,abc"),
    ({"kind": "quasifree", "atoms": [[1.0, 1.0]]}, "2,32,inf"),
    ({"kind": "mixture", "children": [
        {"weight": "abc", "model": {"kind": "quasifree", "atoms": [[1.0, 1.0]]}},
        {"weight": 1.0, "model": {"kind": "quasifree", "atoms": [[4.0, 1.0]]}},
    ]}, "2,32,0.25"),
    ({"kind": "quasifree", "atoms": [["x", 1.0]]}, "2,32,0.25"),
    ({"kind": "quasifree", "atoms": [1.0]}, "2,32,0.25"),
    ({"kind": "quasifree", "atoms": 1.0}, "2,32,0.25"),
], ids=["nan_weight", "nan_atom", "grid_abc", "grid_inf", "string_weight",
        "string_atom", "bare_number_atom", "atoms_not_a_list"])
def test_nonfinite_or_malformed_input_is_schema_error(tmp_path, model, grid):
    path = tmp_path / "model.json"
    # json.dumps, not write_json: the model may hold a NaN, which write_json refuses
    path.write_text(json.dumps({"format": "schwinger-model", "version": 1, "model": model}))
    assert main(["verify", str(path), "--grid", grid,
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("version", [True, "1", 2, 1.5, None],
                         ids=["true", "string", "two", "fraction", "null"])
def test_model_version_other_than_one_is_schema_error(tmp_path, capsys, version):
    # True == 1 in Python, so the version is read as a JSON integer
    path, out = tmp_path / "model.json", tmp_path / "o"
    model = {"kind": "quasifree", "atoms": [[1.0, 1.0]]}
    write_json(path, {"format": "schwinger-model", "version": version, "model": model})
    assert main(["verify", str(path), "--grid", "2,16,0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and "Traceback" not in err
    assert not out.exists()
    for version in (1, 1.0):
        write_json(path, {"format": "schwinger-model", "version": version, "model": model})
        assert model_to_dict(load_model(path)) == model


_GRID = {"d": 2, "n_per_axis": 32, "spacing": 0.25}
_PACKET = {"center": [4.0, 4.0], "width": 1.0, "momentum": [0.0, 0.0]}


@pytest.mark.parametrize("name,doc,argv", [
    ("recipe.json", {"functions": [{"center": [4.0, 4.0], "width": "wide"}]},
     ["moments", "{model}", "--recipe", "{doc}"]),
    ("spec.json", {"experiment_id": "two_mass_fourth_cumulant", "seed": "x",
                   "grid": _GRID, "params": {"masses_sq": [1.0, 4.0], "packet": _PACKET}},
     ["experiment", "{doc}"]),
    ("spec.json", {"experiment_id": "two_mass_fourth_cumulant",
                   "grid": {"d": "two", "n_per_axis": 32, "spacing": 0.25},
                   "params": {"masses_sq": [1.0, 4.0], "packet": _PACKET}},
     ["experiment", "{doc}"]),
    ("tols.json", {"cluster": "big"},
     ["verify", "{model}", "--tolerance-file", "{doc}"]),
    ("spec.json", {"experiment_id": "refinement",
                   "grid": {"d": 2, "n_per_axis": 16, "spacing": 1.0},
                   "params": {"d": 1, "extent": 16.0, "levels": [16, 32, 64],
                              "masses_sq": [1.0], "packet": {"center": [8.0], "width": 2.0}}},
     ["experiment", "{doc}"]),
    ("spec.json", {"experiment_id": "two_mass_fourth_cumulant",
                   "grid": {"d": 2.7, "n_per_axis": 32, "spacing": 0.25},
                   "params": {"masses_sq": [1.0, 4.0], "packet": _PACKET}},
     ["experiment", "{doc}"]),
    ("spec.json", {"experiment_id": "two_mass_fourth_cumulant",
                   "grid": {"d": 2, "n_per_axis": 32.9, "spacing": 0.25},
                   "params": {"masses_sq": [1.0, 4.0], "packet": _PACKET}},
     ["experiment", "{doc}"]),
    ("spec.json", {"experiment_id": "two_mass_fourth_cumulant", "seed": 3.9,
                   "grid": _GRID, "params": {"masses_sq": [1.0, 4.0], "packet": _PACKET}},
     ["experiment", "{doc}"]),
    ("spec.json", {"experiment_id": "two_mass_fourth_cumulant", "grid": _GRID,
                   "params": {"masses_sq": [1.0, 4.0], "mc_samples": 20.5,
                              "packet": _PACKET}},
     ["experiment", "{doc}"]),
    ("spec.json", {"experiment_id": "refinement",
                   "grid": {"d": 1, "n_per_axis": 16, "spacing": 1.0},
                   "params": {"d": 1.6, "extent": 16.0, "levels": [16, 32, 64],
                              "masses_sq": [1.0], "packet": {"center": [8.0], "width": 2.0}}},
     ["experiment", "{doc}"]),
    ("spec.json", {"experiment_id": "refinement",
                   "grid": {"d": 1, "n_per_axis": 16, "spacing": 1.0},
                   "params": {"d": 1, "extent": 16.0, "levels": [16.9, 32, 64],
                              "masses_sq": [1.0], "packet": {"center": [8.0], "width": 2.0}}},
     ["experiment", "{doc}"]),
    ("spec.json", {"experiment_id": "refinement",
                   "grid": {"d": 1, "n_per_axis": 16, "spacing": 1.0},
                   "params": {"d": 1, "extent": 16.0, "levels": [16, 32, 64],
                              "masses_sq": [], "packet": {"center": [8.0], "width": 2.0}}},
     ["experiment", "{doc}"]),
    ("spec.json", {"experiment_id": "refinement",
                   "grid": {"d": 1, "n_per_axis": 16, "spacing": 1.0},
                   "params": {"d": 1, "extent": 16.0, "levels": [0, 0, 0],
                              "masses_sq": [1.0], "packet": {"center": [8.0], "width": 2.0}}},
     ["experiment", "{doc}"]),
    ("spec.json", {"experiment_id": "two_mass_fourth_cumulant", "grid": _GRID,
                   "params": {"masses_sq": [1.0, 4.0], "mc_samples": -5,
                              "packet": _PACKET}},
     ["experiment", "{doc}"]),
    ("spec.json", {"experiment_id": "two_mass_fourth_cumulant", "grid": _GRID,
                   "params": {"masses_sq": [1.0, 4.0], "mc_samples": 1e300,
                              "packet": _PACKET}},
     ["experiment", "{doc}"]),
    ("unused.json", {}, ["sample", "{model}", "--count", str(MAX_SAMPLE_COUNT + 1)]),
], ids=["recipe_width", "spec_seed", "spec_grid_d", "tolerance_value",
        "refinement_grid_d_mismatch", "fractional_grid_d", "fractional_n_per_axis",
        "fractional_seed", "fractional_mc_samples", "fractional_refinement_d",
        "fractional_refinement_level", "refinement_no_masses",
        "refinement_zero_levels", "negative_mc_samples", "huge_mc_samples",
        "sample_count_above_cap"])
def test_malformed_number_is_schema_error(model_file, tmp_path, capsys,
                                          name, doc, argv):
    path = tmp_path / name
    write_json(path, doc)
    argv = [a.format(model=model_file, doc=path) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "schema error:" in capsys.readouterr().err


# 400 mixture levels, 1,200 nested JSON containers
_DEEP_MODEL = ('{"format": "schwinger-model", "version": 1, "model": '
               + '{"kind": "mixture", "children": [{"weight": 1.0, "model": ' * 400
               + '{"kind": "quasifree", "atoms": [[1.0, 1.0]]}' + "}]}" * 400 + "}")
# a 5,000-digit weight, past the digit limit of Python's int()
_HUGE_WEIGHT_MODEL = ('{"format": "schwinger-model", "version": 1, "model": '
                      '{"kind": "mixture", "children": [{"weight": ' + "1" * 5000
                      + ', "model": {"kind": "quasifree", "atoms": [[1.0, 1.0]]}}]}}')


@pytest.mark.parametrize("text,argv", [
    (_DEEP_MODEL, ["verify", "{doc}"]),
    ("[" * 1000 + "]" * 1000, ["moments", "{model}", "--recipe", "{doc}"]),
    ("[" * 1000 + "]" * 1000, ["experiment", "{doc}"]),
    (_HUGE_WEIGHT_MODEL, ["verify", "{doc}"]),
], ids=["verify_model", "moments_recipe", "experiment_spec", "huge_integer_weight"])
def test_deeply_nested_json_is_schema_error(model_file, tmp_path, capsys, text, argv):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="ascii")
    argv = [a.format(model=model_file, doc=path) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "schema error:" in capsys.readouterr().err


_SPEC_DOC = {"experiment_id": "two_mass_fourth_cumulant", "grid": _GRID,
             "params": {"masses_sq": [1.0, 4.0], "packet": _PACKET}}


@pytest.mark.parametrize("command", ["verify", "sample", "experiment"])
@pytest.mark.parametrize("seed,code", [(-1, 2), (1 << 64, 2), (0, 0), ((1 << 64) - 1, 0)],
                         ids=["minus_one", "two_to_64", "zero", "two_to_64_minus_one"])
def test_seed_outside_the_philox_key_word_is_schema_error(model_file, tmp_path, capsys,
                                                          command, seed, code):
    # the Philox key takes a seed mod 2^64: -1 would draw the streams of 2^64 - 1
    out = tmp_path / "o"
    if command == "experiment":
        path, name = tmp_path / "spec.json", "experiment spec.seed"
        write_json(path, {**_SPEC_DOC, "seed": seed})
        argv = ["experiment", str(path)]
    else:
        name = "--seed"
        argv = [command, model_file, "--grid", "2,16,0.5", "--seed", str(seed)]
        argv += ["--count", "1"] if command == "sample" else []
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(f"schema error: {name} must be an integer in "
                              f"0..{(1 << 64) - 1}, got {seed}") and "Traceback" not in err
        assert not out.exists()
    else:
        assert err == "" and out.is_dir()


@pytest.mark.parametrize("argv", [
    ["verify", "{dir}"],
    ["moments", "{model}", "--recipe", "{dir}"],
    ["verify", "{utf16}"],
    ["moments", "{model}", "--recipe", "{utf16}"],
    ["experiment", "{utf16}"],
    ["verify", "{model}", "--tolerance-file", "{utf16}"],
    ["experiment", "{spec}", "--tolerance-file", "{dir}"],
    ["verify", "{model}", "--out", "{file}"],
    ["sample", "{model}", "--out", "{file}"],
    ["experiment", "{spec}", "--out", "{file}"],
], ids=["verify_directory", "moments_recipe_directory", "verify_utf16_model",
        "moments_utf16_recipe", "experiment_utf16_spec", "verify_utf16_tolerances",
        "experiment_tolerance_directory", "verify_out_is_a_file", "sample_out_is_a_file",
        "experiment_out_is_a_file"])
def test_unreadable_input_or_unwritable_output_exits_two(model_file, tmp_path, capsys,
                                                         argv):
    # a file starting with the bytes ff fe (a UTF-16 byte-order mark) is not UTF-8
    utf16, spec, file = tmp_path / "utf16.json", tmp_path / "spec.json", tmp_path / "file"
    utf16.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    write_json(spec, _SPEC_DOC)
    file.write_text("taken", encoding="ascii")
    argv = [a.format(model=model_file, dir=tmp_path, utf16=utf16, spec=spec, file=file)
            for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(("schema error:", "error:")) and "Traceback" not in err


@pytest.mark.parametrize("command,grid", [("verify", "2,32,1e300"), ("sample", "2,32,1e300"),
                                          ("verify", "1,64,1e154")])
def test_grid_whose_scales_overflow_exits_two(model_file, tmp_path, capsys, command, grid):
    argv = [command, model_file, "--grid", grid, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "spacing" in capsys.readouterr().err


_OVERFLOWING_MIXTURE = {"kind": "mixture", "children": [
    {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [[1e-6, 1e306]]}},
    {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [[4.0, 1.0]]}}]}


@pytest.mark.parametrize("argv", [["verify"], ["moments", "--recipe", "{recipe}",
                                               "--order", "6"]],
                         ids=["verify", "moments"])
def test_two_point_overflow_exits_two_without_output(recipe_file, tmp_path, capsys, argv):
    # S2 of the light atom times its weight 1e306 is past the largest float
    path = tmp_path / "heavy.json"
    write_json(path, {"format": "schwinger-model", "version": 1,
                      "model": _OVERFLOWING_MIXTURE})
    out = tmp_path / "o"
    argv = [argv[0], str(path), *(a.format(recipe=recipe_file) for a in argv[1:])]
    assert main(argv + ["--grid", "2,16,0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_sampler_amplitudes_that_leave_float64_exit_two_without_a_warning(tmp_path, capsys):
    # the light atom's amplitude sqrt(1e306 / (1e-6 a^d)) is past the largest float: the
    # stream refuses it before samples.txt is opened, and numpy must not warn first
    path = tmp_path / "heavy.json"
    write_json(path, {"format": "schwinger-model", "version": 1,
                      "model": _OVERFLOWING_MIXTURE})
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(["sample", str(path), "--grid", "2,16,0.5", "--count", "3",
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not seen and "RuntimeWarning" not in err
    assert err.startswith("error: sampler amplitudes leave float64") and len(err.splitlines()) == 1
    assert not (out / "samples.txt").exists()


@pytest.mark.parametrize("order", [4, 8])
def test_moments_that_leave_float64_exit_two_naming_them(recipe_file, tmp_path, capsys, order):
    # the heavy leaf's S2(f, f) is about 1e288, so its order-4 Wick sums overflow; a
    # RuntimeWarning would be raised here as an error, since the suite turns warnings into errors
    path = tmp_path / "heavy.json"
    write_json(path, {"format": "schwinger-model", "version": 1, "model": {
        "kind": "mixture", "children": [
            {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [[1.0, 1.0]]}},
            {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [[1e12, 1e300]]}}]}})
    out = tmp_path / "o"
    argv = ["moments", str(path), "--recipe", recipe_file, "--order", str(order),
            "--grid", "2,16,0.5", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: moments of order 4 leave float64") and len(err.splitlines()) == 1
    assert not out.exists()


def test_numeric_stencils_that_leave_float64_exit_two_without_a_warning(tmp_path, capsys):
    # a combination of moving packets has a complex S2 whose real part is hugely negative
    # on the heavy leaf, so Gamma's exp overflows; numpy must not warn before the error line
    model, recipe = tmp_path / "heavy.json", tmp_path / "recipe.json"
    write_json(model, {"format": "schwinger-model", "version": 1, "model": {
        "kind": "mixture", "children": [
            {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [[1.0, 1.0]]}},
            {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [[1e-6, 1e300]]}}]}})
    q = 0.7853981633974483
    write_json(recipe, {"functions": [{"center": [4.0, 4.0], "width": 1.0, "momentum": k}
                                      for k in ([q, 0.0], [0.0, q], [0.0, -q], [q, q])]})
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(["moments", str(model), "--recipe", str(recipe), "--order", "2",
                     "--grid", "2,16,0.5", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not seen and "RuntimeWarning" not in err
    assert err.startswith("error: moment_numeric stencils leave float64")
    assert len(err.splitlines()) == 1 and not (out / "moments.json").exists()


@pytest.mark.parametrize("name,doc,argv,ctx", [
    ("recipe.json", {"functions": [{"center": [1e308, 4.0], "width": 1.0}]},
     ["moments", "{model}", "--recipe", "{doc}", "--grid", "2,32,0.25"], "recipe.functions[0]"),
    ("recipe.json", {"functions": [{"center": [4.0, 4.0], "width": 1.0, "momentum": [1e308, 0]}]},
     ["moments", "{model}", "--recipe", "{doc}", "--grid", "2,32,0.25"], "recipe.functions[0]"),
    ("spec.json", {"experiment_id": "iteration", "grid": _GRID,
                   "params": {"families": [[[1.0, 1.0]], [[4.0, 1.0]]],
                              "lambda_weights": [1.0, 0.0],
                              "packet": {"center": [1e308, 4.0], "width": 1.0}}},
     ["experiment", "{doc}"], "iteration packet"),
], ids=["recipe_center", "recipe_momentum", "iteration_center"])
def test_overflowing_packet_exits_two_naming_it(model_file, tmp_path, capsys,
                                                name, doc, argv, ctx):
    path = tmp_path / name
    write_json(path, doc)
    out = tmp_path / "o"
    argv = [a.format(model=model_file, doc=path) for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {ctx}: test function values must be finite\n"
    assert not out.exists()


def test_non_finite_json_is_refused_before_the_file_is_opened(tmp_path):
    path = tmp_path / "nan.json"
    with pytest.raises(DomainError, match="nan.json"):
        write_json(path, {"rows": [[1.0, float("nan")]]})
    assert not path.exists()


_BIG = 10 ** 400  # a JSON integer too large for a float


@pytest.mark.parametrize("name,doc,argv,field", [
    ("big.json", {"format": "schwinger-model", "version": 1,
                  "model": {"kind": "quasifree", "atoms": [[_BIG, 1.0]]}},
     ["verify", "{doc}", "--grid", "2,16,0.5"], "atom 0 m2"),
    ("spec.json", {**_SPEC_DOC, "grid": {**_GRID, "spacing": _BIG}},
     ["experiment", "{doc}"], "grid.spacing"),
    ("tols.json", {"cluster": _BIG},
     ["verify", "{model}", "--tolerance-file", "{doc}"], "cluster"),
], ids=["model_atom_m2", "spec_grid_spacing", "tolerance_value"])
def test_integer_too_large_for_a_float_is_schema_error(model_file, tmp_path, capsys,
                                                       name, doc, argv, field):
    path = tmp_path / name
    write_json(path, doc)
    argv = [a.format(model=model_file, doc=path) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and field in err and "Traceback" not in err


def test_moments_with_non_ascii_path_and_grid_writes_ascii(recipe_file, tmp_path, capsys):
    path = tmp_path / "uni" / "modèl.json"
    path.parent.mkdir()
    save_model(QuasiFree(SpectralMeasure.delta(1.0)), path)
    out = tmp_path / "o"
    assert main(["moments", str(path), "--recipe", recipe_file, "--order", "2",
                 "--grid", "2,٣٢,0.25", "--out", str(out)]) == 0
    text = (out / "moments.txt").read_bytes().decode("ascii")
    assert "mod\\xe8l.json on grid 2,\\u0663\\u0662,0.25" in text
    assert capsys.readouterr().out == text


def _numeric_paths(doc, path=()):
    """Key paths of every number in a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path] if type(doc) in (int, float) else []
    return [p for key, value in items for p in _numeric_paths(value, path + (key,))]


_MODEL_DOC = {"format": "schwinger-model", "version": 1, "model": {
    "kind": "mixture", "children": [
        {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [[1.0, 1.0]]}},
        {"weight": 0.5, "model": {"kind": "quasifree",
                                  "atoms": [[4.0, 0.6], [2.0, 0.4]]}}]}}
# (valid document, the CLI arguments that read it as {doc}); {model} and
# {recipe} name valid files
_DOCUMENTS = [
    (_MODEL_DOC, ["verify", "{doc}"]),
    ({"functions": [_PACKET]},
     ["moments", "{model}", "--recipe", "{doc}", "--order", "2"]),
    ({"experiment_id": "two_mass_fourth_cumulant", "grid": _GRID, "seed": 3,
      "params": {"masses_sq": [1.0, 4.0], "weight": 0.5, "mc_samples": 0,
                 "packet": _PACKET},
      "tolerances": {"closed_form_rel": 1e-10}}, ["experiment", "{doc}"]),
    ({"experiment_id": "iteration", "grid": _GRID,
      "params": {"families": [[[1.0, 0.5], [4.0, 0.5]], [[2.0, 0.5], [9.0, 0.5]]],
                 "lambda_weights": [0.5, 0.5], "packet": _PACKET}},
     ["experiment", "{doc}"]),
    ({"experiment_id": "refinement", "grid": {"d": 1, "n_per_axis": 16, "spacing": 1.0},
      "params": {"d": 1, "extent": 16.0, "levels": [16, 32, 64], "masses_sq": [1.0],
                 "weights": [1.0], "packet": {"center": [8.0], "width": 2.0}}},
     ["experiment", "{doc}"]),
    ({"cluster": 1e-6, "reflection_positivity": -1e-9},
     ["verify", "{model}", "--tolerance-file", "{doc}"]),
    ({"numeric_n2": 1e-7},
     ["moments", "{model}", "--recipe", "{recipe}", "--order", "2",
      "--tolerance-file", "{doc}"]),
]
_FIELDS = [(i, path) for i, (doc, _) in enumerate(_DOCUMENTS)
           for path in _numeric_paths(doc)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(field=st.sampled_from(_FIELDS),
       bad=st.one_of(st.text(max_size=3), st.none(),
                     st.lists(st.floats(allow_nan=False), max_size=2),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)))
def test_any_malformed_number_exits_two(field, bad):
    index, path = field
    doc, argv = _DOCUMENTS[index]
    doc = json.loads(json.dumps(doc))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = bad
    with tempfile.TemporaryDirectory() as tmp:
        model, recipe = Path(tmp) / "model.json", Path(tmp) / "recipe.json"
        target = Path(tmp) / "doc.json"
        write_json(model, _MODEL_DOC)
        write_json(recipe, {"functions": [_PACKET]})
        write_json(target, doc)
        argv = [a.format(model=model, recipe=recipe, doc=target) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(Path(tmp) / "out")])
    assert code == 2, (path, bad)
    assert "schema error:" in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["experiment", "spec.json", "--grid", "1,64,0.5"],
    ["experiment", "spec.json", "--seed", "9"],
    ["moments", "model.json", "--recipe", "recipe.json", "--seed", "9"],
    ["sample", "model.json", "--format", "machine"],
    ["sample", "model.json", "--tolerance-file", "tols.json"],
    ["verify", "model.json", "--format", "machine"],
    ["moments", "model.json", "--recipe", "recipe.json", "--format", "machine"],
    ["experiment", "spec.json", "--format", "machine"],
], ids=["experiment_grid", "experiment_seed", "moments_seed", "sample_format",
        "sample_tolerance_file", "verify_format", "moments_format", "experiment_format"])
def test_flag_a_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_unknown_tolerance_key_is_schema_error(model_file, tmp_path):
    tol = tmp_path / "tols.json"
    write_json(tol, {"reflekshun_positivity": 1e-9})
    code = main(["verify", model_file, "--out", str(tmp_path / "o"),
                 "--tolerance-file", str(tol)])
    assert code == 2


def test_verify_hermiticity_tolerance_is_an_unknown_key(model_file, tmp_path, capsys):
    # no checker reads a hermiticity tolerance: the defect is reported only
    tol = tmp_path / "tols.json"
    write_json(tol, {"hermiticity": 1e-14})
    code = main(["verify", model_file, "--out", str(tmp_path / "o"),
                 "--tolerance-file", str(tol)])
    assert code == 2
    assert "hermiticity" in capsys.readouterr().err


def test_verify_missing_file_is_schema_error(tmp_path):
    assert main(["verify", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_moments_table(model_file, recipe_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["moments", model_file, "--recipe", recipe_file,
                 "--order", "5", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "moments.json").read_text())
    rows = {row["order"]: row for row in doc["rows"]}
    # odd orders are zero; order 4 carries a nonzero connected part
    assert rows[5]["moment_analytic"] == [0.0, 0.0]
    assert abs(rows[4]["connected"][0]) > 1e-3
    assert rows[2]["method"] == "both"
    assert rows[2]["agreement_delta"] <= 1e-7 * abs(rows[2]["moment_analytic"][0])
    assert rows[5]["method"] == "analytic"


def test_moments_matches_sobolev_norm_for_free_field(free_model_file,
                                                     recipe_file, tmp_path):
    from schwingerlab import Grid, gaussian_packet, sobolev_norms
    out = tmp_path / "out"
    assert main(["moments", free_model_file, "--recipe", recipe_file,
                 "--order", "2", "--out", str(out)]) == 0
    doc = json.loads((out / "moments.json").read_text())
    s2 = doc["rows"][1]["moment_analytic"][0]
    grid = Grid(2, 32, 0.25)
    f = gaussian_packet(grid, [4.0, 4.0], 1.0)
    assert s2 == pytest.approx(sobolev_norms([f], 1.0)[0] ** 2, rel=1e-12)


def test_moments_bad_recipe_field(model_file, tmp_path):
    recipe = tmp_path / "recipe.json"
    write_json(recipe, {"functions": [{"center": [4.0, 4.0], "girth": 1.0}]})
    assert main(["moments", model_file, "--recipe", str(recipe),
                 "--out", str(tmp_path / "o")]) == 2


def test_experiment_command(tmp_path):
    spec = tmp_path / "spec.json"
    write_json(spec, {
        "experiment_id": "two_mass_fourth_cumulant",
        "grid": {"d": 2, "n_per_axis": 32, "spacing": 0.25},
        "params": {"masses_sq": [1.0, 4.0],
                   "packet": {"center": [4.0, 4.0], "width": 1.0}},
    })
    out = tmp_path / "out"
    assert main(["experiment", str(spec), "--out", str(out)]) == 0
    doc = json.loads((out / "experiment.json").read_text())
    assert doc["passed"]
    assert (out / "experiment.txt").exists()


def test_refine_command_rejects_two_levels(tmp_path):
    spec = tmp_path / "ref.json"
    write_json(spec, {
        "experiment_id": "refinement",
        "grid": {"d": 1, "n_per_axis": 16, "spacing": 1.0},
        "params": {"d": 1, "extent": 16.0, "levels": [16, 32],
                   "masses_sq": [1.0],
                   "packet": {"center": [8.0], "width": 2.0}},
    })
    assert main(["experiment", str(spec), "--out", str(tmp_path / "o")]) == 2


def test_refine_command_passes(tmp_path):
    spec = tmp_path / "ref.json"
    write_json(spec, {
        "experiment_id": "refinement",
        "grid": {"d": 1, "n_per_axis": 16, "spacing": 1.0},
        "params": {"d": 1, "extent": 16.0, "levels": [16, 32, 64],
                   "masses_sq": [1.0],
                   "packet": {"center": [8.0], "width": 2.0}},
    })
    out = tmp_path / "out"
    assert main(["experiment", str(spec), "--out", str(out)]) == 0
    assert json.loads((out / "experiment.json").read_text())["passed"]


def test_sample_command_writes_reproducible_dump(model_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sample", model_file, "--count", "3", "--seed", "21",
                 "--out", str(out_a)]) == 0
    assert main(["sample", model_file, "--count", "3", "--seed", "21",
                 "--out", str(out_b)]) == 0
    assert (out_a / "samples.txt").read_bytes() == (out_b / "samples.txt").read_bytes()


@pytest.mark.parametrize("count", [0, -5])
def test_sample_count_below_one_is_schema_error(model_file, tmp_path, capsys, count):
    # rejected as --order is, not left to the dump writer's "nothing to write"
    assert main(["sample", model_file, "--count", str(count),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"--count must be 1..{MAX_SAMPLE_COUNT}, got {count}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sample_memory_does_not_grow_with_count(model_file, tmp_path):
    # each field is written as it is drawn, so 8x the samples is not 8x the memory
    import tracemalloc
    peaks = []
    for count in (100, 800):
        tracemalloc.start()
        try:
            assert main(["sample", model_file, "--count", str(count), "--grid", "2,32,0.25",
                         "--out", str(tmp_path / str(count))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


@pytest.mark.parametrize("mc_samples", [1, 2])
def test_two_mass_mc_samples_below_three_is_schema_error(tmp_path, capsys, mc_samples):
    # rejected before any route runs, naming the parameter, as a negative count is
    spec = tmp_path / "spec.json"
    write_json(spec, {**_SPEC_DOC, "params": {**_SPEC_DOC["params"], "mc_samples": mc_samples}})
    assert main(["experiment", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert (f"schema error: two_mass mc_samples must be 0 or in 3..{MAX_SAMPLE_COUNT}, "
            f"got {mc_samples}") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def rerun_bytes(args, output, tmp_path):
    """The output file of the same command run in two fresh processes."""
    outs = []
    for name in ("p", "q"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "schwingerlab.cli", *args, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append((out / output).read_bytes())
    return outs


def test_rerun_outputs_are_byte_identical_across_processes(model_file, tmp_path):
    first, second = rerun_bytes(["verify", model_file, "--seed", "5"],
                                "checks.json", tmp_path)
    assert first == second


def test_moments_rerun_is_byte_identical_across_processes(model_file, tmp_path):
    # every row of moments.json comes from one order-8 table
    recipe = tmp_path / "recipe.json"
    write_json(recipe, {"functions": [
        {"center": [4.0, 4.0], "width": 1.0},
        {"center": [3.0, 5.0], "width": 1.5, "momentum": [0.5, -1.0]},
        {"center": [5.0, 2.5], "width": 0.75}]})
    first, second = rerun_bytes(["moments", model_file, "--recipe", str(recipe),
                                 "--order", "8"], "moments.json", tmp_path)
    assert first == second
    rows = json.loads(first)["rows"]
    assert [row["order"] for row in rows] == list(range(1, 9))
    assert all(row["connected"] == [0.0, 0.0] for row in rows[::2])


@pytest.mark.bits
def test_sample_rerun_is_byte_identical_across_processes(model_file, tmp_path):
    first, second = rerun_bytes(["sample", model_file, "--count", "8", "--seed", "5"],
                                "samples.txt", tmp_path)
    assert first == second
    assert first.count(b"\nsample index=") == 8


def test_refine_writes_curves_csv(tmp_path):
    spec = tmp_path / "ref.json"
    write_json(spec, {
        "experiment_id": "refinement",
        "grid": {"d": 1, "n_per_axis": 16, "spacing": 1.0},
        "params": {"d": 1, "extent": 16.0, "levels": [16, 32, 64],
                   "masses_sq": [1.0],
                   "packet": {"center": [8.0], "width": 2.0}},
    })
    out = tmp_path / "out"
    assert main(["experiment", str(spec), "--out", str(out)]) == 0
    lines = (out / "curves.csv").read_text().strip().splitlines()
    assert lines[0] == "level,two_point,connected_fourth,rotation_defect"
    assert len(lines) == 4


def test_refinement_converged_to_roundoff_writes_a_null_order(tmp_path):
    # an order that is not finite was an inf the JSON writer refused (exit 2)
    spec = tmp_path / "ref.json"
    write_json(spec, {
        "experiment_id": "refinement",
        "grid": {"d": 1, "n_per_axis": 16, "spacing": 0.5},
        "params": {"d": 1, "extent": 8.0, "levels": [16, 32, 64],
                   "masses_sq": [1e150, 1e150],
                   "packet": {"center": [4.0], "width": 1.0}},
    })
    out = tmp_path / "out"
    assert main(["experiment", str(spec), "--out", str(out)]) == 0
    assert '"fitted_order": null' in (out / "experiment.json").read_text()


def test_moments_output_carries_config_digest(model_file, recipe_file, tmp_path):
    out = tmp_path / "out"
    assert main(["moments", model_file, "--recipe", recipe_file,
                 "--order", "2", "--out", str(out)]) == 0
    doc = json.loads((out / "moments.json").read_text())
    assert len(doc["config_digest"]) == 64


def test_precision_failure_exit_code(model_file, recipe_file, tmp_path,
                                     monkeypatch):
    # exit 3 is reserved for a numeric route that both warns and disagrees
    import schwingerlab.cli as cli_mod
    from schwingerlab.functional import NumericMoment

    def broken(model, fs):
        return NumericMoment(complex(1e6), (0j, 0j, 0j), 1.0, True)

    monkeypatch.setattr(cli_mod, "moment_numeric", broken)
    code = main(["moments", model_file, "--recipe", recipe_file,
                 "--order", "2", "--out", str(tmp_path / "o")])
    assert code == 3


def test_moments_tolerance_keys_name_orders(model_file, recipe_file, tmp_path,
                                            monkeypatch):
    # the schedule's defaults, and each numeric_n<k> override sets order k only
    import schwingerlab.cli as cli_mod
    from schwingerlab.functional import NUMERIC_TOLERANCE_SCHEDULE, NumericMoment
    assert NUMERIC_TOLERANCE_SCHEDULE == {1: 1e-7, 2: 1e-7, 3: 1e-4, 4: 1e-5}
    broken = NumericMoment(complex(1e6), (0j, 0j, 0j), 1.0, True)
    monkeypatch.setattr(cli_mod, "moment_numeric", lambda model, fs: broken)
    codes = []
    loose = 1e20
    for i, tols in enumerate([None, {"numeric_n1": loose},
                              {"numeric_n1": loose, "numeric_n2": loose},
                              {"numeric_n3": loose}]):
        argv = ["moments", model_file, "--recipe", recipe_file, "--order", "2",
                "--out", str(tmp_path / f"o{i}")]
        if tols is not None:
            write_json(tmp_path / f"t{i}.json", tols)
            argv += ["--tolerance-file", str(tmp_path / f"t{i}.json")]
        codes.append(main(argv))
    assert codes == [3, 3, 0, 3]


def test_experiment_tolerance_file_merges_and_validates(tmp_path):
    spec = tmp_path / "spec.json"
    write_json(spec, {
        "experiment_id": "two_mass_fourth_cumulant",
        "grid": {"d": 2, "n_per_axis": 32, "spacing": 0.25},
        "params": {"masses_sq": [1.0, 4.0],
                   "packet": {"center": [4.0, 4.0], "width": 1.0}},
    })
    tol = tmp_path / "tol.json"
    write_json(tol, {"closed_form_rel": 1e-8})
    assert main(["experiment", str(spec), "--out", str(tmp_path / "a"),
                 "--tolerance-file", str(tol)]) == 0
    bad = tmp_path / "bad.json"
    write_json(bad, {"closed_form_relly": 1e-8})
    assert main(["experiment", str(spec), "--out", str(tmp_path / "b"),
                 "--tolerance-file", str(bad)]) == 2


# ROADMAP item 20: every valid input, however extreme, gets a finite answer or a named exit 2
_SWEEP_VALUES = [1e-6, 1e-3, 1.0, 1e3, 1e12, 1e150, 1e300]
_NAMED_EXIT_2 = re.compile(r"error: (\w+ of order \d+ leave float64|two-point values overflow "
                           r"float64|moment_numeric (steps|stencils) )")


@pytest.mark.parametrize("grid", ["2,16,0.5", "1,16,0.5"])
def test_extreme_masses_and_weights_exit_zero_two_or_three(tmp_path, capsys, grid):
    d = int(grid.split(",")[0])
    packet = {"center": [4.0] * d, "width": 1.0}
    write_json(tmp_path / "recipe.json", {"functions": [packet]})
    spec_grid = {"d": d, "n_per_axis": 16, "spacing": 0.5}
    runs = []
    for v in _SWEEP_VALUES:
        # the value on the second leaf of a two-leaf mixture, as its m2 or its atom weight
        for kind, atom in (("m2", [v, 1.0]), ("weight", [1.0, v])):
            model = tmp_path / f"{kind}-{v}.json"
            write_json(model, {"format": "schwinger-model", "version": 1, "model": {
                "kind": "mixture", "children": [
                    {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [[1.0, 1.0]]}},
                    {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [atom]}}]}})
            runs += [["verify", str(model), "--grid", grid, "--seed", "7"],
                     ["sample", str(model), "--grid", grid, "--seed", "7", "--count", "4"]]
            runs += [["moments", str(model), "--grid", grid, "--recipe",
                      str(tmp_path / "recipe.json"), "--order", order] for order in ("4", "8")]
        # the experiments take the value as the second m2: their leaf and family weights
        # are mixture weights, which sum to 1
        specs = [("two_mass_fourth_cumulant", {"masses_sq": [1.0, v], "packet": packet,
                                               "mc_samples": 2000}),
                 ("iteration", {"families": [[[1.0, 1.0]], [[v, 1.0]]],
                                "lambda_weights": [0.5, 0.5], "packet": packet}),
                 ("refinement", {"d": d, "extent": 8.0, "levels": [16, 32, 64],
                                 "masses_sq": [1.0, v], "packet": packet})]
        for exp_id, params in specs:
            spec = tmp_path / f"{exp_id}-{v}.json"
            write_json(spec, {"experiment_id": exp_id, "grid": spec_grid, "seed": 7,
                              "params": params})
            runs.append(["experiment", str(spec)])
    for i, argv in enumerate(runs):
        code = main(argv + ["--out", str(tmp_path / f"out{i}")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3) and "Traceback" not in err, (argv, code, err)
        assert code != 3 or argv[0] == "moments", (argv, err)
        assert code != 2 or _NAMED_EXIT_2.match(err), (argv, err)
