"""Command-line interface: exit codes, file outputs, determinism."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schwingerlab import QuasiFree, SpectralMeasure, save_model
from schwingerlab.cli import main
from schwingerlab.experiments import two_mass_mixture
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


def test_verify_mixture_reports_not_quasifree(model_file, tmp_path):
    out = tmp_path / "out"
    code = main(["verify", model_file, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "checks.json").read_text())
    assert doc["passed"] and doc["quasi_free"] is False


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
    write_json(path, {"format": "schwinger-model", "version": 1, "model": model})
    assert main(["verify", str(path), "--grid", grid,
                 "--out", str(tmp_path / "o")]) == 2


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
], ids=["recipe_width", "spec_seed", "spec_grid_d", "tolerance_value",
        "refinement_grid_d_mismatch", "fractional_grid_d", "fractional_n_per_axis",
        "fractional_seed", "fractional_mc_samples", "fractional_refinement_d",
        "fractional_refinement_level"])
def test_malformed_number_is_schema_error(model_file, tmp_path, capsys,
                                          name, doc, argv):
    path = tmp_path / name
    write_json(path, doc)
    argv = [a.format(model=model_file, doc=path) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "schema error:" in capsys.readouterr().err


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
    ({"cluster": 1e-6, "hermiticity": 1e-14},
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
], ids=["experiment_grid", "experiment_seed", "moments_seed", "sample_format",
        "sample_tolerance_file"])
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
    from schwingerlab import Grid, gaussian_packet, sobolev_norm
    out = tmp_path / "out"
    assert main(["moments", free_model_file, "--recipe", recipe_file,
                 "--order", "2", "--out", str(out)]) == 0
    doc = json.loads((out / "moments.json").read_text())
    s2 = doc["rows"][1]["moment_analytic"][0]
    grid = Grid(2, 32, 0.25)
    f = gaussian_packet(grid, [4.0, 4.0], 1.0)
    assert s2 == pytest.approx(sobolev_norm(f, 1.0) ** 2, rel=1e-12)


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


def test_machine_format_prints_json(model_file, recipe_file, tmp_path, capsys):
    assert main(["moments", model_file, "--recipe", recipe_file, "--order", "2",
                 "--out", str(tmp_path / "o"), "--format", "machine"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["rows"][0]["order"] == 1


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
