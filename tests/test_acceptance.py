"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass line on success; a failing assertion marks
the criterion red.  Seeds are fixed throughout, so the whole module is
deterministic.  The two 1e5-sample Monte Carlo streams are module-scoped
fixtures shared by the criteria that need them.
"""

import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

from schwingerlab import (Grid, QuasiFree, SpectralMeasure, SuiteConfig,
                          check_cluster_defect, cumulant, cumulant_scale,
                          envelope, free_two_point, gaussian_packet,
                          gaussianize, moment_analytic, moment_growth_check,
                          moment_numeric, regularity_certificate,
                          run_axiom_suite, save_model, site_indicator)
from schwingerlab.experiments import (ExperimentSpec, run_iteration,
                                      run_two_mass_fourth_cumulant,
                                      two_mass_mixture)
from schwingerlab.fixtures import (random_model_tree, random_real_functions,
                                   rng_from_seed)
from schwingerlab.montecarlo import estimate_fourth_cumulant, pair_values
from schwingerlab.partitions import subset_exp, subset_log

from oracles import bell_triangle, fixture_packet, insertion_partitions, oracle_moment

GRID = Grid(2, 32, 0.25)
PACKET = gaussian_packet(GRID, [4.0, 4.0], 1.0)  # width 4a, centered
MIXTURE = two_mass_mixture(1.0, 4.0)

MC_COUNT = 100_000


def ok(criterion, text):
    print(f"[criterion {criterion:02d}] PASS - {text}")


@pytest.fixture(scope="module")
def mixture_values():
    return pair_values(MIXTURE, GRID, PACKET, seed=20240801, count=MC_COUNT)


@pytest.fixture(scope="module")
def gaussianized_values():
    flat = gaussianize(MIXTURE)
    return pair_values(flat, GRID, PACKET, seed=20240802, count=MC_COUNT)


def jackknife_mean(values):
    n = values.size
    loo = (values.sum() - values) / (n - 1)
    err = np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
    return float(values.mean()), float(err)


# ---------------------------------------------------------------------------

def test_criterion_01_axiom_closure_under_mixing():
    """Five random trees (depth <= 3, atoms in [1, 9]) pass every check."""
    rng = rng_from_seed(424242)
    for trial in range(5):
        model = random_model_tree(rng, max_depth=3)
        result = run_axiom_suite(model, SuiteConfig(grid=GRID, seed=1000 + trial))
        by_id = {r.check_id: r for r in result.reports}
        assert by_id["normalization_neutrality"].tolerance == 1e-12
        assert by_id["reflection_positivity"].tolerance == -1e-9
        assert by_id["stochastic_positivity"].tolerance == -1e-9
        assert by_id["euclidean_invariance"].tolerance == 1e-10
        for rep in result.reports:
            assert rep.passed, f"tree {trial}: {rep.check_id} witness {rep.witness}"
        assert result.passed
    ok(1, "5 random mixture trees pass the full axiom suite")


def test_criterion_02_two_mass_reproduction(mixture_values):
    """Connected 4-point: transform vs closed form to 1e-10, MC within 3 sigma."""
    spec = ExperimentSpec.from_dict({
        "experiment_id": "two_mass_fourth_cumulant",
        "grid": GRID.as_dict(),
        "params": {"masses_sq": [1.0, 4.0],
                   "packet": {"center": [4.0, 4.0], "width": 1.0},
                   "mc_samples": MC_COUNT},
        "seed": 20240801,
    })
    rep = run_two_mass_fourth_cumulant(spec)
    a, b = rep.values["cumulant_transform"], rep.values["closed_form"]
    assert abs(a - b) <= 1e-10 * abs(b)
    # the experiment draws the same stream as the fixture, seed for seed
    assert (rep.values["monte_carlo"], rep.values["monte_carlo_stderr"]) == \
        estimate_fourth_cumulant(mixture_values)
    assert abs(rep.values["monte_carlo"] - b) <= 3 * rep.values["monte_carlo_stderr"]
    assert rep.passed

    degenerate = run_two_mass_fourth_cumulant(ExperimentSpec.from_dict({
        "experiment_id": "two_mass_fourth_cumulant",
        "grid": GRID.as_dict(),
        "params": {"masses_sq": [2.0, 2.0],
                   "packet": {"center": [4.0, 4.0], "width": 1.0}},
    }))
    assert degenerate.passed
    assert abs(degenerate.values["cumulant_transform"]) <= \
        1e-12 * degenerate.values["cumulant_scale"]
    ok(2, f"S4 connected = {a:.6f} matches closed form to 1e-10; "
          f"MC at {rep.values['monte_carlo_sigmas']:.2f} sigma")


def test_criterion_03_quasifree_characterization():
    """Leaves: connected moments n=3..6 vanish; true mixtures: S4T visible."""
    rng = rng_from_seed(515151)
    leaves = [QuasiFree(SpectralMeasure.delta(float(rng.uniform(1, 9))))
              for _ in range(2)]
    leaves.append(QuasiFree(SpectralMeasure(
        ((1.0, 0.25), (3.0, 0.5), (7.0, 0.25)))))
    for leaf in leaves:
        for n in (3, 4, 5, 6):
            fs = random_real_functions(GRID, rng, n)
            got = cumulant(leaf, fs)
            scale = cumulant_scale(leaf, fs)
            assert abs(got) <= 1e-12 * max(scale, 1e-300), (n, got, scale)

    probe = fixture_packet(GRID)
    mixtures = [MIXTURE]
    for _ in range(5):
        m1 = float(rng.uniform(1.0, 9.0))
        m2 = m1
        while abs(m2 - m1) < 0.5:
            m2 = float(rng.uniform(1.0, 9.0))
        w = float(rng.uniform(0.2, 0.8))
        mixtures.append(two_mass_mixture(m1, m2, w))
    for mix in mixtures:
        s4t = cumulant(mix, [probe] * 4)
        scale = cumulant_scale(mix, [probe] * 4)
        assert abs(s4t) > 1e-6 * scale
    ok(3, "leaf cumulants vanish to 1e-12*scale; mixture S4T > 1e-6*scale")


def test_criterion_04_moebius_roundtrip():
    """Transforms mutually inverse on 100 random inputs per order n <= 6."""
    def all_subsets(n):
        for r in range(1, n + 1):
            yield from itertools.combinations(range(1, n + 1), r)

    def mask(key):
        return sum(1 << (i - 1) for i in key)

    for n in range(1, 7):
        rng = rng_from_seed(7000 + n)
        for _ in range(100):
            cums = {key: rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random())
                    for key in all_subsets(n)}
            table = np.zeros(1 << n, dtype=np.complex128)
            for key, value in cums.items():
                table[mask(key)] = value
            moms = subset_exp(table)
            top = cums[tuple(range(1, n + 1))]
            want = oracle_moment(cums, n)
            assert abs(moms[-1] - want) <= 1e-12 * abs(want)
            back = subset_log(moms)[-1]
            assert abs(back - top) <= 1e-12 * abs(top)

    for n in range(1, 9):
        assert len(insertion_partitions(n)) == bell_triangle(n)
    ok(4, "100 roundtrips per n<=6 at 1e-12, moments on the partition sum; "
          "counts match the Bell triangle")


def test_criterion_05_derivative_consistency():
    """Finite-difference moments agree with the pairing sums."""
    rng = rng_from_seed(616161)
    family = [
        QuasiFree(SpectralMeasure.delta(1.0)),
        QuasiFree(SpectralMeasure(((1.0, 0.5), (4.0, 0.5)))),
        MIXTURE,
        envelope([(0.4, MIXTURE), (0.6, QuasiFree(SpectralMeasure.delta(9.0)))]),
    ]
    g = random_real_functions(GRID, rng, 1)[0]
    for model in family:
        an2 = moment_analytic(model, [PACKET, g])
        nm2 = moment_numeric(model, [PACKET, g])
        assert abs(nm2.value - an2) <= 1e-7 * abs(an2)
        an4 = moment_analytic(model, [PACKET] * 4)
        nm4 = moment_numeric(model, [PACKET] * 4)
        assert abs(nm4.value - an4) <= 1e-5 * abs(an4)
        assert not nm2.precision_warning and not nm4.precision_warning
    ok(5, "numeric vs analytic: n=2 within 1e-7, n=4 within 1e-5")


@pytest.mark.bits
def test_criterion_06_regularity_and_growth():
    """Gaussian bound certified with e=e'=2 on |z|<=4; K <= 4 for n <= 8."""
    rng = rng_from_seed(717171)
    family = [QuasiFree(SpectralMeasure.delta(1.0)),
              QuasiFree(SpectralMeasure(((1.0, 0.5), (4.0, 0.5)))), MIXTURE]
    family += [random_model_tree(rng) for _ in range(5)]
    worst_c = 0.0
    for model in family:
        cert = regularity_certificate(model, PACKET)
        assert cert.samples == 64
        assert cert.passed
        assert cert.bound.e == cert.bound.e_prime == 2.0
        worst_c = max(worst_c, cert.bound.constant)
    growth = moment_growth_check(MIXTURE, GRID, n_max=8, trials=4, seed=8)
    assert growth.passed and growth.k <= 4.0
    ok(6, f"regularity constant <= {worst_c:.3f}; growth K = {growth.k:.3f} <= 4")


def test_criterion_07_cluster_failure():
    """Two-mass mixture converges to a nonzero defect; one mass clusters."""
    cluster_grid = Grid(2, 64, 1.0)
    f = site_indicator(cluster_grid, (16, 32))
    g = site_indicator(cluster_grid, (16, 32))
    seps = [4, 8, 12, 16]

    mix_rep, _ = check_cluster_defect(MIXTURE, f, g, seps, tolerance=1e-6)
    assert mix_rep.passed
    d_inf = complex(*mix_rep.details["delta_infinity"])
    g1 = QuasiFree(SpectralMeasure.delta(1.0))
    g2 = QuasiFree(SpectralMeasure.delta(4.0))
    want = 0.25 * (g1.evaluate_many([f])[0] - g2.evaluate_many([f])[0]) * \
        (g1.evaluate_many([g])[0] - g2.evaluate_many([g])[0])
    assert abs(d_inf - want) <= 1e-10 * abs(want)
    assert abs(d_inf) > 0

    single_rep, _ = check_cluster_defect(g1, f, g, seps, tolerance=1e-6)
    assert single_rep.passed
    ok(7, f"defect witness {mix_rep.witness:.2e} <= 1e-6 with "
          f"Delta_inf = {abs(d_inf):.2e} != 0; single mass clusters at "
          f"{single_rep.witness:.2e}")


def test_criterion_08_iteration():
    """Iterated construction: two-point identity, nonzero S4T, S4 separation."""
    spec = ExperimentSpec.from_dict({
        "experiment_id": "iteration",
        "grid": GRID.as_dict(),
        "params": {"families": [[[1.0, 0.5], [4.0, 0.5]],
                                [[4.0, 0.5], [9.0, 0.5]]],
                   "lambda_weights": [0.5, 0.5],
                   "packet": {"center": [4.0, 4.0], "width": 1.0}},
    })
    rep = run_iteration(spec)
    assert rep.passed
    s2m, s2c = rep.values["two_point_iterated"], rep.values["two_point_convolved"]
    assert abs(s2m - s2c) <= 1e-12 * abs(s2c)
    scale = rep.values["cumulant_scale"]
    assert abs(rep.values["connected_fourth"]) > 1e-6 * scale
    assert abs(rep.values["fourth_moment_difference"]) > 1e-6 * scale
    ok(8, f"two-point identity at 1e-12; S4T = "
          f"{rep.values['connected_fourth']:.5f}; one-step vs iterated S4 "
          f"differ by {rep.values['fourth_moment_difference']:.5f}")


def test_criterion_09_monte_carlo_consistency(mixture_values,
                                              gaussianized_values):
    """S2 and S4 in 3-sigma bands; stderr slope -0.5; mixtures and their
    gaussianizations agree at order 2, separate at order 4."""
    xs, ys = mixture_values, gaussianized_values
    s2_true = moment_analytic(MIXTURE, [PACKET] * 2).real
    s4_true = moment_analytic(MIXTURE, [PACKET] * 4).real

    est2, err2 = jackknife_mean(xs[:10_000] ** 2)
    assert abs(est2 - s2_true) <= 3 * err2
    est4, err4 = jackknife_mean(xs ** 4)
    assert abs(est4 - s4_true) <= 3 * err4

    errs = []
    counts = [100, 1000, 10_000, 100_000]
    for c in counts:
        errs.append(jackknife_mean(xs[:c] ** 2)[1])
    slope = float(np.polyfit(np.log(counts), np.log(errs), 1)[0])
    assert abs(slope + 0.5) <= 0.1

    g2, g2err = jackknife_mean(ys[:10_000] ** 2)
    z2 = abs(est2 - g2) / np.hypot(err2, g2err)
    g4, g4err = jackknife_mean(ys ** 4)
    z4 = abs(est4 - g4) / np.hypot(err4, g4err)
    assert z2 < 3.0
    assert z4 > 3.0
    ok(9, f"S2/S4 in band; slope {slope:.3f}; order-2 z = {z2:.2f} < 3, "
          f"order-4 z = {z4:.1f} > 3")


def test_criterion_10_determinism(tmp_path):
    """Byte-identical machine outputs on rerun with identical spec + seed."""
    model_path = tmp_path / "model.json"
    save_model(MIXTURE, model_path)
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "schwingerlab.cli", "verify",
             str(model_path), "--out", str(out), "--seed", "12345"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "checks.json").read_bytes())
    assert blobs[0] == blobs[1]

    spec_path = tmp_path / "spec.json"
    spec_doc = {
        "experiment_id": "two_mass_fourth_cumulant",
        "grid": GRID.as_dict(),
        "params": {"masses_sq": [1.0, 4.0],
                   "packet": {"center": [4.0, 4.0], "width": 1.0},
                   "mc_samples": 500},
        "seed": 99,
    }
    spec_path.write_text(json.dumps(spec_doc))
    exp_blobs = []
    for name in ("ea", "eb"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "schwingerlab.cli", "experiment",
             str(spec_path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        exp_blobs.append((out / "experiment.json").read_bytes())
    assert exp_blobs[0] == exp_blobs[1]
    ok(10, "verify and experiment reruns are byte-identical")
