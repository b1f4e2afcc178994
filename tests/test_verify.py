from dataclasses import replace

import numpy as np
import pytest

from shallowmin import dataset_stats, pipeline, synthesize, train_exact_meq, train_general
from shallowmin.checks import Check, rel
from shallowmin.errors import WrongRegime
from shallowmin.linalg import op_norm
from shallowmin.verify import (
    OCTAVES,
    SUITES,
    run_suite,
    suite_bounds,
    suite_degeneracy,
    suite_exact_min,
    suite_invariance,
    suite_truncation,
    t_law,
    trend_start,
)
from tests.conftest import near_duplicate_means


def test_all_suites_pass_on_square_dataset():
    ds = synthesize(3, 3, [8, 8, 8], noise=0.05, seed=4)
    checks = run_suite("all", ds, seed=4)
    failing = [c.name for c in checks if not c.passed]
    assert not failing, failing
    names = {c.name for c in checks}
    # every suite contributed at least one check
    for prefix in ("bounds.", "exact.", "degeneracy.", "invariance.",
                   "metric.", "truncation."):
        assert any(n.startswith(prefix) for n in names)


def test_bounds_suite_on_rectangular_dataset():
    ds = synthesize(6, 3, [5, 5, 5], noise=0.1, seed=2)
    assert all(c.passed for c in suite_bounds(pipeline(ds)))


def test_bounds_suite_at_zero_noise_checks_the_zero_cost():
    checks = suite_bounds(pipeline(synthesize(4, 2, [8, 8], noise=0.0, seed=1)))
    assert len(checks) == 7 and all(c.passed for c in checks)
    assert "bounds.zero-noise-cost" in {c.name for c in checks}


def test_bounds_suite_forwards_three_passes_and_the_means(forward_calls):
    """Two training passes, one full forward for the hidden-layer identity and
    the Q class means; the two costs read the training passes' records."""
    ds = synthesize(6, 3, [5, 5, 5], noise=0.1, seed=2)
    suite_bounds(pipeline(ds))
    assert sum(forward_calls) == 3 * ds.n + ds.q


def test_bounds_suite_prints_the_fits_own_checks():
    """The bound chain is not measured again: its two lines are the checks
    the general fit made and kept."""
    pl = pipeline(synthesize(6, 3, [5, 5, 5], noise=0.1, seed=2))
    checks = suite_bounds(pl)
    assert [c.name for c in checks[:2]] == ["bounds.cost-le-bound", "bounds.bound-le-op-deltap"]
    assert checks[0] is pl.general.checks[0] and checks[1] is pl.general.checks[1]


def test_exact_min_suite_prints_the_runtime_checks():
    """cost-eq-closed-form is the M = Q fit's check, projector-route the
    closed form's."""
    pl = pipeline(synthesize(4, 4, [10] * 4, noise=0.05, seed=3))
    checks = suite_exact_min(pl)
    assert checks[0] is pl.square.checks[0] and checks[1] is pl.minimum.route_check
    assert [c.name for c in checks[:2]] == ["exact.cost-eq-closed-form", "exact.projector-route"]


def test_invariance_suite_solves_once_per_dataset(exact_calls):
    """One exact_minimum per dataset, the given one and its 20 images K X0:
    one relative-deviations pass and one closed form each, and no data Gram;
    the data-projector probe reads that call's means and D2."""
    ds = synthesize(8, 8, [12] * 8, noise=0.05, seed=1)
    checks = suite_invariance(pipeline(ds), seed=1)
    assert all(c.passed for c in checks)
    assert exact_calls == {"relative_deviations": 21, "_gram": 0, "closed_form_min": 21}


def test_exact_min_suite_solves_once_per_dataset(exact_calls):
    """The given dataset is solved once, by the M = Q fit whose ExactMinimum
    the suite reads, and the trend checks' one rebuilt octave once; the other
    octaves are read off the t-law, one closed form each. Every solve is
    one relative-deviations pass and one closed form, which its projector
    route cross-checks; none forms the data Gram."""
    ds = synthesize(4, 4, [10] * 4, noise=0.05, seed=3)
    checks = suite_exact_min(pipeline(ds))
    assert all(c.passed for c in checks)
    solves = 2
    assert exact_calls == {"relative_deviations": solves, "_gram": 0,
                           "closed_form_min": solves + OCTAVES + 1}


@pytest.mark.parametrize("m, size, noise, seed, k0", [(8, 300, 0.05, 2, 5),
                                                      (3, 20, 0.005, 1, 0)])
def test_t_law_matches_rebuilt_data_at_every_octave(m, size, noise, seed, k0):
    """At each octave the trend checks fit, the t-law's delta_p, value and W2*
    equal those of the record of X0(t) = means + t dev, built as data."""
    ds = synthesize(m, m, [size] * m, noise=noise, seed=seed)
    pl = pipeline(ds)
    means = np.repeat(pl.stats.means, ds.class_sizes, axis=1)
    assert trend_start(float(pl.minimum.spec.max())) == k0
    for k in range(k0, k0 + OCTAVES + 1):
        t = 0.5 ** k
        delta_p, value, w2, _, _ = t_law(pl, t)
        data = pipeline(replace(ds, x0=means + t * (ds.x0 - means)))
        assert rel(data.minimum.value, value) <= 1e-9
        assert rel(data.stats.delta_p, delta_p) <= 1e-9
        assert op_norm(data.minimum.w2 - w2) / (1.0 + op_norm(w2)) <= 1e-9


def test_t_law_route_on_near_duplicate_means():
    """cond(means) ~ 1e5: the t-law and the rebuilt octave solve with the
    same Q x Q kernel, so their W2* agree (an eigenbasis W2* was 1.1e-7 off)."""
    checks = {c.name: c for c in suite_exact_min(pipeline(near_duplicate_means(1, 1e-5, 1e-3)))}
    assert checks["exact.t-law-route"].passed, checks["exact.t-law-route"]


def test_gl_data_projector_on_near_duplicate_means():
    """cond(means) ~ 1e7: the projector's action through means and I + D2
    enters the condition number once (through the data Gram, 1.7e-7 > 1e-7)."""
    checks = {c.name: c for c in suite_invariance(pipeline(near_duplicate_means(1, 1e-7, 1e-4)),
                                                  seed=1)}
    assert checks["invariance.gl-data-projector"].passed, checks["invariance.gl-data-projector"]


def test_truncation_point_near_the_psd_floor_is_solved():
    """Point 19 of this grid has lambda_max(D2) = 1.8e6 and a rounding
    eigenvalue below -1e-12; the closed form through I + D2 needs no floor,
    so no point errors."""
    ds = synthesize(8, 8, [300] * 8, noise=0.05, seed=1183364968)
    checks = suite_truncation(pipeline(ds), seed=1183364968)
    assert all(c.passed for c in checks), checks
    assert "errored" not in checks[0].detail, checks[0].detail


def test_degeneracy_suite_solves_once(exact_calls):
    """The M = Q fit's solve, whose w2 every re-solve reuses."""
    ds = synthesize(3, 3, [10] * 3, noise=0.05, seed=3)
    assert all(c.passed for c in suite_degeneracy(pipeline(ds), seed=1))
    assert exact_calls == {"relative_deviations": 1, "_gram": 0, "closed_form_min": 1}


@pytest.mark.parametrize("suite,svds", [("metric", 1), ("exact-min", 2),
                                        ("invariance", 1 + 2)])
def test_one_means_svd_per_dataset(means_svd_calls, suite, svds):
    """projector_pack is the one kernel for the geometry of the means: each
    dataset's pack, taken by dataset_stats, also gives w2_tilde its
    pseudoinverse. metric reads one dataset; exact-min reads the given one
    and its one rebuilt noise octave; invariance the given one and its
    2 scaled copies, while its 20 GL(Q) images take no pack."""
    ds = synthesize(8, 8, [300] * 8, noise=0.05, seed=1)
    assert all(c.passed for c in run_suite(suite, ds, seed=1))
    assert means_svd_calls == [(8, 8)] * svds


@pytest.mark.parametrize("suite,rotations", [("bounds", 2), ("metric", 1), ("exact-min", 0),
                                             ("degeneracy", 0), ("invariance", 0),
                                             ("truncation", 0)])
def test_rotations_only_for_general_fits(rotation_calls, suite, rotations):
    """The rotation is read off the pack by the general trainer, its one
    reader, with no eigendecomposition: bounds fits at two margins, metric
    once, and no other suite fits one."""
    ds = synthesize(8, 8, [300] * 8, noise=0.05, seed=1)
    assert all(c.passed for c in run_suite(suite, ds, seed=1))
    assert rotation_calls == {"_fit_general": rotations, "eigh": 0}


def test_rotations_of_the_trainers(rotation_calls):
    ds = synthesize(8, 8, [300] * 8, noise=0.05, seed=1)
    stats, pack = dataset_stats(ds)
    train_exact_meq(ds, stats)
    assert rotation_calls == {"_fit_general": 0, "eigh": 0}
    train_general(ds, stats, pack)
    assert rotation_calls == {"_fit_general": 1, "eigh": 0}


def test_exact_min_suite_rejects_rectangular():
    ds = synthesize(5, 3, [4, 4, 4], noise=0.05, seed=0)
    with pytest.raises(WrongRegime):
        suite_exact_min(pipeline(ds))


def test_unknown_suite_name():
    ds = synthesize(2, 2, [3, 3], noise=0.0, seed=0)
    with pytest.raises(ValueError):
        run_suite("nonsense", ds)


def test_suite_names_stable():
    assert SUITES == ("bounds", "exact-min", "degeneracy", "invariance",
                      "metric", "truncation")


def test_cli_verify_reports_failure(monkeypatch, capsys):
    from shallowmin import cli

    def fake_run_suite(name, ds, seed=0):
        return [Check(name="fake.broken", passed=False,
                              measured=1.0, tolerance=0.1)]

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code = cli.main(["verify", "bounds", "--m", "2", "--q", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert "[FAIL] fake.broken" in captured.out
    assert "first failing property: fake.broken" in captured.err
