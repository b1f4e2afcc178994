import pytest

from shallowmin import pipeline, synthesize
from shallowmin.checks import Check
from shallowmin.errors import WrongRegime
from shallowmin.verify import (
    OCTAVES,
    SUITES,
    run_suite,
    suite_bounds,
    suite_degeneracy,
    suite_exact_min,
    suite_invariance,
)


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
    one relative-deviations pass and one Gram each; the data-projector probe
    reuses that call's Gram."""
    ds = synthesize(8, 8, [12] * 8, noise=0.05, seed=1)
    checks = suite_invariance(pipeline(ds), seed=1)
    assert all(c.passed for c in checks)
    assert exact_calls == {"relative_deviations": 21, "_gram": 21, "closed_form_min": 21}


def test_exact_min_suite_solves_once_per_dataset(exact_calls):
    """The given dataset is solved once, by the M = Q fit whose ExactMinimum
    the suite reads; each of the OCTAVES + 1 noise-scaled datasets once. Every
    solve is one relative-deviations pass, one Gram solve and one closed form,
    which its projector route cross-checks."""
    ds = synthesize(4, 4, [10] * 4, noise=0.05, seed=3)
    checks = suite_exact_min(pipeline(ds))
    assert all(c.passed for c in checks)
    solves = 1 + OCTAVES + 1
    assert exact_calls == {"relative_deviations": solves, "_gram": solves,
                           "closed_form_min": solves}


def test_degeneracy_suite_solves_once(exact_calls):
    """The M = Q fit's solve, whose w2 every re-solve reuses."""
    ds = synthesize(3, 3, [10] * 3, noise=0.05, seed=3)
    assert all(c.passed for c in suite_degeneracy(pipeline(ds), seed=1))
    assert exact_calls == {"relative_deviations": 1, "_gram": 1, "closed_form_min": 1}


@pytest.mark.parametrize("suite,svds", [("metric", 1), ("exact-min", 1 + OCTAVES + 1)])
def test_one_means_svd_per_dataset(means_svd_calls, suite, svds):
    """projector_pack is the one kernel for the geometry of the means: each
    dataset's pack, taken by dataset_stats, also gives w2_tilde its
    pseudoinverse. metric reads one dataset; exact-min reads the given one
    and its OCTAVES + 1 noise-scaled images."""
    ds = synthesize(8, 8, [300] * 8, noise=0.05, seed=1)
    assert all(c.passed for c in run_suite(suite, ds, seed=1))
    assert means_svd_calls == [(8, 8)] * svds


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
