import pytest

from shallowmin import synthesize
from shallowmin.errors import WrongRegime
from shallowmin.verify import (
    OCTAVES,
    PropertyCheck,
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
    assert all(c.passed for c in suite_bounds(ds))


def test_bounds_suite_at_zero_noise_checks_the_zero_cost():
    checks = suite_bounds(synthesize(4, 2, [8, 8], noise=0.0, seed=1))
    assert len(checks) == 7 and all(c.passed for c in checks)
    assert "bounds.zero-noise-cost" in {c.name for c in checks}


def test_bounds_suite_forwards_three_passes_and_the_means(forward_calls):
    """Two training passes, one full forward for the hidden-layer identity and
    the Q class means; the two costs read the training passes' records."""
    ds = synthesize(6, 3, [5, 5, 5], noise=0.1, seed=2)
    suite_bounds(ds)
    assert sum(forward_calls) == 3 * ds.n + ds.q


def test_invariance_suite_solves_once_per_dataset(exact_calls):
    """One exact_minimum per dataset, the given one and its 20 images K X0:
    one relative-deviations pass each; the Gram is solved by that call and by
    the data-projector probe."""
    ds = synthesize(8, 8, [12] * 8, noise=0.05, seed=1)
    checks = suite_invariance(ds, seed=1)
    assert all(c.passed for c in checks)
    assert exact_calls == {"relative_deviations": 21, "_gram": 42, "closed_form_min": 21}


def test_exact_min_suite_solves_once_per_dataset(exact_calls):
    """The given dataset is solved once by train_exact_meq and once by the
    suite; each of the OCTAVES + 1 noise-scaled datasets once. Every solve is
    one relative-deviations pass, one Gram solve and one closed form, which
    its projector route cross-checks."""
    ds = synthesize(4, 4, [10] * 4, noise=0.05, seed=3)
    checks = suite_exact_min(ds)
    assert all(c.passed for c in checks)
    solves = 2 + OCTAVES + 1
    assert exact_calls == {"relative_deviations": solves, "_gram": solves,
                           "closed_form_min": solves}


def test_degeneracy_suite_solves_twice(exact_calls):
    """train_exact_meq's solve and the suite's, whose w2 every re-solve reuses."""
    ds = synthesize(3, 3, [10] * 3, noise=0.05, seed=3)
    assert all(c.passed for c in suite_degeneracy(ds, seed=1))
    assert exact_calls == {"relative_deviations": 2, "_gram": 2, "closed_form_min": 2}


def test_exact_min_suite_rejects_rectangular():
    ds = synthesize(5, 3, [4, 4, 4], noise=0.05, seed=0)
    with pytest.raises(WrongRegime):
        suite_exact_min(ds)


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
        return [PropertyCheck(name="fake.broken", passed=False,
                              measured=1.0, tolerance=0.1)]

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code = cli.main(["verify", "bounds", "--m", "2", "--q", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert "[FAIL] fake.broken" in captured.out
    assert "first failing property: fake.broken" in captured.err
