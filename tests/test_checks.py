import pytest

from shallowmin.checks import Check, check, require
from shallowmin.errors import ConsistencyError, NotPositiveSemidefinite


def test_measured_at_the_tolerance_passes():
    c = check("x.at-tol", 1e-9, 1e-9, "detail")
    assert c == Check("x.at-tol", True, 1e-9, 1e-9, "detail")
    assert require(c, ConsistencyError, "not raised") is c


@pytest.mark.parametrize("error", [ConsistencyError, NotPositiveSemidefinite])
def test_nan_fails_and_raises_the_given_error(error):
    c = check("x.nan", float("nan"), 1.0)
    assert not c.passed
    with pytest.raises(error, match="^the given message$"):
        require(c, error, "the given message")

