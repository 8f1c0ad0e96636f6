"""Acceptance gate: the thirteen numbered validation criteria.

Each criterion gets one pytest line via parametrization, so `pytest -v`
shows a pass/fail verdict per criterion.  The detailed measurement line
(worst residual, tolerance, margin) is printed and attached to the
assertion message, so a red criterion carries its numbers with it.
"""

import numpy as np
import pytest

from ptdyson import validation

CRITERIA = [
    (i + 1, fn.__name__.removeprefix("check_"))
    for i, fn in enumerate(validation._CHECKS)
]


@pytest.fixture(scope="module")
def results():
    return validation.run_all()


def test_suite_shape(results):
    assert len(results) == 13
    assert [r.number for r in results] == list(range(1, 14))


@pytest.mark.parametrize(
    "number, name",
    CRITERIA,
    ids=[f"{n:02d}-{s}" for n, s in CRITERIA],
)
def test_criterion(results, number, name):
    res = results[number - 1]
    assert res.number == number
    print(res.line())
    assert res.passed, res.line()


def test_full_report(results):
    report = validation.format_report(results)
    print(report)
    assert "overall PASS: 13/13 criteria passed" in report


def test_pinned_draws_are_the_seeded_generator_draws():
    # the gate stores these draws so that it loads no generator; they must
    # be the doubles the seeded generator returns, bit for bit
    times = np.random.default_rng(20240817).uniform(0.3, 9.7, size=10)
    assert np.all(np.array(validation._C09_TIMES) == times)
    rng = np.random.default_rng(20240818)
    real, imag = rng.standard_normal(10), rng.standard_normal(10)
    assert np.all(np.array(validation._C11_RAW_REAL) == real)
    assert np.all(np.array(validation._C11_RAW_IMAG) == imag)
