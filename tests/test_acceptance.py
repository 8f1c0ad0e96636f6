"""Acceptance gate: the thirteen numbered validation criteria.

Each criterion gets one pytest line via parametrization, so `pytest -v`
shows a pass/fail verdict per criterion.  The detailed measurement line
(worst residual, tolerance, margin) is printed and attached to the
assertion message, so a red criterion carries its numbers with it.
"""

import copy
import re

import numpy as np
import pytest

from ptdyson import ModeSpec, f_minus_profile, f_plus_profile, k1_expectation
from ptdyson import cli, dyson, fock_oracle, invariants, modes, validation
from ptdyson.algebra_u2 import AlgebraElement, commutator
from ptdyson.dyson import chi_closed_form, first_derivative, gamma_closed_form
from ptdyson.errors import ConstraintViolationError
from ptdyson.invariants import beta_from_evolution, gamma_from_alpha
from ptdyson.static_models import XYModel, broken_spectrum, static_eigenstate

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


# Every subcheck the gate reports: (criterion, name, label, comparator,
# bound as printed).  A moved, added or dropped bound changes this table.
GATE_SCHEMA = [
    (1, "algebra closure", "structure constants", "<", "1.0e-14"),
    (1, "algebra closure", "2x2 image", "<", "1.0e-14"),
    (1, "algebra closure", "number-basis blocks", "<", "1.0e-14"),
    (2, "dyson relation", "2x2 analytic-rate residual", "<", "1.0e-08"),
    (2, "dyson relation", "number-basis FD residual", "<", "1.0e-06"),
    (3, "route equivalence", "first parameter, ODE vs closed form", "<", "1.0e-06"),
    (3, "route equivalence", "second parameter, ODE vs closed form", "<", "1.0e-06"),
    (3, "route equivalence", "observed RK4 order", ">", "3.5e+00"),
    (4, "dissipative scale equation", "closed-form scale residual", "<", "1.0e-07"),
    (4, "dissipative scale equation", "perturbed-scale negative control", ">", "1.0e-04"),
    (5, "invariant conservation", "non-Hermitian-frame residual", "<", "1.0e-07"),
    (5, "invariant conservation", "Hermitian-frame residual", "<", "1.0e-07"),
    (5, "invariant conservation", "number-basis eigenvalue drift", "<", "1.0e-08"),
    (6, "invariant similarity", "mapped invariant vs Hermitian coefficients", "<",
     "1.0e-09"),
    (6, "invariant similarity", "imaginary leakage of the image", "<", "1.0e-12"),
    (6, "invariant similarity", "Hermitian coefficients, evolution vs matching", "<",
     "1.0e-12"),
    (7, "broken spectrum", "number-basis vs closed form (all blocks)", "<", "1.0e-10"),
    (7, "broken spectrum", "closure under conjugation", "<", "1.0e-10"),
    (8, "eigenstate orthonormality", "Gauss-Hermite Gram defect (indices <= 4)", "<",
     "1.0e-08"),
    (9, "mode expectation constancy", "quadrature vs closed constant", "<", "1.0e-07"),
    (10, "schrodinger residual", "1D mode residual", "<", "1.0e-03"),
    (10, "schrodinger residual", "1D halving ratio", "in", "[3.00, 5.00]"),
    (10, "schrodinger residual", "2D product residual", "<", "1.0e-03"),
    (10, "schrodinger residual", "2D halving ratio", "in", "[3.00, 5.00]"),
    (11, "energy reality", "quadrature imaginary part", "<", "1.0e-10"),
    (11, "energy reality", "quadrature vs closed form", "<", "1.0e-05"),
    (11, "energy reality", "number-basis frame equivalence", "<", "1.0e-08"),
    (12, "metric positivity", "closed-form eigenvalue floor, all blocks", ">",
     "0.0e+00"),
    (12, "metric positivity", "observed block minimum (safe blocks)", ">", "0.0e+00"),
    (12, "metric positivity", "observed vs spin-ladder minimum (safe blocks)", "<",
     "1.0e-09"),
    (12, "metric positivity",
     "closed-form floor / spin-ladder minimum (blocks 1..size)", "<", "1.0e+00"),
    (13, "exceptional point", "raises at and beyond the bound", "holds", None),
    (13, "exceptional point", "real frequencies strictly inside", "holds", None),
    (13, "exceptional point", "classical-matrix oracle agreement", "<", "1.0e-12"),
]


def gate_schema(results):
    """GATE_SCHEMA's rows as the results report them, each value left out."""
    rows = []
    for r in results:
        for s in r.subchecks:
            # "value < bound", "value > floor", "value in [lo, hi]", or a
            # bare "yes"/"NO" for a property that holds or not
            match = re.fullmatch(r"\S+ (<|>|in) (.+)", s.detail)
            comparator, bound = match.groups() if match else ("holds", None)
            rows.append((r.number, r.name, s.label, comparator, bound))
    return rows


def test_the_gate_reports_its_pinned_schema(results):
    assert gate_schema(results) == GATE_SCHEMA


def test_the_schema_check_sees_a_moved_bound(monkeypatch):
    bounded = validation.bounded

    def loosened(label, value, bound):
        if label == "Hermitian coefficients, evolution vs matching":
            bound = 10.0 * bound
        return bounded(label, value, bound)

    monkeypatch.setattr(validation, "bounded", loosened)
    want = list(GATE_SCHEMA)
    want[15] = GATE_SCHEMA[15][:4] + ("1.0e-11",)
    assert gate_schema(validation.run_all()) == want


def test_pinned_draws_are_the_seeded_generator_draws():
    # the gate stores these draws so that it loads no generator; they must
    # be the doubles the seeded generator returns, bit for bit
    times = np.random.default_rng(20240817).uniform(0.3, 9.7, size=10)
    assert np.all(np.array(validation._C09_TIMES) == times)
    rng = np.random.default_rng(20240818)
    real, imag = rng.standard_normal(10), rng.standard_normal(10)
    assert np.all(np.array(validation._C11_RAW_REAL) == real)
    assert np.all(np.array(validation._C11_RAW_IMAG) == imag)


# ---------------------------------------------------------------------------
# the mode quadrature of criteria 09 and 11


@pytest.mark.parametrize("n", [0, 1, 3, 10, 30, 60])
def test_mode_quadrature_is_exact_over_the_degree_range(n):
    # n + 2 Gauss-Hermite nodes integrate exp(-y^2) times degree 2n + 2
    # exactly, up to the top degree that modes._hermite_upto takes
    scenario = validation.default_scenario()
    times = np.array(validation._C09_TIMES)
    for profile in (f_plus_profile, f_minus_profile):
        for ktilde in (0.0, 0.5, 2.0):
            spec = ModeSpec(n, profile(scenario), ktilde)
            want = k1_expectation(spec)
            got = validation.mode_k1_quadrature(spec, times)
            assert np.max(np.abs(got - want)) <= 1e-12 * want


def _failing(check, record=validation.REFERENCE_CONFIG):
    return [s.label for s in check(record).subchecks if not s.ok]


def test_mode_checks_fail_on_a_scale_a_millionth_too_large(monkeypatch):
    # the rule stays exact on the wider mode, whose K1 value moves off the
    # closed constant; criterion 11's closed form reads the move at 1.6e-6,
    # below its 1e-5 bound
    scale = modes._scale
    monkeypatch.setattr(
        modes, "_scale", lambda ktilde, a_int: (1.0 + 1e-6) * scale(ktilde, a_int)
    )
    assert _failing(validation.check_mode_expectation_constancy) == [
        "quadrature vs closed constant"
    ]
    assert _failing(validation.check_energy_reality) == []


def test_mode_checks_fail_on_a_width_a_millionth_too_large(monkeypatch):
    # a Gaussian off the rule's scale is no longer integrated exactly, and
    # the rounding-level imaginary part of <K1> grows to 6.7e-7
    time_factors = validation._time_factors

    def wider(spec, t):
        kt, width, amp, norm = time_factors(spec, t)
        return kt, (1.0 + 1e-6) * width.real + 1j * width.imag, amp, norm

    monkeypatch.setattr(validation, "_time_factors", wider)
    assert _failing(validation.check_mode_expectation_constancy) == [
        "quadrature vs closed constant"
    ]
    assert _failing(validation.check_energy_reality) == ["quadrature imaginary part"]


# ---------------------------------------------------------------------------
# mutation controls: a plausible defect in one function, patched where the
# gate looks it up, must fail exactly the listed subchecks of the whole gate


def _flip_k1_k2_of_commutator(monkeypatch):
    def flipped(a, b):
        c1, c2, c3, c4 = commutator(a, b).vector
        return AlgebraElement([-c1, -c2, c3, c4])

    for module in (validation, invariants):
        monkeypatch.setattr(module, "commutator", flipped)


def _negate_g4_from_alpha(monkeypatch):
    def negated(alpha):
        g3, g4 = gamma_from_alpha(alpha)
        return g3, -g4

    monkeypatch.setattr(validation, "gamma_from_alpha", negated)


def _shift_broken_spectrum(monkeypatch):
    def shifted(a, lam, n, m):
        return broken_spectrum(a, lam, n, m) + 0.5 * a

    monkeypatch.setattr(validation, "broken_spectrum", shifted)


def _raise_ep_bound(monkeypatch):
    bound = XYModel.ep_bound
    monkeypatch.setattr(XYModel, "ep_bound", lambda model: (1.0 + 1e-6) * bound(model))


def _scale_closed_form_g4(monkeypatch):
    def scaled(lam, constants, t):
        g3, g4 = gamma_closed_form(lam, constants, t)
        return g3, (1.0 + 1e-6) * g4

    for module in (validation, dyson):
        monkeypatch.setattr(module, "gamma_closed_form", scaled)


def _scale_oracle_rates(monkeypatch):
    monkeypatch.setattr(
        fock_oracle,
        "first_derivative",
        lambda *args: (1.0 + 1e-6) * first_derivative(*args),
    )


def _scale_closed_form_chi(monkeypatch):
    def scaled(lam, constants):
        chi = chi_closed_form(lam, constants)
        return lambda t: (1.0 + 1e-6) * chi(t)

    monkeypatch.setattr(validation, "chi_closed_form", scaled)


def _scale_splitting_primitive(monkeypatch):
    # reaches c8 and the splitting integral, which the matching route
    # never reads
    primitive = dyson.EPConstants._splitting_primitive
    monkeypatch.setattr(
        dyson.EPConstants,
        "_splitting_primitive",
        lambda constants, u: (1.0 + 1e-6) * primitive(constants, u),
    )


def _scale_c8(monkeypatch):
    def scaled(coeffs, lam, t):
        shifted = copy.copy(coeffs)
        object.__setattr__(shifted, "c8", (1.0 + 1e-6) * coeffs.c8)
        return beta_from_evolution(shifted, lam, t)

    monkeypatch.setattr(validation, "beta_from_evolution", scaled)


def _scale_static_eigenstate(monkeypatch):
    monkeypatch.setattr(
        validation,
        "static_eigenstate",
        lambda n, m, x, y: (1.0 + 1e-6) * static_eigenstate(n, m, x, y),
    )


def _scale_mode_phase(monkeypatch, factor=1.0 + 1e-2):
    phase = modes._phase
    monkeypatch.setattr(
        modes, "_phase", lambda ktilde, a_int: factor * phase(ktilde, a_int)
    )


def _scale_metric_floor(monkeypatch, factor=1.01):
    # the floor reads 0.994 of the spin-ladder minimum at its tightest, so
    # 1% more puts it above, at 1.004
    floor = fock_oracle.metric_floor
    monkeypatch.setattr(fock_oracle, "metric_floor", lambda p, k: factor * floor(p, k))


def _plain_line_solver(monkeypatch):
    # each invariant block straight to the general eigensolver, without the
    # exact normal form whose conditioning criterion 05 relies on
    monkeypatch.setattr(
        fock_oracle,
        "_line_eigenvalues",
        lambda v, j_ops, center, k: np.linalg.eigvals(
            center[:, None, None] * np.eye(k + 1) + np.tensordot(v, np.array(j_ops), 1)
        ),
    )


MUTATIONS = {
    "commutator-k1-k2-sign": (
        _flip_k1_k2_of_commutator,
        [(1, "structure constants"), (5, "non-Hermitian-frame residual")],
    ),
    "gamma-from-alpha-negated-g4": (
        _negate_g4_from_alpha,
        [
            (6, "mapped invariant vs Hermitian coefficients"),
            (6, "imaginary leakage of the image"),
        ],
    ),
    "broken-spectrum-plus-half-a": (
        _shift_broken_spectrum,
        [(7, "number-basis vs closed form (all blocks)")],
    ),
    "ep-bound-a-millionth-high": (
        _raise_ep_bound,
        [(13, "raises at and beyond the bound")],
        # at and past the true bound the decoupling's arctanh reaches +-inf or
        # NaN, and numpy warns on it and on the divisions that follow
        pytest.mark.filterwarnings("ignore::RuntimeWarning"),
    ),
    "closed-form-g4-a-millionth-high": (
        _scale_closed_form_g4,
        [(3, "observed RK4 order"), (11, "number-basis frame equivalence")],
    ),
    "oracle-rates-a-millionth-high": (
        _scale_oracle_rates,
        [(2, "number-basis FD residual")],
    ),
    "closed-form-chi-a-millionth-high": (
        _scale_closed_form_chi,
        [(4, "closed-form scale residual")],
    ),
    "splitting-primitive-a-millionth-high": (
        _scale_splitting_primitive,
        [(6, "Hermitian coefficients, evolution vs matching")],
    ),
    "c8-a-millionth-high": (
        _scale_c8,
        [(6, "Hermitian coefficients, evolution vs matching")],
    ),
    "static-eigenstate-a-millionth-high": (
        _scale_static_eigenstate,
        [(8, "Gauss-Hermite Gram defect (indices <= 4)")],
    ),
    "mode-phase-a-hundredth-high": (
        _scale_mode_phase,
        [
            (10, "1D mode residual"),
            (10, "1D halving ratio"),
            (10, "2D product residual"),
            (10, "2D halving ratio"),
        ],
    ),
    "metric-floor-a-hundredth-high": (
        _scale_metric_floor,
        [(12, "closed-form floor / spin-ladder minimum (blocks 1..size)")],
    ),
    "line-eigenvalues-plain-solver": (
        _plain_line_solver,
        [(5, "number-basis eigenvalue drift")],
    ),
}


@pytest.mark.parametrize(
    "mutate, failing",
    [pytest.param(*row[:2], marks=row[2:], id=name) for name, row in MUTATIONS.items()],
)
def test_gate_fails_exactly_where_a_mutation_lands(monkeypatch, mutate, failing):
    mutate(monkeypatch)
    results = validation.run_all()
    for r in results:
        print(r.line())
    got = [(r.number, s.label) for r in results for s in r.subchecks if not s.ok]
    assert got == failing


# where a criterion cannot see a defect: the controls below stay green


def test_criterion_08_passes_an_index_swap(monkeypatch):
    # a permutation of an orthonormal set is orthonormal
    monkeypatch.setattr(
        validation,
        "static_eigenstate",
        lambda n, m, x, y: static_eigenstate(m, n, x, y),
    )
    assert _failing(validation.check_eigenstate_orthonormality) == []


def test_criterion_10_passes_a_phase_ten_thousandth_high(monkeypatch):
    # criterion 10 catches a phase defect only between 1e-4 and 1e-2
    _scale_mode_phase(monkeypatch, factor=1.0 + 1e-4)
    assert _failing(validation.check_schrodinger_residual) == []


def test_criterion_07_reads_every_block_of_the_record(record):
    # the blocks come from the record's basis size, whatever it is
    record["oracle"]["size"] = 6
    result = validation.check_broken_spectrum(record)
    assert result.passed, result.line()


def test_the_gate_reads_its_scenarios_q1(record):
    # q1 shifts every block of the map by exp(q1 k): criterion 12's block
    # minimum moves with it, and every criterion still passes
    record["scenario"]["q1"] = 0.7
    results = validation.run_all(record)
    assert [r.number for r in results if not r.passed] == []
    line = results[11].line()
    assert "observed block minimum (safe blocks): 3.480e-14" in line, line


def test_the_gate_leaves_its_pinned_record_unchanged(record):
    # cli.DEFAULT_CONFIG holds the record's sections, so it is pinned too
    pinned = copy.deepcopy(validation.REFERENCE_CONFIG)
    validation.run_all()
    record["scenario"]["q1"] = 0.7
    validation.run_all(record)
    assert validation.REFERENCE_CONFIG == pinned
    assert {key: cli.DEFAULT_CONFIG[key] for key in pinned} == pinned


def test_the_gate_passes_a_record_with_q3_zero(record):
    # g4 vanishes, and the floor of criterion 12 equals the spin-ladder
    # minimum up to rounding, which its comparison allows
    record["scenario"]["q3"] = 0.0
    results = validation.run_all(record)
    assert [r.number for r in results if not r.passed] == []


def test_criterion_12_sees_a_floor_a_billionth_high_at_q3_zero(monkeypatch, record):
    record["scenario"]["q3"] = 0.0
    _scale_metric_floor(monkeypatch, factor=1.0 + 1e-9)
    results = validation.run_all(record)
    got = [(r.number, s.label) for r in results for s in r.subchecks if not s.ok]
    assert got == [(12, "closed-form floor / spin-ladder minimum (blocks 1..size)")]


def test_criterion_07_checks_the_records_partially_broken_model(monkeypatch, record):
    record["static"]["k"].update(a=1.0, b=2.0, lam=3.0)
    result = validation.check_broken_spectrum(record)
    assert result.passed, result.line()
    # the a = b model's levels, which ignore b, do not pass for this record
    numeric = fock_oracle.broken_spectrum_numeric
    monkeypatch.setattr(
        validation,
        "broken_spectrum_numeric",
        lambda a, b, lam, basis: numeric(a, a, lam, basis),
    )
    assert _failing(validation.check_broken_spectrum, record) == [
        "number-basis vs closed form (all blocks)"
    ]


def test_criterion_07_refuses_a_record_outside_the_broken_regime(record):
    record["static"]["k"].update(a=1.0, b=2.0, lam=0.5)
    with pytest.raises(ConstraintViolationError, match=r"^static\.k "):
        validation.check_broken_spectrum(record)


@pytest.mark.parametrize("factor", [1.01, 1.1])
def test_criterion_13_holds_below_a_lowered_bound(record, factor):
    # raising omega_x lowers the exceptional-point bound below the
    # couplings 0.9 and 0.99; the check scales its couplings to the bound
    record["static"]["xy"]["omega_x"] *= factor
    result = validation.check_exceptional_point(record)
    assert result.passed, result.line()


# Fields of the record no criterion reads, and why
UNREAD_FIELDS = {
    "static.xy.coupling": "criterion 13 sets its own couplings from the bound",
    "static.xy.n_max": "a table size of `ptdyson spectrum` only",
    "static.xy.m_max": "a table size of `ptdyson spectrum` only",
    "static.k.n_max": "a table size of `ptdyson spectrum` only",
}


def _numeric_fields(record, path=""):
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _numeric_fields(value, f"{path}{key}.")
        elif not isinstance(value, str):
            yield f"{path}{key}"


RECORD_FIELDS = list(_numeric_fields(validation.REFERENCE_CONFIG))
# the one perturbation that is not a single field
SWAPPED_XY = "static.xy.omega_x<->omega_y"

# Subchecks a perturbed record fails, as (criterion, label); every other
# perturbation passes the whole gate.  A longer grid lets the image's
# imaginary leakage reach 1.046e-12 against its 1e-12 bound: rounding noise
# (ROADMAP.md, open item on that reading), and the bound stays where it is.
FAILING = {"grid.t_end": [(6, "imaginary leakage of the image")]}


def test_the_record_has_31_numeric_fields():
    assert len(RECORD_FIELDS) == 31
    assert set(UNREAD_FIELDS) <= set(RECORD_FIELDS)


def _perturb(record, path):
    """Move one field of the record (an int by 1, a float by 10%), or swap
    the two XY frequencies."""
    if path == SWAPPED_XY:
        xy = record["static"]["xy"]
        xy["omega_x"], xy["omega_y"] = xy["omega_y"], xy["omega_x"]
        return
    *parents, key = path.split(".")
    section = record
    for name in parents:
        section = section[name]
    value = section[key]
    if isinstance(value, int):
        section[key] = value + 1
    else:
        section[key] = 1.1 * value if value else 0.1


@pytest.mark.parametrize("path", RECORD_FIELDS + [SWAPPED_XY])
def test_every_field_of_the_record_moves_the_gate(record, results, path):
    _perturb(record, path)
    perturbed = validation.run_all(record)
    report = validation.format_report(perturbed)
    unchanged = report == validation.format_report(results)
    assert unchanged == (path in UNREAD_FIELDS), report
    failing = [(r.number, s.label) for r in perturbed for s in r.subchecks if not s.ok]
    assert failing == FAILING.get(path, []), report
