import math

import numpy as np
import pytest

from ptdyson import (
    BrokenRegime,
    KModel,
    XYModel,
    broken_spectrum,
    decouple_K,
    decouple_xy,
    hermite,
    spectrum_xy,
    static_eigenstate,
    to_matrix,
)
from ptdyson.errors import (
    ConstraintViolationError,
    ExceptionalPointError,
    UnsupportedDegreeError,
)


def test_xy_model_guards():
    with pytest.raises(ConstraintViolationError, match=r"^m must be > 0"):
        XYModel(m=0.0, omega_x=1.0, omega_y=2.0, coupling=0.1)
    with pytest.raises(ConstraintViolationError, match=r"^omega_y must be > 0"):
        XYModel(m=1.0, omega_x=1.0, omega_y=0.0, coupling=0.1)


def test_decoupling_without_coupling():
    theta, ox, oy = decouple_xy(XYModel(1.0, 1.0, np.sqrt(3.0), 0.0))
    assert theta == 0.0
    assert ox == 1.0
    assert abs(oy - np.sqrt(3.0)) < 1e-15


def test_decoupling_sum_rule_and_oracle():
    # the rotated frequencies must reproduce the eigenvalues of the
    # classical coefficient matrix [[m Ox^2, i k], [i k, m Oy^2]] / m
    model = XYModel(1.3, 1.0, np.sqrt(3.0), 0.5)
    theta, ox, oy = decouple_xy(model)
    assert abs(ox**2 + oy**2 - (model.omega_x**2 + model.omega_y**2)) < 1e-12
    mat = np.array(
        [
            [model.m * model.omega_x**2, 1j * model.coupling],
            [1j * model.coupling, model.m * model.omega_y**2],
        ]
    )
    ev = np.sort(np.linalg.eigvals(mat).real) / model.m
    assert np.max(np.abs(np.sort([ox**2, oy**2]) - ev)) < 1e-12
    assert abs(np.tanh(2 * theta) - 2 * model.coupling
               / (model.m * (model.omega_y**2 - model.omega_x**2))) < 1e-14


def test_decoupling_fails_at_the_bound():
    model = XYModel(1.0, 1.0, np.sqrt(3.0), 0.0)
    bound = model.ep_bound()
    assert abs(bound - 1.0) < 1e-15
    for coupling in (bound, -bound, bound * (1 + 1e-12), 2 * bound):
        bad = XYModel(1.0, 1.0, np.sqrt(3.0), coupling)
        with pytest.raises(ExceptionalPointError) as err:
            decouple_xy(bad)
        assert err.value.bound == bound
    # equal frequencies break for any nonzero coupling
    with pytest.raises(ExceptionalPointError):
        decouple_xy(XYModel(1.0, 1.0, 1.0, 0.1))


def test_spectrum_listing():
    levels = spectrum_xy(1.0, 1.0, 0, 0)
    assert levels == [(1.0, 0, 0)]
    levels = spectrum_xy(1.0, 2.0, 2, 2)
    assert levels[0] == (1.5, 0, 0)
    assert (2.5, 1, 0) in levels
    energies = [e for e, _, _ in levels]
    assert energies == sorted(energies)
    with pytest.raises(ConstraintViolationError):
        spectrum_xy(-1.0, 2.0, 1, 1)


def test_k_model_decoupling():
    theta, h = decouple_K(KModel(a=1.0, b=1.0, lam=0.0))
    assert theta == 0.0
    assert np.max(np.abs(h.vector - np.array([1.0, 1.0, 0, 0]))) == 0.0

    theta, h = decouple_K(KModel(a=1.0, b=3.0, lam=1.0))
    assert abs(theta - np.arctanh(0.5)) < 1e-15
    split = 0.5 * np.sqrt(3.0)
    assert abs(h.vector[0] - (2.0 + split)) < 1e-14
    assert abs(h.vector[1] - (2.0 - split)) < 1e-14
    assert (h.vector.imag == 0).all()


def test_k_model_decoupling_preserves_spectrum():
    # similarity transforms preserve the 2x2 image spectrum
    model = KModel(a=1.0, b=3.0, lam=1.0)
    theta, h = decouple_K(model)
    start = np.array([[model.a, 0.5j * model.lam], [0.5j * model.lam, model.b]])
    ev_start = np.sort_complex(np.linalg.eigvals(start))
    ev_h = np.sort_complex(np.linalg.eigvals(to_matrix(h)))
    assert np.max(np.abs(ev_start - ev_h)) < 1e-14


def test_k_model_broken_regimes():
    fully = decouple_K(KModel(a=1.0, b=1.0, lam=0.4))
    assert isinstance(fully, BrokenRegime) and fully.complete
    partially = decouple_K(KModel(a=1.0, b=1.5, lam=0.8))
    assert isinstance(partially, BrokenRegime) and not partially.complete
    boundary = decouple_K(KModel(a=1.0, b=1.5, lam=0.5))
    assert isinstance(boundary, BrokenRegime)


def test_broken_spectrum_values():
    assert broken_spectrum(1.0, 0.4, 0, 0) == 1.0 + 0.0j
    assert broken_spectrum(1.0, 0.4, 1, 0) == 2.0 + 0.2j
    rng = np.random.default_rng(43)
    for _ in range(10):
        n, m = rng.integers(0, 8, size=2)
        a, lam = rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0)
        e = broken_spectrum(a, lam, int(n), int(m))
        assert e == np.conj(broken_spectrum(a, lam, int(m), int(n)))
        assert (e.imag == 0.0) == (n == m)
    with pytest.raises(ConstraintViolationError):
        broken_spectrum(1.0, 0.4, -1, 0)


def test_eigenstate_ground_level():
    xs = np.linspace(-2.0, 2.0, 9)
    ys = np.linspace(-2.0, 2.0, 9)
    x_grid, y_grid = np.meshgrid(xs, ys, indexing="ij")
    got = static_eigenstate(0, 0, x_grid, y_grid)
    want = np.exp(-0.5 * (x_grid**2 + y_grid**2)) / np.sqrt(np.pi)
    assert np.max(np.abs(got - want)) < 1e-15


def test_eigenstate_equals_the_per_degree_hermite_sums_bit_for_bit():
    # one Hermite table per axis gives the numbers of one recurrence per
    # degree, on the 24-node grid of the orthonormality criterion
    nodes = np.polynomial.hermite.hermgauss(24)[0]
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    for n in range(5):
        for m in range(5):
            first = sum(
                math.comb(n, k) * hermite(k, x) * hermite(n - k, y)
                for k in range(n + 1)
            )
            second = sum(
                (-1) ** l * math.comb(m, l) * hermite(l, y) * hermite(m - l, x)
                for l in range(m + 1)
            )
            norm = 2.0 ** (n + m) * math.sqrt(
                math.factorial(n) * math.factorial(m) * math.pi
            )
            want = np.exp(-0.5 * (x**2 + y**2)) * first * second / norm
            assert np.array_equal(static_eigenstate(n, m, x, y), want)


def test_eigenstate_rotated_argument_identities():
    # both factor sums collapse to single Hermite polynomials in the
    # rotated coordinates
    rng = np.random.default_rng(47)
    xs = rng.uniform(-2.0, 2.0, size=15)
    ys = rng.uniform(-2.0, 2.0, size=15)
    for n, m in ((1, 0), (2, 1), (3, 3), (4, 2)):
        first = sum(
            math.comb(n, k) * hermite(k, xs) * hermite(n - k, ys)
            for k in range(n + 1)
        )
        want_first = 2.0 ** (n / 2.0) * hermite(n, (xs + ys) / np.sqrt(2.0))
        assert np.max(np.abs(first - want_first)) < 1e-9 * np.max(np.abs(want_first))
        second = sum(
            (-1) ** l * math.comb(m, l) * hermite(l, ys) * hermite(m - l, xs)
            for l in range(m + 1)
        )
        want_second = 2.0 ** (m / 2.0) * hermite(m, (xs - ys) / np.sqrt(2.0))
        if m == 0:
            assert np.max(np.abs(second - 1.0)) == 0.0
        else:
            assert np.max(np.abs(second - want_second)) < 1e-9 * np.max(
                np.abs(want_second)
            )


def test_eigenstate_orthogonality():
    nodes, weights = np.polynomial.hermite.hermgauss(32)
    x_grid, y_grid = np.meshgrid(nodes, nodes, indexing="ij")
    # strip the Gaussian weight that hermgauss already accounts for
    plane = np.exp(0.5 * (x_grid**2 + y_grid**2))
    pairs = [((1, 0), (0, 1)), ((2, 0), (1, 1)), ((1, 0), (1, 0))]
    for (n1, m1), (n2, m2) in pairs:
        f = static_eigenstate(n1, m1, x_grid, y_grid) * plane
        g = static_eigenstate(n2, m2, x_grid, y_grid) * plane
        val = np.einsum("i,j,ij->", weights, weights, f * g)
        want = 1.0 if (n1, m1) == (n2, m2) else 0.0
        assert abs(val - want) < 1e-10


def test_eigenstate_solves_model():
    # apply a K1 + a K2 + i lam K3 by finite differences and compare with
    # the broken-regime eigenvalue, pointwise where the state is not tiny
    a_val, lam_val = 1.0, 0.4
    n, m = 1, 0
    energy = broken_spectrum(a_val, lam_val, n, m)
    h = 1e-3
    pts = [(-0.9, 0.4), (0.3, 0.7), (1.1, -0.5), (-0.2, -1.3)]
    for x0, y0 in pts:
        phi = lambda dx, dy: static_eigenstate(n, m, x0 + dx, y0 + dy)
        val = phi(0.0, 0.0)
        lap = (
            phi(h, 0.0) + phi(-h, 0.0) + phi(0.0, h) + phi(0.0, -h) - 4.0 * val
        ) / h**2
        cross = (
            phi(h, h) - phi(h, -h) - phi(-h, h) + phi(-h, -h)
        ) / (4.0 * h**2)
        # K1 + K2 = (-lap + r^2)/2, K3 = (x y - d2/dxdy)/2
        applied = a_val * 0.5 * (-lap + (x0**2 + y0**2) * val) + 0.5j * lam_val * (
            x0 * y0 * val - cross
        )
        assert abs(applied - energy * val) < 1e-5 * abs(val)


def test_eigenstate_mirror_symmetry():
    xs = np.linspace(-2.0, 2.0, 9)
    ys = np.linspace(-2.0, 2.0, 9)
    x_grid, y_grid = np.meshgrid(xs, ys, indexing="ij")
    for n, m in ((2, 1), (0, 3), (2, 2)):
        lhs = static_eigenstate(n, m, x_grid, -y_grid)
        rhs = static_eigenstate(m, n, x_grid, y_grid)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_eigenstate_degree_guards():
    with pytest.raises(UnsupportedDegreeError):
        static_eigenstate(21, 0, 0.5, 0.5)
    with pytest.raises(UnsupportedDegreeError):
        static_eigenstate(0, -1, 0.5, 0.5)
