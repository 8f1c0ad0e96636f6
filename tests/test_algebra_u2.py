import numpy as np
import pytest
from scipy.linalg import expm

from ptdyson import (
    AlgebraElement,
    BASIS_MATRICES,
    DysonParams,
    basis_element,
    commutator,
    conjugate,
    factor_matrix,
    from_matrix,
    group_inverse,
    group_matrix,
    time_term,
    to_matrix,
)

# full bracket table among the four generators; entries are the coefficient
# vectors of the results, structure factors of i included
BRACKET_TABLE = {
    (1, 2): (0.0, 0.0, 0.0, 0.0),
    (1, 3): (0.0, 0.0, 0.0, 1.0j),
    (1, 4): (0.0, 0.0, -1.0j, 0.0),
    (2, 3): (0.0, 0.0, 0.0, -1.0j),
    (2, 4): (0.0, 0.0, 1.0j, 0.0),
    (3, 4): (0.5j, -0.5j, 0.0, 0.0),
}


def random_element(rng, complex_coeffs=False):
    c = rng.normal(size=4)
    if complex_coeffs:
        c = c + 1j * rng.normal(size=4)
    return AlgebraElement(tuple(c))


def test_bracket_table():
    for (i, j), want in BRACKET_TABLE.items():
        got = commutator(basis_element(i), basis_element(j))
        assert np.allclose(got.vector, want, atol=0.0)
        flipped = commutator(basis_element(j), basis_element(i))
        assert np.allclose(flipped.vector, -np.asarray(want), atol=0.0)


def test_bracket_table_in_matrix_image():
    # the same table must hold verbatim for the 2x2 representatives
    for (i, j), want in BRACKET_TABLE.items():
        a, b = BASIS_MATRICES[i - 1], BASIS_MATRICES[j - 1]
        lhs = a @ b - b @ a
        rhs = to_matrix(AlgebraElement(want))
        assert np.max(np.abs(lhs - rhs)) < 1e-15


def test_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_element(rng, complex_coeffs=True)
        b = random_element(rng, complex_coeffs=True)
        c = random_element(rng, complex_coeffs=True)
        assert np.max(np.abs(commutator(a, a).vector)) == 0.0
        jac = (
            commutator(a, commutator(b, c)).vector
            + commutator(b, commutator(c, a)).vector
            + commutator(c, commutator(a, b)).vector
        )
        assert np.max(np.abs(jac)) < 1e-13


def test_matrix_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_element(rng, complex_coeffs=True)
        back = from_matrix(to_matrix(a))
        assert np.max(np.abs(back.vector - a.vector)) < 1e-14
    # stacked coefficients, coefficient axis first
    stacked = AlgebraElement(rng.normal(size=(4, 3, 5)) + 1j * rng.normal(size=(4, 3, 5)))
    m = to_matrix(stacked)
    assert m.shape == (3, 5, 2, 2)
    assert np.max(np.abs(from_matrix(m).vector - stacked.vector)) < 1e-14


def test_first_two_generators_sum_to_identity():
    m = to_matrix(basis_element(1) + basis_element(2))
    assert np.max(np.abs(m - np.eye(2))) == 0.0


def test_mixing_bracket_is_half_difference():
    # [K3, K4] maps to (i/2) diag(1, -1) in the representation
    m = to_matrix(commutator(basis_element(3), basis_element(4)))
    want = 0.5j * np.diag([1.0, -1.0]).astype(complex)
    assert np.max(np.abs(m - want)) < 1e-16


def test_factor_matrix_vs_expm():
    rng = np.random.default_rng(5)
    for i in range(1, 5):
        for gamma in rng.normal(scale=0.8, size=3):
            direct = factor_matrix(i, gamma)
            ref = expm(gamma * BASIS_MATRICES[i - 1])
            assert np.max(np.abs(direct - ref)) < 1e-13


def test_group_matrix_is_ordered_product():
    rng = np.random.default_rng(17)
    for _ in range(8):
        g = rng.normal(scale=0.7, size=4)
        params = DysonParams(*g)
        ref = np.eye(2, dtype=complex)
        for i in range(1, 5):
            ref = ref @ expm(g[i - 1] * BASIS_MATRICES[i - 1])
        assert np.max(np.abs(group_matrix(params) - ref)) < 1e-12
        prod = group_matrix(params) @ group_inverse(params)
        assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def test_conjugate_identity_params():
    rng = np.random.default_rng(23)
    a = random_element(rng, complex_coeffs=True)
    out = conjugate(DysonParams(0.0, 0.0, 0.0, 0.0), a)
    assert np.max(np.abs(out.vector - a.vector)) < 1e-15


def test_conjugate_fixes_central_element():
    # the sum of the first two generators commutes with everything
    central = basis_element(1) + basis_element(2)
    rng = np.random.default_rng(29)
    for _ in range(6):
        params = DysonParams(*rng.normal(scale=0.9, size=4))
        out = conjugate(params, central)
        assert np.max(np.abs(out.vector - central.vector)) < 1e-12


def test_conjugate_preserves_spectrum():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = random_element(rng, complex_coeffs=True)
        params = DysonParams(*rng.normal(scale=0.6, size=4))
        ev_before = np.sort_complex(np.linalg.eigvals(to_matrix(a)))
        ev_after = np.sort_complex(np.linalg.eigvals(to_matrix(conjugate(params, a))))
        assert np.max(np.abs(ev_before - ev_after)) < 1e-12


def test_conjugate_is_bracket_homomorphism():
    rng = np.random.default_rng(37)
    for _ in range(6):
        a = random_element(rng, complex_coeffs=True)
        b = random_element(rng, complex_coeffs=True)
        params = DysonParams(*rng.normal(scale=0.5, size=4))
        lhs = conjugate(params, commutator(a, b)).vector
        rhs = commutator(conjugate(params, a), conjugate(params, b)).vector
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_time_term_zero_rates():
    params = DysonParams(0.1, -0.2, 0.4, 0.3)
    out = time_term(params, np.zeros(4))
    assert np.max(np.abs(out.vector)) == 0.0


def test_time_term_leading_mixing_rate():
    # with the first two angles zero, a pure rate on the third factor
    # contributes i * rate * K3 no matter what the angles are
    params = DysonParams(0.0, 0.0, 0.8, -0.5)
    out = time_term(params, np.array([0.0, 0.0, 0.3, 0.0]))
    assert np.max(np.abs(out.vector - np.array([0, 0, 0.3j, 0]))) < 1e-14


def test_time_term_matches_difference_quotient():
    # compare against etadot eta^-1 built from the matrix product directly
    def angles(t):
        return np.array([0.2 * t, -0.1 * t**2, 0.5 * np.sin(t), 0.3 * np.cos(2 * t)])

    def rates(t):
        return np.array([0.2, -0.2 * t, 0.5 * np.cos(t), -0.6 * np.sin(2 * t)])

    h = 1e-5
    for t in (0.3, 1.1, 2.4):
        plus = group_matrix(DysonParams(*angles(t + h)))
        minus = group_matrix(DysonParams(*angles(t - h)))
        fd = (plus - minus) / (2.0 * h) @ group_inverse(DysonParams(*angles(t)))
        term = time_term(DysonParams(*angles(t)), rates(t))
        # the returned element is i * etadot eta^-1
        assert np.max(np.abs(to_matrix(term) - 1j * fd)) < 1e-9


def test_hermiticity_flag():
    assert AlgebraElement((1.0, 2.0, -0.3, 0.1)).is_hermitian()
    assert not AlgebraElement((1.0, 2.0, -0.3 + 1e-6j, 0.1)).is_hermitian()
