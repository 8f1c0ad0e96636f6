import numpy as np
import pytest
from scipy.linalg import expm

from ptdyson import (
    AlgebraElement,
    BASIS_MATRICES,
    basis_element,
    commutator,
    conjugate,
    group_matrix,
    time_term,
    to_matrix,
)
from ptdyson.algebra_u2 import _element, _image, _last, _product


def group_inverse(params):
    # eta^{-1} from the reversed negated factors, no matrix inverse
    return _last(_product(-params, (4, 3, 2, 1)))


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
    # the entry-first image and its decoding, the pair conjugate and
    # time_term go through
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_element(rng, complex_coeffs=True)
        back = _element(_image(a.vector))
        assert np.max(np.abs(back.vector - a.vector)) < 1e-14
    # stacked coefficients, coefficient axis first
    stacked = AlgebraElement(rng.normal(size=(4, 3, 5)) + 1j * rng.normal(size=(4, 3, 5)))
    assert to_matrix(stacked).shape == (3, 5, 2, 2)
    e = _image(stacked.vector)
    assert e.shape == (2, 2, 3, 5)
    assert np.max(np.abs(_element(e).vector - stacked.vector)) < 1e-14


def test_first_two_generators_sum_to_identity():
    m = to_matrix(basis_element(1) + basis_element(2))
    assert np.max(np.abs(m - np.eye(2))) == 0.0


def test_mixing_bracket_is_half_difference():
    # [K3, K4] maps to (i/2) diag(1, -1) in the representation
    m = to_matrix(commutator(basis_element(3), basis_element(4)))
    want = 0.5j * np.diag([1.0, -1.0]).astype(complex)
    assert np.max(np.abs(m - want)) < 1e-16


def test_factor_matrix_vs_expm():
    # one nonzero parameter: the ordered product is that single factor
    rng = np.random.default_rng(5)
    for i in range(1, 5):
        for gamma in rng.normal(scale=0.8, size=3):
            g = np.zeros(4)
            g[i - 1] = gamma
            direct = group_matrix(g)
            ref = expm(gamma * BASIS_MATRICES[i - 1])
            assert np.max(np.abs(direct - ref)) < 1e-13


def test_group_matrix_is_ordered_product():
    rng = np.random.default_rng(17)
    for _ in range(8):
        g = rng.normal(scale=0.7, size=4)
        params = g
        ref = np.eye(2, dtype=complex)
        for i in range(1, 5):
            ref = ref @ expm(g[i - 1] * BASIS_MATRICES[i - 1])
        assert np.max(np.abs(group_matrix(params) - ref)) < 1e-12
        prod = group_matrix(params) @ group_inverse(params)
        assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def test_conjugate_identity_params():
    rng = np.random.default_rng(23)
    a = random_element(rng, complex_coeffs=True)
    out = conjugate(np.zeros(4), a)
    assert np.max(np.abs(out.vector - a.vector)) < 1e-15


def test_conjugate_fixes_central_element():
    # the sum of the first two generators commutes with everything
    central = basis_element(1) + basis_element(2)
    rng = np.random.default_rng(29)
    for _ in range(6):
        params = rng.normal(scale=0.9, size=4)
        out = conjugate(params, central)
        assert np.max(np.abs(out.vector - central.vector)) < 1e-12


def test_conjugate_preserves_spectrum():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = random_element(rng, complex_coeffs=True)
        params = rng.normal(scale=0.6, size=4)
        ev_before = np.sort_complex(np.linalg.eigvals(to_matrix(a)))
        ev_after = np.sort_complex(np.linalg.eigvals(to_matrix(conjugate(params, a))))
        assert np.max(np.abs(ev_before - ev_after)) < 1e-12


def test_conjugate_is_bracket_homomorphism():
    rng = np.random.default_rng(37)
    for _ in range(6):
        a = random_element(rng, complex_coeffs=True)
        b = random_element(rng, complex_coeffs=True)
        params = rng.normal(scale=0.5, size=4)
        lhs = conjugate(params, commutator(a, b)).vector
        rhs = commutator(conjugate(params, a), conjugate(params, b)).vector
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_time_term_zero_rates():
    params = np.array([0.1, -0.2, 0.4, 0.3])
    out = time_term(params, np.zeros(4))
    assert np.max(np.abs(out.vector)) == 0.0


def test_time_term_leading_mixing_rate():
    # with the first two angles zero, a pure rate on the third factor
    # contributes i * rate * K3 no matter what the angles are
    params = np.array([0.0, 0.0, 0.8, -0.5])
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
        plus = group_matrix(angles(t + h))
        minus = group_matrix(angles(t - h))
        fd = (plus - minus) / (2.0 * h) @ group_inverse(angles(t))
        term = time_term(angles(t), rates(t))
        # the returned element is i * etadot eta^-1
        assert np.max(np.abs(to_matrix(term) - 1j * fd)) < 1e-9


def test_vector_is_read_only_and_built_once():
    a = AlgebraElement((1.0, 2.0, -0.3, 0.1))
    assert a.vector is a.vector
    assert a.vector.dtype == complex and a.vector.shape == (4,)
    with pytest.raises(ValueError):
        a.vector[0] = 5.0
    # the element owns its array: the caller's input stays writable and apart
    c = np.array([[1.0, 2.0], [0.5, 0.5], [0.0, 0.1], [0.2, 0.3]])
    b = AlgebraElement(c)
    assert not np.shares_memory(b.vector, c) and c.flags.writeable
    with pytest.raises(ValueError):
        b.vector[:, 1] *= 2.0


def _expm_reference(g):
    """The four factors, eta and eta^{-1} per sample from scipy expm and @."""
    factors, eta, eta_inv = [], [], []
    for k in range(g.shape[1]):
        f = [expm(g[i, k] * BASIS_MATRICES[i]) for i in range(4)]
        f_inv = [expm(-g[i, k] * BASIS_MATRICES[i]) for i in range(4)]
        factors.append(f)
        eta.append(f[0] @ f[1] @ f[2] @ f[3])
        eta_inv.append(f_inv[3] @ f_inv[2] @ f_inv[1] @ f_inv[0])
    return factors, np.array(eta), np.array(eta_inv)


def _etadot_reference(factors, gdot):
    """Product rule over the ordered factors: sum_i gdot_i F1..(K_i F_i)..F4."""
    out = []
    for k, f in enumerate(factors):
        total = np.zeros((2, 2), dtype=complex)
        for i in range(4):
            left, right = np.eye(2), np.eye(2)
            for j in range(i):
                left = left @ f[j]
            for j in range(i, 4):
                right = right @ f[j]
            total += gdot[i, k] * left @ BASIS_MATRICES[i] @ right
        out.append(total)
    return np.array(out)


def _scale(m):
    return np.linalg.norm(m, axis=(-2, -1))


@pytest.mark.parametrize("layout", ["scalar", "stacked", "broadcast"])
def test_group_helpers_match_expm_products(layout):
    # |gamma| up to 8: eta and its inverse reach entries of e^8 ~ 3e3, so
    # each error is read against ||eta|| ||a|| ||eta^-1||; the bound is
    # scipy's, whose expm of one mixing factor is off by up to ~1e-14
    # relative at these angles (the closed forms are within an ulp)
    rng = np.random.default_rng(61)
    count = 1 if layout == "scalar" else 40
    g = rng.uniform(-8.0, 8.0, size=(4, count))
    if layout == "broadcast":
        g[1] = g[0] = g[0, 0]
        params = np.array(np.broadcast_arrays(g[0, 0], g[1, 0], g[2], g[3]))
    elif layout == "scalar":
        params = g[:, 0]
    else:
        params = g
    c = rng.normal(size=(4, count)) + 1j * rng.normal(size=(4, count))
    gdot = rng.normal(size=(4, count))
    if layout == "scalar":
        a, rates = AlgebraElement(c[:, 0]), gdot[:, 0]
    else:
        a, rates = AlgebraElement(c), gdot

    factors, eta, eta_inv = _expm_reference(g)
    image = np.array([to_matrix(AlgebraElement(c[:, k])) for k in range(count)])
    want_conj = eta @ image @ eta_inv
    want_term = 1j * _etadot_reference(factors, gdot) @ eta_inv

    got_eta, got_inv = group_matrix(params), group_inverse(params)
    got_conj, got_term = conjugate(params, a).vector, time_term(params, rates).vector
    if layout == "scalar":
        assert got_eta.shape == got_inv.shape == (2, 2)
        assert got_conj.shape == got_term.shape == (4,)
    else:
        assert got_eta.shape == got_inv.shape == (count, 2, 2)
        assert got_conj.shape == got_term.shape == (4, count)
    cond = _scale(eta) * _scale(eta_inv)
    conj_m, term_m = to_matrix(AlgebraElement(got_conj)), to_matrix(AlgebraElement(got_term))
    got = {
        "eta": (got_eta, eta, _scale(eta)),
        "inverse": (got_inv, eta_inv, _scale(eta_inv)),
        "conjugate": (conj_m, want_conj, cond * _scale(image)),
        "time term": (term_m, want_term, cond * np.linalg.norm(gdot, axis=0)),
    }
    for name, (value, want, scale) in got.items():
        err = _scale(np.reshape(value, want.shape) - want) / scale
        assert np.max(err) < 1e-13, name


def test_stacked_group_helpers_equal_per_sample_calls_bit_for_bit():
    # the layer is entry-wise, so stacking changes no rounding
    rng = np.random.default_rng(67)
    count = 37
    g = rng.uniform(-8.0, 8.0, size=(4, count))
    c = rng.normal(size=(4, count)) + 1j * rng.normal(size=(4, count))
    gdot = rng.normal(size=(4, count))
    for params, one in (
        (g, lambda k: g[:, k]),
        (
            np.array(np.broadcast_arrays(0.4, 0.4, g[2], g[3])),
            lambda k: np.array([0.4, 0.4, g[2, k], g[3, k]]),
        ),
    ):
        eta, inv = group_matrix(params), group_inverse(params)
        image = conjugate(params, AlgebraElement(c)).vector
        term = time_term(params, gdot).vector
        for k in range(count):
            assert (eta[k] == group_matrix(one(k))).all()
            assert (inv[k] == group_inverse(one(k))).all()
            want = conjugate(one(k), AlgebraElement(c[:, k])).vector
            assert (image[:, k] == want).all()
            assert (term[:, k] == time_term(one(k), gdot[:, k]).vector).all()


def test_scalar_params_broadcast_against_stacked_coefficients():
    rng = np.random.default_rng(71)
    params = rng.normal(size=4)
    c = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    gdot = rng.normal(size=(4, 6))
    image = conjugate(params, AlgebraElement(c)).vector
    term = time_term(params, gdot).vector
    assert image.shape == term.shape == (4, 6)
    for k in range(6):
        assert (image[:, k] == conjugate(params, AlgebraElement(c[:, k])).vector).all()
        assert (term[:, k] == time_term(params, gdot[:, k]).vector).all()
