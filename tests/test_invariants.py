import numpy as np
import pytest
from scipy.integrate import quad

from ptdyson import (
    AlgebraElement,
    EPConstants,
    TimeProfile,
    alpha_coeffs,
    basis_element,
    beta_from_evolution,
    beta_from_match,
    conservation_residual,
    gamma_closed_form,
    gamma_from_alpha,
    hermitian_counterpart,
    invariant_coeffs_for,
    nonhermitian_hamiltonian,
    scenario_params,
    similarity_residual,
)
from ptdyson.errors import ConstraintViolationError

LAM = TimeProfile.sinusoid(0.5, 0.3, 1.0)


def default_coeffs():
    return invariant_coeffs_for(1.0, 0.4)


def test_constructor_constraints():
    # the matching constraints hold by construction; what is left to refuse
    # is a zero Re c3 (below) and a map trajectory outside |q3| < 1, for
    # either sign of Re c3
    for q3 in (1.0, -1.0, 1.5):
        for c3_real in (0.8, -0.8):
            with pytest.raises(ConstraintViolationError, match="^q3 must satisfy"):
                invariant_coeffs_for(1.0, q3, c3_real=c3_real)


def test_the_family_keeps_the_scenario_trajectory_bit_for_bit(workloads):
    for seed in range(200):
        cfg = workloads.make_config("evolve-long", seed, "smoke")
        q2, q3 = cfg["scenario"]["q2"], cfg["scenario"]["q3"]
        got = invariant_coeffs_for(q2, q3, **cfg["invariant"]).ep_constants()
        assert got == EPConstants(q2, q3), seed


def test_matched_family_for_default_scenario():
    # the family is its five numbers, each stored as a float
    ints = invariant_coeffs_for(1, 0, c1=1, c2_real=2, c3_real=3)
    fields = (ints.q2, ints.q3, ints.c1, ints.c2_real, ints.c3_real)
    assert fields == (1.0, 0.0, 1.0, 2.0, 3.0)
    assert all(type(value) is float for value in fields)
    c = default_coeffs()
    assert c.c1 == 1.0 + 0.0j
    assert abs(c.c2 - (0.5 - 0.64j)) < 1e-15
    assert abs(c.c3 - (0.8 + 0.1j)) < 1e-15
    assert c.c4 == 1.0 + 0.0j
    ep = c.ep_constants()
    assert abs(ep.q2 - 1.0) < 1e-15
    assert abs(ep.q3 - 0.4) < 1e-15


def test_matched_family_refuses_a_zero_real_c3():
    # Im c3 divides by Re c3; the refusal comes before the division
    with pytest.raises(ConstraintViolationError, match="^c3_real must be nonzero"):
        invariant_coeffs_for(1.0, 0.4, c3_real=0.0)


def test_derived_constants_need_positive_real_part():
    c = invariant_coeffs_for(1.0, 0.4, c3_real=-0.8)
    assert c.c5 is None and c.c6 is None and c.c7 is None and c.c8 is None
    pos = default_coeffs()
    root = np.sqrt(4 * 0.8**2 - 0.64**2)
    assert abs(pos.c5 - (0.5 + 0.5 * root)) < 1e-14
    assert abs(pos.c6 - (0.5 - 0.5 * root)) < 1e-14
    assert abs(pos.c7 - 0.5 * root / 1.6) < 1e-14
    assert abs(pos.c5 + pos.c6 - 1.0) < 1e-14


def test_evolution_route_refuses_a_negative_real_c3():
    # c5..c8 are undefined there; the refusal names the field, not a None
    c = invariant_coeffs_for(1.0, 0.4, c3_real=-0.8)
    with pytest.raises(ConstraintViolationError, match="^c3_real must be positive"):
        beta_from_evolution(c, LAM, np.linspace(0.0, 1.0, 3))


def test_alpha_sum_rule_and_constant_entry():
    c = default_coeffs()
    t = np.linspace(0.0, 9.0, 30)
    alpha = alpha_coeffs(c, LAM, t)
    assert np.max(np.abs(alpha[0] + alpha[1] - c.c1)) < 1e-14
    assert np.max(np.abs(alpha[2] - c.c2)) < 1e-15


def test_alpha_at_vanishing_running_integral():
    # with c4 = 0 the hyperbolic argument vanishes at t = 0
    c = invariant_coeffs_for(0.0, 0.4)
    alpha = alpha_coeffs(c, LAM, 0.0)
    assert abs(alpha[0] - (0.5 * c.c1 + c.c3)) < 1e-15
    assert abs(alpha[3]) < 1e-15


def test_alpha_satisfies_linear_system():
    # alphadot1 = (i lam / 2) alpha4, alphadot4 = i lam (alpha2 - alpha1),
    # alphadot3 = 0
    c = default_coeffs()
    h = 1e-5
    for t in (0.4, 1.7, 6.2):
        d = (alpha_coeffs(c, LAM, t + h) - alpha_coeffs(c, LAM, t - h)) / (2 * h)
        alpha = alpha_coeffs(c, LAM, t)
        lam_t = LAM(t)
        assert abs(d[0] - 0.5j * lam_t * alpha[3]) < 1e-7
        assert abs(d[1] + 0.5j * lam_t * alpha[3]) < 1e-7
        assert abs(d[2]) < 1e-7
        assert abs(d[3] - 1j * lam_t * (alpha[1] - alpha[0])) < 1e-7


def test_angles_from_static_snapshot():
    g3, g4 = gamma_from_alpha(np.array([1.0, 0.3, 0.5, 0.2], dtype=complex))
    assert g3 == 0.0 and g4 == 0.0


def test_angles_match_closed_form_trajectory():
    c = default_coeffs()
    ep = c.ep_constants()
    for t in (0.0, 0.6, 2.3, 5.1, 8.8):
        got = gamma_from_alpha(alpha_coeffs(c, LAM, t))
        want = gamma_closed_form(LAM, ep, t)
        assert abs(got[0] - want[0]) < 1e-10
        assert abs(got[1] - want[1]) < 1e-10


def test_angle_recovery_guards():
    with pytest.raises(ConstraintViolationError, match="degenerate"):
        gamma_from_alpha(np.array([0.5, 0.5, 0.1j, 0.1j]))
    with pytest.raises(ConstraintViolationError, match="alpha3"):
        gamma_from_alpha(np.array([1.0, 0.0, 2.0j, 0.0]))
    with pytest.raises(ConstraintViolationError, match="alpha4"):
        gamma_from_alpha(np.array([1.0, 0.0, 0.0, 5.0j]))


def test_angle_recovery_stacks_over_snapshots():
    c = default_coeffs()
    alpha = alpha_coeffs(c, LAM, np.linspace(0.0, 10.0, 200))
    g3, g4 = gamma_from_alpha(alpha)
    per_snapshot = np.array([gamma_from_alpha(snapshot) for snapshot in alpha.T])
    assert np.array_equal(g3, per_snapshot[:, 0])
    assert np.array_equal(g4, per_snapshot[:, 1])


def test_angle_recovery_names_the_first_failing_snapshot():
    alpha = alpha_coeffs(default_coeffs(), LAM, np.linspace(0.0, 10.0, 5))
    alpha[:, 3] = [1.0, 0.0, 0.0, 5.0j]
    alpha[:, 4] = [1.0, 0.0, 2.0j, 0.0]
    with pytest.raises(ConstraintViolationError, match="alpha4.* at snapshot 3$"):
        gamma_from_alpha(alpha)


def test_beta_without_imaginary_part_is_static():
    c = invariant_coeffs_for(1.0, 0.0)
    t = np.linspace(0.0, 9.0, 20)
    beta = beta_from_match(c, LAM, t)
    assert np.max(np.abs(beta[3])) == 0.0
    assert np.max(np.abs(beta[2] - 0.5)) < 1e-14


def test_beta_node_where_integral_hits_constant():
    # beta4 crosses zero where the running integral equals Re c4
    lam = TimeProfile.constant(0.5)
    c = default_coeffs()
    beta = beta_from_match(c, lam, 2.0)  # cumulative = 1.0 = Re c4
    assert abs(beta[3]) < 1e-14
    assert beta_from_match(c, lam, 1.0)[3] != 0.0


def test_beta_circle_identity():
    c = default_coeffs()
    t = np.linspace(0.0, 9.5, 25)
    beta = beta_from_match(c, LAM, t)
    assert np.max(np.abs(beta[2] ** 2 + beta[3] ** 2 - c.c7**2)) < 1e-13
    assert np.max(np.abs(beta[0] + beta[1] - c.c1.real)) < 1e-14


def test_two_beta_routes_agree():
    c = default_coeffs()
    for t in (0.0, 0.9, 3.7, 8.1):
        match = beta_from_match(c, LAM, t)
        evo = beta_from_evolution(c, LAM, t)
        assert np.max(np.abs(match - evo)) < 1e-9


def test_beta_rates_close_under_splitting():
    # betadot3 = beta4 (b2 - b1), betadot4 = beta3 (b1 - b2) with b1 - b2
    # the splitting of the matched Hermitian image
    c = default_coeffs()
    ep = c.ep_constants()
    h = 1e-5
    for t in (0.5, 2.2, 7.4):
        d = (beta_from_match(c, LAM, t + h) - beta_from_match(c, LAM, t - h)) / (2 * h)
        beta = beta_from_match(c, LAM, t)
        g3, g4 = gamma_closed_form(LAM, ep, t)
        img = hermitian_counterpart(0.0, LAM(t), g3, g4).vector
        split = float((img[0] - img[1]).real)
        assert abs(d[2] + beta[3] * split) < 1e-7
        assert abs(d[3] - beta[2] * split) < 1e-7


def test_splitting_integral_against_quadrature():
    c = default_coeffs()
    ep = c.ep_constants()

    def splitting(tau):
        g3, g4 = gamma_closed_form(LAM, ep, tau)
        img = hermitian_counterpart(0.0, LAM(tau), g3, g4).vector
        return float((img[0] - img[1]).real)

    for t in (0.8, 3.1, 9.0):
        ref, _ = quad(splitting, 0.0, t, limit=200)
        assert abs(ep._splitting_integral(LAM, t) - ref) < 1e-8
    assert ep._splitting_integral(LAM, 0.0) == 0.0
    static = invariant_coeffs_for(1.0, 0.0)
    assert static.ep_constants()._splitting_integral(LAM, 5.0) == 0.0


def test_splitting_integral_against_quadrature_for_negative_re_c3():
    # Re c3 < 0 flips the sign of the primitive's amplitude and of the
    # closed form's prefactor; the product stays the map's splitting integral
    c = invariant_coeffs_for(0.3, -0.55, c3_real=-0.9)
    ep = c.ep_constants()

    def splitting(tau):
        g3, g4 = gamma_closed_form(LAM, ep, tau)
        img = hermitian_counterpart(0.0, LAM(tau), g3, g4).vector
        return float((img[0] - img[1]).real)

    for t in (0.8, 3.1, 9.0):
        ref, _ = quad(splitting, 0.0, t, limit=200)
        assert abs(ep._splitting_integral(LAM, t) - ref) < 1e-8
    assert ep._splitting_integral(LAM, 0.0) == 0.0


def test_conservation_for_commuting_pair():
    central = basis_element(1) + basis_element(2)
    res = conservation_residual(
        lambda t: central, lambda t: nonhermitian_hamiltonian(1.0, 0.5), 1.3
    )
    assert res < 1e-11


def test_conservation_both_frames():
    c = default_coeffs()
    ep = c.ep_constants()
    a = TimeProfile.sinusoid(1.0, 0.2, 2.0)

    def invariant_h_frame(t):
        return AlgebraElement(alpha_coeffs(c, LAM, t))

    def hamiltonian_h_frame(t):
        return nonhermitian_hamiltonian(a(t), LAM(t))

    def invariant_hermitian(t):
        return AlgebraElement(beta_from_match(c, LAM, t))

    def hamiltonian_hermitian(t):
        g3, g4 = gamma_closed_form(LAM, ep, t)
        return hermitian_counterpart(a(t), LAM(t), g3, g4)

    for t in (0.3, 1.4, 4.8, 9.2):
        assert conservation_residual(invariant_h_frame, hamiltonian_h_frame, t) < 1e-7
        assert conservation_residual(invariant_hermitian, hamiltonian_hermitian, t) < 1e-7


def test_conservation_detects_tampering():
    # scaling the constant component is invisible to the bracket, so the
    # tamper has to hit a moving one
    c = default_coeffs()

    def tampered(t):
        v = alpha_coeffs(c, LAM, t)
        v[3] = 1.1 * v[3]
        return AlgebraElement(v)

    res = conservation_residual(
        tampered, lambda t: nonhermitian_hamiltonian(1.0, LAM(t)), 1.3
    )
    assert res > 1e-3


def test_similarity_maps_between_frames():
    c = default_coeffs()
    ep = c.ep_constants()
    for t in (0.0, 0.9, 3.6, 8.7):
        alpha = alpha_coeffs(c, LAM, t)
        beta = beta_from_match(c, LAM, t)
        params = scenario_params(ep, LAM, t)
        assert similarity_residual(alpha, beta, params) < 1e-9


def test_similarity_rejects_branch_mismatch():
    c = default_coeffs()
    ep = c.ep_constants()
    t = 1.1
    alpha = alpha_coeffs(c, LAM, t)
    # the radical closed form's other sign: beta1 and beta2 swap places,
    # beta3 and beta4 change sign
    beta = beta_from_match(c, LAM, t)
    wrong = np.array([beta[1], beta[0], -beta[2], -beta[3]])
    assert similarity_residual(alpha, wrong, scenario_params(ep, LAM, t)) > 1e-3


def test_random_families_full_pipeline():
    rng = np.random.default_rng(20240817)
    for _ in range(5):
        q2 = rng.uniform(-0.5, 1.5)
        q3 = rng.uniform(-0.8, 0.8)
        c = invariant_coeffs_for(
            q2,
            q3,
            c1=rng.uniform(0.5, 1.5),
            c2_real=rng.uniform(0.2, 1.0),
            c3_real=rng.uniform(0.5, 1.2),
        )
        ep = c.ep_constants()
        lam = TimeProfile.sinusoid(
            rng.uniform(0.3, 0.6), rng.uniform(0.0, 0.2), rng.uniform(0.5, 2.0)
        )
        for t in rng.uniform(0.05, 8.0, size=20):
            assert conservation_residual(
                lambda s: AlgebraElement(alpha_coeffs(c, lam, s)),
                lambda s: nonhermitian_hamiltonian(1.0, lam(s)),
                float(t),
            ) < 1e-7
            got = gamma_from_alpha(alpha_coeffs(c, lam, float(t)))
            want = gamma_closed_form(lam, ep, float(t))
            assert abs(got[0] - want[0]) < 1e-10
            assert abs(got[1] - want[1]) < 1e-10
            assert similarity_residual(
                alpha_coeffs(c, lam, float(t)),
                beta_from_match(c, lam, float(t)),
                scenario_params(ep, lam, float(t)),
            ) < 1e-9


@pytest.mark.parametrize("q2, q3", [(1.0, 0.4), (-0.8, -0.3), (0.3, 0.0), (2.0, 0.6)])
def test_c8_is_the_splitting_primitive_at_t0(q2, q3):
    c = invariant_coeffs_for(q2, q3)
    consts = c.ep_constants()
    assert c.c8 == -consts._splitting_primitive(c.c4.real)
    # arctan[kappa tanh(Re c4)], kappa the map's conserved combination
    want = np.arctan(consts.kappa * np.tanh(q2))
    assert abs(c.c8 - want) <= 2.0 * np.spacing(abs(want))
