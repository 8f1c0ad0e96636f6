import itertools

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from ptdyson import (
    AlgebraElement,
    DysonParams,
    FockBasis,
    Scenario,
    TimeProfile,
    alpha_coeffs,
    basis_element,
    broken_spectrum_numeric,
    build_eta,
    build_generators,
    conjugate,
    dyson_residuals,
    element_matrix,
    f_pm,
    group_matrix,
    invariant_coeffs_for,
    invariant_eigen_flow,
    metric_floor,
    metric_spectrum_report,
    quasi_hermiticity_residuals,
    scenario_params,
    sort_along_line,
    verify_dyson,
    verify_quasi_hermiticity,
)
from ptdyson import cli, fock_oracle, validation
from ptdyson.dyson import first_derivative
from ptdyson.errors import ConstraintViolationError

A = TimeProfile.sinusoid(1.0, 0.2, 2.0)
LAM = TimeProfile.sinusoid(0.5, 0.3, 1.0)


def default_scenario(**kw):
    base = dict(a=A, lam=LAM, q2=1.0, q3=0.4)
    base.update(kw)
    return Scenario(**base)


def eta_inverse(gens, params):
    # the exact inverse map, assembled from the oracle's own inverse blocks
    return block_diag(*(
        fock_oracle._block_map(f, params, inverse=True)
        for f in fock_oracle._block_factors(gens)
    ))


def flat_states(basis):
    # the flat ordering of the number states, written out on its own: by
    # total k = na + nb, first-mode count descending inside each block
    return [(k - nb, nb) for k in basis.blocks() for nb in range(k + 1)]


def flat_index(na, nb):
    k = na + nb
    return k * (k + 1) // 2 + nb


def ladder_matrices(basis):
    # truncated lowering operators of the two modes
    dim = basis.dim
    low_a = np.zeros((dim, dim), dtype=complex)
    low_b = np.zeros((dim, dim), dtype=complex)
    for idx, (na, nb) in enumerate(flat_states(basis)):
        if na >= 1:
            low_a[flat_index(na - 1, nb), idx] = np.sqrt(na)
        if nb >= 1:
            low_b[flat_index(na, nb - 1), idx] = np.sqrt(nb)
    return low_a, low_b


def ladder_reference(basis):
    # dense generators written out from the ladder action on each number
    # state: a^dag a, b^dag b and the a^dag b / b^dag a hopping pair
    dim = basis.dim
    k1, k2, k3, k4 = (np.zeros((dim, dim), dtype=complex) for _ in range(4))
    for idx, (na, nb) in enumerate(flat_states(basis)):
        k1[idx, idx] = na + 0.5
        k2[idx, idx] = nb + 0.5
        if nb >= 1:
            jdx = flat_index(na + 1, nb - 1)
            amp = 0.5 * np.sqrt((na + 1) * nb)
            k3[jdx, idx] += amp
            k4[jdx, idx] += -1j * amp
        if na >= 1:
            jdx = flat_index(na - 1, nb + 1)
            amp = 0.5 * np.sqrt(na * (nb + 1))
            k3[jdx, idx] += amp
            k4[jdx, idx] += 1j * amp
    return k1, k2, k3, k4


def dense_generators(gens):
    # the per-block generators assembled into four dense matrices
    return [block_diag(*blocks) for blocks in zip(*gens)]


def test_basis_layout():
    basis = FockBasis(2)
    assert basis.dim == 6
    assert flat_states(basis) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for idx, (na, nb) in enumerate(flat_states(basis)):
        assert flat_index(na, nb) == idx
    assert basis.block_slice(1) == slice(1, 3)
    assert list(basis.blocks()) == [0, 1, 2]
    with pytest.raises(ConstraintViolationError):
        basis.block_slice(3)
    with pytest.raises(ConstraintViolationError, match=r"^size must satisfy"):
        FockBasis(1)
    with pytest.raises(ConstraintViolationError, match=r"^size must satisfy"):
        FockBasis(61)


def test_generators_hermitian_and_block_diagonal():
    # the dense reference has nothing outside the blocks, so storing the
    # blocks alone loses nothing
    basis = FockBasis(5)
    gens = build_generators(basis)
    mask = np.ones((basis.dim, basis.dim), dtype=bool)
    for k in basis.blocks():
        sl = basis.block_slice(k)
        mask[sl, sl] = False
    for g in ladder_reference(basis):
        assert np.max(np.abs(g[mask])) == 0.0
    for k, g in enumerate(gens):
        assert g.shape == (4, k + 1, k + 1)
        assert np.max(np.abs(g - np.swapaxes(g, -1, -2).conj())) < 1e-14


def test_generator_blocks_equal_the_ladder_reference_bit_for_bit():
    for size in (2, 8, 24):
        basis = FockBasis(size)
        gens = build_generators(basis)
        assert len(gens) == basis.size + 1
        reference = ladder_reference(basis)
        for k in basis.blocks():
            sl = basis.block_slice(k)
            for built, dense in zip(gens[k], reference):
                assert built.dtype == dense.dtype
                assert built.tobytes() == np.ascontiguousarray(dense[sl, sl]).tobytes()


def test_generator_storage_is_the_blocks_alone():
    # 4 generators x 16 bytes per complex entry x (k+1)^2 entries per block
    basis = FockBasis(60)
    gens = build_generators(basis)
    want = 64 * sum((k + 1) ** 2 for k in basis.blocks())
    assert sum(g.nbytes for g in gens) == want == 4_961_984


def test_generator_diagonals():
    basis = FockBasis(2)
    gens = build_generators(basis)
    k1, k2 = (np.concatenate([g[i].diagonal() for g in gens]) for i in (0, 1))
    assert np.allclose(k1.real, [0.5, 1.5, 0.5, 2.5, 1.5, 0.5])
    assert np.allclose(k2.real, [0.5, 0.5, 1.5, 0.5, 1.5, 2.5])


def test_generators_against_ladder_definitions():
    # rebuild all four generators from the raw mode operators and compare
    # on every state whose quadratic image stays inside the truncation
    basis = FockBasis(8)
    gens = dense_generators(build_generators(basis))
    low_a, low_b = ladder_matrices(basis)
    x_a = (low_a + low_a.conj().T) / np.sqrt(2.0)
    p_a = -1j * (low_a - low_a.conj().T) / np.sqrt(2.0)
    x_b = (low_b + low_b.conj().T) / np.sqrt(2.0)
    p_b = -1j * (low_b - low_b.conj().T) / np.sqrt(2.0)
    defs = (
        0.5 * (p_a @ p_a + x_a @ x_a),
        0.5 * (p_b @ p_b + x_b @ x_b),
        0.5 * (x_a @ x_b + p_a @ p_b),
        0.5 * (x_a @ p_b - x_b @ p_a),
    )
    safe = [
        idx
        for idx, (na, nb) in enumerate(flat_states(basis))
        if na + nb <= basis.size - 2
    ]
    grid = np.ix_(safe, safe)
    for built, defined in zip(gens, defs):
        assert np.max(np.abs(built[grid] - defined[grid])) < 1e-13


def test_bracket_table_on_matrices():
    # block-preserving products make the brackets exact at any truncation
    basis = FockBasis(6)

    def br(x, y):
        return x @ y - y @ x

    for k1, k2, k3, k4 in build_generators(basis):
        assert np.max(np.abs(br(k1, k2))) == 0.0
        assert np.max(np.abs(br(k1, k3) - 1j * k4)) < 1e-13
        assert np.max(np.abs(br(k1, k4) + 1j * k3)) < 1e-13
        assert np.max(np.abs(br(k2, k3) + 1j * k4)) < 1e-13
        assert np.max(np.abs(br(k2, k4) - 1j * k3)) < 1e-13
        assert np.max(np.abs(br(k3, k4) - 0.5j * (k1 - k2))) < 1e-13


def test_element_matrix_linearity():
    basis = FockBasis(4)
    gens = build_generators(basis)
    coeffs = np.array([0.3, -0.7, 0.2 + 0.4j, -1.1j])
    got = element_matrix(AlgebraElement(coeffs), gens)
    assert len(got) == len(gens)
    for blocks, g in zip(got, gens):
        want = sum(c * m for c, m in zip(coeffs, g))
        assert np.max(np.abs(blocks - want)) < 1e-15


def test_map_at_origin_is_identity():
    basis = FockBasis(6)
    gens = build_generators(basis)
    eta = build_eta(basis, gens, DysonParams(0.0, 0.0, 0.0, 0.0))
    assert np.max(np.abs(eta - np.eye(basis.dim))) < 1e-14


def test_map_matches_exponential_product():
    basis = FockBasis(6)
    gens = build_generators(basis)
    rng = np.random.default_rng(53)
    for _ in range(3):
        g = rng.normal(scale=0.4, size=4)
        params = DysonParams(*g)
        ref = np.eye(basis.dim, dtype=complex)
        for gamma, gen in zip(g, ladder_reference(basis)):
            ref = ref @ expm(gamma * gen)
        got = build_eta(basis, gens, params)
        assert np.max(np.abs(got - ref)) < 1e-10 * np.linalg.norm(ref, 2)
        prod = got @ eta_inverse(gens, params)
        assert np.max(np.abs(prod - np.eye(basis.dim))) < 1e-12


def test_two_product_block_map_equals_the_three_product_form():
    gens = build_generators(FockBasis(12))
    rng = np.random.default_rng(89)
    g1, g2, g3, g4 = rng.uniform(-1.0, 1.0, size=(4, 6))
    params = DysonParams(g1, g2, g3, g4)

    def mixing(g, gamma):
        vals, vecs = np.linalg.eigh(g)
        return (vecs * np.exp(gamma[:, None] * vals)[:, None, :]) @ vecs.conj().T

    for k, (g, factors) in enumerate(zip(gens, fock_oracle._block_factors(gens))):
        d1, d2 = g[0].diagonal().real, g[1].diagonal().real
        diag = np.exp(np.multiply.outer(g1, d1) + np.multiply.outer(g2, d2))
        forward = diag[:, :, None] * (mixing(g[2], g3) @ mixing(g[3], g4))
        inverse = (mixing(g[3], -g4) @ mixing(g[2], -g3)) / diag[:, None, :]
        for want, inv in ((forward, False), (inverse, True)):
            got = fock_oracle._block_map(factors, params, inverse=inv)
            scale = np.max(np.abs(want), axis=(-2, -1))
            assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= 1e-13 * scale), k


def test_conjugation_agrees_across_representations():
    # eta K_i eta^-1 computed with dense matrices must land on the same
    # coefficients the 2x2 image predicts
    basis = FockBasis(8)
    gens = build_generators(basis)
    rng = np.random.default_rng(59)
    for _ in range(3):
        params = DysonParams(*rng.normal(scale=0.5, size=4))
        eta = build_eta(basis, gens, params)
        eta_inv = eta_inverse(gens, params)
        for i in (1, 3):
            elem = block_diag(*element_matrix(basis_element(i), gens))
            lhs = eta @ elem @ eta_inv
            rhs = block_diag(
                *element_matrix(conjugate(params, basis_element(i)), gens)
            )
            scale = max(1.0, np.max(np.abs(rhs)))
            # products run through blocks conditioned like e^{|gamma| k}
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale


def test_intertwining_residual_static():
    sc = default_scenario(lam=TimeProfile.constant(0.0))
    basis = FockBasis(8)
    assert verify_dyson(sc, basis, [0.0, 1.3, 4.0]) < 1e-10


def test_intertwining_residual_generic():
    sc = default_scenario()
    basis = FockBasis(10)
    assert verify_dyson(sc, basis, [0.0, 0.7, 2.5, 6.1]) < 1e-6


def test_intertwining_detects_flipped_angle():
    # rebuild the residual by hand with the fourth angle negated; the
    # relation must fail at order one on the mixing blocks
    sc = default_scenario()
    basis = FockBasis(8)
    gens = build_generators(basis)
    consts = sc.ep_constants()
    t, h = 1.1, 1e-5

    def flipped(s):
        p = scenario_params(consts, sc.lam, s)
        return DysonParams(0.0, 0.0, p.gamma3, -p.gamma4)

    eta = build_eta(basis, gens, flipped(t))
    eta_dot = (
        build_eta(basis, gens, flipped(t + h)) - build_eta(basis, gens, flipped(t - h))
    ) / (2 * h)
    fp, fm = f_pm(sc, t)
    k1, k2, k3, _ = dense_generators(gens)
    ham = sc.a(t) * (k1 + k2) + 1j * sc.lam(t) * k3
    herm = fp * k1 + fm * k2
    resid = eta @ ham + 1j * eta_dot - herm @ eta
    k = 3
    sl = basis.block_slice(k)
    rel = np.linalg.norm(resid[sl, sl], 2) / np.linalg.norm(eta[sl, sl], 2)
    assert rel > 1e-2


def test_metric_compatibility_static_and_generic():
    static = default_scenario(lam=TimeProfile.constant(0.0))
    basis = FockBasis(8)
    assert verify_quasi_hermiticity(static, basis, [0.0, 2.2]) < 1e-10
    sc = default_scenario()
    basis = FockBasis(10)
    assert verify_quasi_hermiticity(sc, basis, [0.0, 0.7, 2.5, 6.1]) < 1e-6


def test_residuals_at_the_domain_end():
    # t + 2 h beyond t_max forces the backward one-sided rates;
    # evaluating the profiles past their domain would raise instead
    sc = default_scenario(
        a=TimeProfile.sinusoid(1.0, 0.2, 2.0, t_max=5.0),
        lam=TimeProfile.sinusoid(0.5, 0.3, 1.0, t_max=5.0),
    )
    assert sc.t_max() == 5.0
    basis = FockBasis(10)
    assert verify_dyson(sc, basis, [5.0]) < 1e-8
    assert verify_quasi_hermiticity(sc, basis, [5.0]) < 1e-8


def test_stacked_residuals_equal_the_worst_per_time_call():
    # 0, interior times and t_max run the forward, central and backward
    # stencils in one call; stacking must not change a single bit
    sc = default_scenario(
        a=TimeProfile.sinusoid(1.0, 0.2, 2.0, t_max=5.0),
        lam=TimeProfile.sinusoid(0.5, 0.3, 1.0, t_max=5.0),
    )
    basis = FockBasis(8)
    gens = build_generators(basis)
    times = [0.0, 1.3, 2.9, 5.0]
    for verify in (verify_dyson, verify_quasi_hermiticity):
        per_time = [verify(sc, basis, [t], gens=gens) for t in times]
        assert verify(sc, basis, times, gens=gens) == max(per_time)
        assert max(per_time) < 1e-8


def _dyson_defect(eta, eta_dot, ham, herm):
    return eta @ ham + 1j * eta_dot - herm @ eta


def _metric_defect(eta, eta_dot, ham, herm):
    eta_h, eta_dot_h, ham_h = (
        np.swapaxes(m.conj(), -1, -2) for m in (eta, eta_dot, ham)
    )
    rho = eta_h @ eta
    rho_dot = eta_dot_h @ eta + eta_h @ eta_dot
    return ham_h @ rho - rho @ ham - 1j * rho_dot


def map_params_and_rates(sc, times):
    # the closed-form parameters at the times, and their five-point rates
    consts = sc.ep_constants()

    def gammas(t):
        return scenario_params(consts, sc.lam, t, q1=sc.q1).as_array()

    rates = first_derivative(gammas, times, fock_oracle._FD_STEP, sc.t_max())
    return DysonParams(*gammas(times)), DysonParams(*rates)


def separate_map_residuals(defect, power, sc, basis, times, buffer=2):
    # one time at a time, every block solved; the map and its derivative
    # come from one block-map pass, and that pass's blocks 0 and 1 give the
    # spin ladder each block is scaled by
    gens = build_generators(basis)
    times = np.asarray(times, dtype=float)
    a_t, lam_t = sc.a(times), sc.lam(times)
    f_plus, f_minus = f_pm(sc, times)
    worst = np.zeros(times.shape)
    k_top = basis.size - buffer
    for i, t in enumerate(times):
        at_t, rates = map_params_and_rates(sc, np.array([t]))
        safe = gens[: k_top + 1]
        maps, defects = [], []
        for g, f in zip(safe, fock_oracle._block_factors(safe)):
            eta, eta_dot = fock_oracle._block_map(f, at_t, rates=rates)
            ham = a_t[i] * (g[0] + g[1]) + 1j * lam_t[i] * g[2]
            herm = f_plus[i] * g[0] + f_minus[i] * g[1]
            maps.append(eta)
            defects.append(defect(eta, eta_dot, ham, herm))
        scales = fock_oracle._spin_ladder(maps[0], maps[1], k_top)[0] ** power
        for resid, scale in zip(defects, scales):
            ratio = fock_oracle._spectral_norms(resid[0]) / scale[0]
            worst[i] = max(worst[i], ratio)
    return worst


def test_the_map_from_the_rates_pass_equals_a_separate_map():
    # the residuals scale by maps built on their own and take the defect
    # from the map built with its derivative; both must give the same bits
    # at interior times, at t = 0 (forward rates) and at t_max (backward)
    bounded = default_scenario(
        a=TimeProfile.sinusoid(1.0, 0.2, 2.0, t_max=5.0),
        lam=TimeProfile.sinusoid(0.5, 0.3, 1.0, t_max=5.0),
    )
    cases = (
        (default_scenario(), [0.7, 2.5, 6.1]),
        (bounded, [0.0, 1.3, 2.9, 5.0 - 5e-6, 5.0]),
    )
    basis = FockBasis(8)
    for sc, times in cases:
        for residuals, defect, power in (
            (dyson_residuals, _dyson_defect, 1),
            (quasi_hermiticity_residuals, _metric_defect, 2),
        ):
            got = residuals(sc, basis, times)
            want = separate_map_residuals(defect, power, sc, basis, times)
            assert np.array_equal(got, want)
            assert np.all(got < 1e-8)


def test_residuals_do_not_depend_on_the_time_chunks(monkeypatch):
    # the residuals take times in chunks sized by _STACK_BYTES; one time
    # per chunk must give the same bits as one chunk for all times
    sc = default_scenario()
    basis = FockBasis(8)
    times = np.linspace(0.0, 9.0, 7)
    residuals = (dyson_residuals, quasi_hermiticity_residuals)
    whole = [r(sc, basis, times) for r in residuals]
    monkeypatch.setattr(fock_oracle, "_STACK_BYTES", 1)
    for r, want in zip(residuals, whole):
        assert np.array_equal(r(sc, basis, times), want)


def every_block_residuals(defect, power, sc, basis, times, buffer=2):
    # no bound: every block's defect gets its exact norm, all times at once
    gens = build_generators(basis)
    k_top = basis.size - buffer
    times = np.asarray(times, dtype=float)
    params, rates = map_params_and_rates(sc, times)
    per_time = (sc.a(times), sc.lam(times), *f_pm(sc, times))
    a_t, lam_t, f_plus, f_minus = (x[:, None, None] for x in per_time)
    safe = gens[: k_top + 1]
    maps, norms = [], []
    for g, f in zip(safe, fock_oracle._block_factors(safe)):
        eta, eta_dot = fock_oracle._block_map(f, params, rates=rates)
        ham = a_t * (g[0] + g[1]) + 1j * lam_t * g[2]
        herm = f_plus * g[0] + f_minus * g[1]
        maps.append(eta)
        norms.append(fock_oracle._spectral_norms(defect(eta, eta_dot, ham, herm)))
    scales = fock_oracle._spin_ladder(maps[0], maps[1], k_top)[0] ** power
    return np.max(np.array(norms) / scales, axis=0)


@pytest.mark.parametrize("size", [8, 12, 24])
def test_residuals_equal_every_block_solved(size):
    # the bound only skips exact norms that cannot be a time's worst, so the
    # result is the one with every block solved, bit for bit: criterion 02's
    # inputs, and a bounded domain with both one-sided stencils
    bounded = default_scenario(
        a=TimeProfile.sinusoid(1.0, 0.2, 2.0, t_max=5.0),
        lam=TimeProfile.sinusoid(0.5, 0.3, 1.0, t_max=5.0),
    )
    cases = (
        (validation.default_scenario(), validation.sample_times()),
        (bounded, np.append(np.linspace(0.0, 5.0, 41), 5.0 - 5e-6)),
    )
    basis = FockBasis(size)
    for sc, times in cases:
        for residuals, defect, power in (
            (dyson_residuals, _dyson_defect, 1),
            (quasi_hermiticity_residuals, _metric_defect, 2),
        ):
            got = residuals(sc, basis, times)
            want = every_block_residuals(defect, power, sc, basis, times)
            assert np.array_equal(got, want)
            assert np.all(got < 1e-6)


def test_norm_bounds_lie_above_the_spectral_norms():
    rng = np.random.default_rng(29)
    bounds, norms = fock_oracle._norm_bounds, fock_oracle._spectral_norms
    for n in (1, 2, 5, 11):
        shape = (40, n, n)
        plain = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u = rng.standard_normal((40, n, 1)) + 1j * rng.standard_normal((40, n, 1))
        v = rng.standard_normal((40, 1, n)) + 1j * rng.standard_normal((40, 1, n))
        diagonal = plain * np.eye(n)
        # rank one and diagonal make one side of the bound an equality, so
        # there the bound may sit below the exact norm by rounding only
        for stack in (plain, u * v, diagonal):
            for scale in (1.0, 1e200, 1e-200):
                exact = norms(scale * stack)
                assert np.all(bounds(scale * stack) * (1.0 + 1e-12) >= exact)
        assert np.all(np.abs(bounds(u * v) / norms(u * v) - 1.0) < 1e-14)
        assert np.all(np.abs(bounds(diagonal) / norms(diagonal) - 1.0) < 1e-14)


def test_a_nan_in_one_blocks_defect_reaches_the_output(monkeypatch, tmp_path):
    sc = default_scenario()
    basis = FockBasis(12)
    times = np.linspace(0.0, 10.0, 25)
    clean = dyson_residuals(sc, basis, times)
    solve = fock_oracle._block_residuals

    def poisoned(defect, *args):
        def nan_in_block_5(eta, eta_dot, ham, herm):
            out = defect(eta, eta_dot, ham, herm)
            if out.shape[-1] == 6:
                out[7, 2, 3] = np.nan
            return out

        return solve(nan_in_block_5, *args)

    monkeypatch.setattr(fock_oracle, "_block_residuals", poisoned)
    # all 25 times fit in one chunk, so row 7 of the defect is the 8th time
    got = dyson_residuals(sc, basis, times)
    assert np.isnan(got[7])
    assert np.array_equal(np.delete(got, 7), np.delete(clean, 7))
    assert cli.main(["oracle", "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "oracle.csv").exists()


def test_spin_ladder_ends_match_the_built_blocks():
    # the top end against the forward block's norm, the bottom end against
    # 1 / the norm of the exact inverse block; at size 60 the metric's scale
    # reaches 1e116 and must stay finite.  q1 != 0 makes |eta_0| != 1, so
    # the bottom end's |eta_0|^4 is tested (criterion 12 runs at q1 = 0)
    sc = validation.default_scenario()
    consts = sc.ep_constants()
    cases = (
        (FockBasis(12), validation.sample_times()),
        (FockBasis(60), np.linspace(0.0, 10.0, 25)),
    )
    for (basis, times), q1 in itertools.product(cases, (0.0, 0.7)):
        params = scenario_params(consts, sc.lam, times, q1=q1)
        k_top = basis.size - 2
        gens = build_generators(basis)[: k_top + 1]
        low, tops, bottoms = [], [], []
        for f in fock_oracle._block_factors(gens):
            block = fock_oracle._block_map(f, params)
            if len(low) < 2:
                low.append(block)
            tops.append(fock_oracle._spectral_norms(block))
            inverse = fock_oracle._block_map(f, params, inverse=True)
            bottoms.append(1.0 / fock_oracle._spectral_norms(inverse))
        ladder = fock_oracle._spin_ladder(*low, k_top)
        assert ladder.shape == (2, k_top + 1, times.size)
        for power in (1, 2):
            ends = ladder**power
            assert np.all(np.isfinite(ends))
            for end, norms in zip(ends, (tops, bottoms)):
                for k, norm in enumerate(norms):
                    gap = np.abs(end[k] / norm**power - 1.0)
                    assert np.all(gap <= 1e-12), (basis.size, q1, k, power)


def test_criterion_02_solves_few_norms_exactly(monkeypatch):
    # the top block holds most times' worst, and the bound rules out the
    # rest: about 460 matrices, against 4,400 with every block solved
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        solved.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    assert validation.check_dyson_relation().passed
    assert 0 < sum(solved) < 1000


def test_residuals_need_a_block_below_the_buffer():
    # with size - buffer < 1 no nontrivial block is left to check, and a
    # residual over nothing must not read as a pass
    sc = default_scenario()
    basis = FockBasis(6)
    for verify in (verify_dyson, verify_quasi_hermiticity):
        for buffer in (6, 7):
            with pytest.raises(ConstraintViolationError, match="size - buffer >= 1"):
                verify(sc, basis, [1.0], buffer=buffer)
        assert 0.0 < verify(sc, basis, [1.0], buffer=5) < 1e-8


def test_residuals_detect_a_coarse_step(monkeypatch):
    # a step of 0.3 leaves a fourth-order error in the parameters' rates
    # that both residuals must report
    sc = default_scenario()
    basis = FockBasis(8)
    monkeypatch.setattr(fock_oracle, "_FD_STEP", 0.3)
    assert verify_dyson(sc, basis, [0.7, 2.5]) > 1e-4
    assert verify_quasi_hermiticity(sc, basis, [0.7, 2.5]) > 1e-4


def test_the_exact_derivative_matches_a_central_difference_of_the_map():
    # a smooth path through all four parameters, with its exact rates: the
    # product rule must match the central difference of whole block maps,
    # to that difference's h^2 truncation and rounding
    def path(t):
        return DysonParams(
            0.3 * np.sin(t), -0.2 * np.cos(1.5 * t),
            1.1 * np.sin(0.7 * t), 0.8 * np.cos(0.9 * t),
        )

    def path_rates(t):
        return DysonParams(
            0.3 * np.cos(t), 0.3 * np.sin(1.5 * t),
            0.77 * np.cos(0.7 * t), -0.72 * np.sin(0.9 * t),
        )

    times, h = np.array([1.3, 4.2, 7.7]), 1e-5
    gens = build_generators(FockBasis(12))[:11]
    for k, f in enumerate(fock_oracle._block_factors(gens)):
        eta, eta_dot = fock_oracle._block_map(f, path(times), rates=path_rates(times))
        assert np.array_equal(eta, fock_oracle._block_map(f, path(times)))
        plus, minus = (fock_oracle._block_map(f, path(times + s)) for s in (h, -h))
        gap = fock_oracle._spectral_norms(eta_dot - (plus - minus) / (2.0 * h))
        assert np.all(gap <= 1e-8 * fock_oracle._spectral_norms(eta)), k


def test_swapped_mixing_rates_fail_the_dyson_residual(monkeypatch):
    # the derivative with the two mixing rates swapped is a plausible slip
    sc = default_scenario()
    basis = FockBasis(8)
    times = [0.7, 2.5, 6.1]
    assert verify_dyson(sc, basis, times) < 1e-10
    rates = fock_oracle.first_derivative
    monkeypatch.setattr(
        fock_oracle, "first_derivative", lambda *args: rates(*args)[[0, 1, 3, 2]]
    )
    assert verify_dyson(sc, basis, times) > 1.0


def test_metric_compatibility_needs_the_metric():
    # with the metric replaced by the identity the defect is the
    # anti-Hermitian part of the generator, block norm lam * k exactly
    basis = FockBasis(6)
    gens = build_generators(basis)
    a_t, lam_t = 1.1, 0.4
    for k in (1, 3, 5):
        g = gens[k]
        ham = a_t * (g[0] + g[1]) + 1j * lam_t * g[2]
        resid = ham.conj().T - ham
        assert abs(np.linalg.norm(resid, 2) - lam_t * k) < 1e-12


def test_broken_spectrum_blocks():
    basis = FockBasis(10)
    a_v, lam_v = 1.0, 0.4
    per_block = broken_spectrum_numeric(a_v, lam_v, basis)
    assert np.max(np.abs(per_block[0] - 1.0)) < 1e-13
    assert np.max(np.abs(per_block[1] - np.array([2.0 - 0.2j, 2.0 + 0.2j]))) < 1e-12
    for k in basis.blocks():
        ms = np.arange(k + 1) - 0.5 * k
        want = a_v * (k + 1) + 1j * lam_v * ms
        assert np.max(np.abs(per_block[k] - want)) < 1e-10
        # conjugation symmetry of the multiset
        flipped = sort_along_line(np.conj(per_block[k]))
        assert np.max(np.abs(flipped - per_block[k])) < 1e-10


def test_equal_frequency_spectrum_degenerates_without_coupling():
    basis = FockBasis(6)
    per_block = broken_spectrum_numeric(1.3, 0.0, basis)
    for k in basis.blocks():
        assert np.max(np.abs(per_block[k] - 1.3 * (k + 1))) < 1e-12


def test_line_sort_stability():
    rng = np.random.default_rng(61)
    # vertical line: real parts agree up to noise
    base = 2.0 + 1j * np.array([0.3, -0.45, 0.1, -0.2])
    noisy = base + rng.normal(scale=1e-15, size=4)
    ref = sort_along_line(noisy)
    assert np.max(np.abs(ref.imag - np.sort(base.imag))) < 1e-12
    for _ in range(5):
        perm = rng.permutation(4)
        again = sort_along_line(noisy[perm])
        assert np.array_equal(again, ref)
    # oblique line
    vals = (1.0 + 2.0j) * np.array([-1.2, 0.3, 1.7]) + 0.5
    ref = sort_along_line(vals)
    assert np.max(np.abs(ref - np.array(sorted(vals, key=lambda z: z.real)))) == 0.0
    # horizontal line falls back to plain real order
    assert np.array_equal(
        sort_along_line(np.array([3.0, 1.0, 2.0], dtype=complex)),
        np.array([1.0, 2.0, 3.0], dtype=complex),
    )
    # degenerate inputs
    assert sort_along_line(np.array([5.0 + 1j])).tolist() == [5.0 + 1j]
    assert sort_along_line(np.full(3, 2.0 + 2.0j)).tolist() == [2.0 + 2.0j] * 3


def test_stacked_line_sort_equals_per_row_calls():
    rng = np.random.default_rng(83)
    rows = [
        2.0 + 1j * rng.permutation([0.3, -0.45, 0.1, -0.2]) + rng.normal(0, 1e-15, 4),
        (1.0 + 2.0j) * rng.permutation([-1.2, 0.3, 1.7, 0.9]) + 0.5,
        rng.permutation([3.0, 1.0, 2.0, -4.0]).astype(complex),
        (-1.0 - 0.5j) * rng.normal(size=4),
        np.full(4, 2.0 + 2.0j),  # zero pivot
        np.zeros(4, dtype=complex),  # zero pivot at zero
    ]
    stack = np.array(rows + [r[::-1] for r in rows])
    got = sort_along_line(stack)
    assert got.shape == stack.shape
    for row, want in zip(got, stack):
        assert (row == sort_along_line(want)).all()
    # a 3-D stack sorts its rows the same way
    deeper = sort_along_line(stack.reshape(2, -1, 4))
    assert (deeper.reshape(stack.shape) == got).all()
    # rows of length 1 come back as they are
    single = rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1))
    assert (sort_along_line(single) == single).all()


def assert_flow_equals_per_snapshot_calls(coeffs, lam, times, basis):
    # the reference: one call per later time, on [times[0], t] alone
    reference, drift = invariant_eigen_flow(coeffs, lam, times, basis)
    pairs = [invariant_eigen_flow(coeffs, lam, [times[0], t], basis) for t in times[1:]]
    assert drift == max(pair_drift for _, pair_drift in pairs)
    for pair_reference, _ in pairs:
        assert all((a == b).all() for a, b in zip(reference, pair_reference))


def test_eigen_flow_at_criterion_05_inputs_equals_per_snapshot_calls():
    coeffs = validation.default_invariant_coeffs()
    lam = validation.default_scenario().lam
    grid = validation.REFERENCE_CONFIG["grid"]
    times = np.linspace(grid["t_start"], grid["t_end"], 10)
    assert_flow_equals_per_snapshot_calls(coeffs, lam, times, FockBasis(12))


def test_eigen_flow_mixes_fallback_and_normal_form_snapshots(monkeypatch):
    basis = FockBasis(6)
    coeffs = invariant_coeffs_for(1.0, 0.4)
    times = np.linspace(0.0, 4.0, 5)

    def mixed_alpha(coeffs, lam, t):
        # t = 1: i alpha swaps the real and imaginary parts, so mu^2 < 0;
        # t >= 3: a real alpha has no imaginary part; both fall back
        t = np.asarray(t)
        alpha = alpha_coeffs(coeffs, lam, t)
        alpha = np.where(t == 1.0, 1j * alpha, alpha)
        return np.where(t >= 3.0, alpha.real, alpha)

    sizes = []
    eigvals = np.linalg.eigvals

    def counting_eigvals(a):
        sizes.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(fock_oracle, "alpha_coeffs", mixed_alpha)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    invariant_eigen_flow(coeffs, LAM, times, basis)
    # per block: the three fallback snapshots in one call, the two others in one
    assert sorted(set(sizes)) == [2, 3]
    assert len(sizes) == 2 * len(basis.blocks())
    assert_flow_equals_per_snapshot_calls(coeffs, LAM, times, basis)
    # each snapshot's eigenvalues, unsorted, as a call on that snapshot alone
    a1, a2, a3, a4 = mixed_alpha(coeffs, LAM, times)
    v, center = np.stack([a3, a4, a1 - a2], axis=-1), 0.5 * (a1 + a2)
    for k, g in enumerate(build_generators(basis)):
        ops = (g[2], g[3], 0.5 * (g[0] - g[1]))
        stacked = fock_oracle._line_eigenvalues(v, ops, center * (k + 1), k)
        for i in range(times.size):
            alone = fock_oracle._line_eigenvalues(
                v[i:i + 1], ops, center[i:i + 1] * (k + 1), k
            )
            assert (stacked[i] == alone[0]).all()


def test_criterion_05_solves_each_block_once(monkeypatch):
    counts = {"eigh": 0, "eigvals": 0}

    def counting(name):
        solver = getattr(np.linalg, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return solver(*args, **kwargs)

        return call

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counting(name))
    assert validation.check_invariant_conservation().passed
    # FockBasis(12) has 13 blocks
    assert counts["eigh"] <= 13
    assert counts["eigvals"] <= 26


def test_invariant_spectrum_is_constant():
    basis = FockBasis(10)
    coeffs = invariant_coeffs_for(1.0, 0.4)
    times = np.linspace(0.0, 10.0, 6)
    reference, drift = invariant_eigen_flow(coeffs, LAM, times, basis)
    assert drift < 1e-8
    # closed-form prediction: the block of total k carries
    # c1 (k+1)/2 + mu m with mu^2 = c2^2 + 4 c3^2 (real by the matching
    # constraint) and m stepping the half-integer ladder
    mu = np.sqrt(coeffs.c2**2 + 4.0 * coeffs.c3**2)
    assert abs(mu.imag) < 1e-12
    for k in basis.blocks():
        ms = np.arange(k + 1) - 0.5 * k
        want = 0.5 * coeffs.c1.real * (k + 1) + mu.real * ms
        assert np.max(np.abs(reference[k] - want)) < 1e-9


def test_invariant_spectrum_reads_every_time_from_one_stacked_call(monkeypatch):
    basis = FockBasis(6)
    coeffs = invariant_coeffs_for(1.0, 0.4)
    times = np.linspace(0.0, 4.0, 5)
    calls = []

    def drifting_alpha(coeffs, lam, t):
        # a c2 that grows in time, so each time has its own spectrum
        calls.append(np.shape(t))
        alpha = alpha_coeffs(coeffs, lam, t)
        alpha[2] *= 1.0 + 0.01 * np.asarray(t)
        return alpha

    monkeypatch.setattr(fock_oracle, "alpha_coeffs", drifting_alpha)
    _, drift = invariant_eigen_flow(coeffs, LAM, times, basis)
    assert calls == [times.shape]
    pairwise = [
        invariant_eigen_flow(coeffs, LAM, [times[0], t], basis)[1] for t in times[1:]
    ]
    assert drift > 1e-3
    assert drift == pytest.approx(max(pairwise), rel=1e-12)


def test_invariant_spectrum_flat_driver():
    basis = FockBasis(6)
    coeffs = invariant_coeffs_for(1.0, 0.4)
    _, drift = invariant_eigen_flow(
        coeffs, TimeProfile.constant(0.0), np.linspace(0.0, 5.0, 4), basis
    )
    assert drift == 0.0


def test_invariant_spectrum_detects_tampering():
    basis = FockBasis(6)
    gens = build_generators(basis)
    coeffs = invariant_coeffs_for(1.0, 0.4)
    t = 2.0
    alpha = alpha_coeffs(coeffs, LAM, t)
    tampered = alpha.copy()
    tampered[2] = 1.01 * tampered[2]
    clean = sort_along_line(
        np.linalg.eigvals(element_matrix(AlgebraElement(alpha), gens)[2])
    )
    dirty = sort_along_line(
        np.linalg.eigvals(element_matrix(AlgebraElement(tampered), gens)[2])
    )
    assert np.max(np.abs(dirty - clean)) > 1e-3


def test_metric_floors_certify_positivity():
    basis = FockBasis(8)
    gens = build_generators(basis)
    rng = np.random.default_rng(71)
    draws = [DysonParams(0.0, 0.0, 0.9, -0.4), DysonParams(0.2, -0.3, 1.5, 0.8)]
    draws += [DysonParams(*rng.normal(scale=0.7, size=4)) for _ in range(3)]
    for params in draws:
        floors, observed = metric_spectrum_report(basis, gens, params)
        for k in basis.blocks():
            assert floors[k] > 0.0
            assert observed[k] > 0.0
            assert floors[k] <= observed[k] * (1 + 1e-12)
            assert floors[k] == metric_floor(params, k)


def test_stacked_metric_report_equals_per_params_calls():
    basis = FockBasis(8)
    gens = build_generators(basis)
    consts = default_scenario().ep_constants()
    times = np.linspace(0.0, 10.0, 7)
    floors, observed = metric_spectrum_report(
        basis, gens, scenario_params(consts, LAM, times)
    )
    for i, t in enumerate(times):
        params = scenario_params(consts, LAM, float(t))
        want = metric_spectrum_report(basis, gens, params)
        assert [f[i] for f in floors] == want[0]
        assert [o[i] for o in observed] == want[1]


def test_spectral_norms_match_the_svd():
    rng = np.random.default_rng(83)
    norms = fock_oracle._spectral_norms
    for n in (1, 2, 5, 11):
        a = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
        # near 1e200 the unscaled Gram product overflows, near 1e-200 it
        # underflows; the SVD handles both
        for scale in (1.0, 1e200, 1e-200):
            got = norms(scale * a)
            want = np.linalg.svd(scale * a, compute_uv=False)[:, 0]
            assert np.all(np.abs(got - want) <= 1e-14 * want)
            assert [norms(m) for m in scale * a] == list(got)
    assert norms(np.zeros((3, 3))) == 0.0


def svd_spin_ladder(params, k):
    # block k carries sqrt(det M) Sym^k(M) for the 2x2 image M, so the
    # metric block's smallest eigenvalue is |det M| s2^(2k); s2 = |det M| / s1
    # avoids the cancellation of the smaller singular value
    matrix = group_matrix(params)
    det = np.abs(np.linalg.det(matrix))
    s2 = det / np.linalg.svd(matrix, compute_uv=False)[..., 0]
    return det * s2 ** (2 * k)


def test_metric_report_matches_the_spin_ladder():
    consts = default_scenario().ep_constants()
    cases = (
        (FockBasis(12), scenario_params(consts, LAM, validation.sample_times())),
        (FockBasis(24), scenario_params(consts, LAM, 10.0)),
    )
    for basis, params in cases:
        safe = build_generators(basis)[: basis.size - 1]  # buffer 2
        floors, observed = metric_spectrum_report(basis, safe, params)
        assert len(floors) == basis.size + 1
        assert len(observed) == basis.size - 1
        for k, obs in enumerate(observed):
            exact = svd_spin_ladder(params, k)
            assert np.all(np.abs(obs - exact) <= 1e-10 * exact), k
            assert np.all(floors[k] <= obs)


def _forward_svd_report(basis, gens, params):
    # the smallest singular value of the forward map's block, squared: it
    # is lost to rounding once the block's condition number nears 1e16
    floors = [metric_floor(params, k) for k in basis.blocks()]
    return floors, [
        np.linalg.svd(fock_oracle._block_map(f, params), compute_uv=False)[..., -1] ** 2
        for f in fock_oracle._block_factors(gens)
    ]


def test_metric_positivity_fails_on_the_forward_map_svd(monkeypatch):
    assert validation.check_metric_positivity().passed
    monkeypatch.setattr(validation, "metric_spectrum_report", _forward_svd_report)
    result = validation.check_metric_positivity()
    assert not result.passed
    failed = [s.label for s in result.subchecks if not s.ok]
    assert failed == ["observed vs spin-ladder minimum (safe blocks)"]


def test_metric_positivity_fails_on_a_floor_above_the_spin_ladder(monkeypatch):
    # the floor reads 0.994 of the exact minimum at its tightest; 1% more
    # puts it above, which only the floor-over-ladder subcheck can see
    floor = fock_oracle.metric_floor
    monkeypatch.setattr(fock_oracle, "metric_floor", lambda p, k: 1.01 * floor(p, k))
    result = validation.check_metric_positivity()
    failed = [s.label for s in result.subchecks if not s.ok]
    assert failed == ["closed-form floor / spin-ladder minimum (blocks 1..size)"]


def test_metric_positivity_fails_on_a_ladder_one_block_too_high(monkeypatch):
    # block k read at block k + 1's bottom end: both the observed minimum and
    # the floor then sit about 100 times above the reference
    ladder = fock_oracle._spin_ladder

    def shifted(eta0, eta1, k_top):
        ends = ladder(eta0, eta1, k_top + 1)
        ends[1, :-1] = ends[1, 1:]
        return ends[:, :-1]

    monkeypatch.setattr(validation, "_spin_ladder", shifted)
    result = validation.check_metric_positivity()
    failed = [s.label for s in result.subchecks if not s.ok]
    assert failed == [
        "observed vs spin-ladder minimum (safe blocks)",
        "closed-form floor / spin-ladder minimum (blocks 1..size)",
    ]


def test_scalar_call_shapes_keep_their_returns():
    # scalar params, one-time lists, explicit gens= and buffer=: the call
    # shapes of the per-layer benchmark timings
    basis = FockBasis(8)
    gens = build_generators(basis)
    assert [g.shape for g in gens] == [(4, k + 1, k + 1) for k in basis.blocks()]
    assert sum(g.nbytes for g in gens) == 64 * sum((k + 1) ** 2 for k in basis.blocks())
    sc = default_scenario()
    params = scenario_params(sc.ep_constants(), LAM, 1.4)
    eta = build_eta(basis, gens, params)
    assert eta.shape == (basis.dim, basis.dim)
    assert eta.nbytes == 16 * basis.dim**2
    floors, observed = metric_spectrum_report(basis, gens, params)
    assert len(floors) == len(observed) == basis.size + 1
    assert all(isinstance(v, float) and np.ndim(v) == 0 for v in floors + observed)
    for verify in (verify_dyson, verify_quasi_hermiticity):
        value = verify(sc, basis, [1.4], gens=gens, buffer=2)
        assert isinstance(value, float) and np.ndim(value) == 0
        assert value < 1e-8
