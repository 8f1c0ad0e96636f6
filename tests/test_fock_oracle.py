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
from ptdyson import fock_oracle
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
    got = element_matrix(AlgebraElement(coeffs), basis, gens)
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
            elem = block_diag(*element_matrix(basis_element(i), basis, gens))
            lhs = eta @ elem @ eta_inv
            rhs = block_diag(
                *element_matrix(conjugate(params, basis_element(i)), basis, gens)
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
    # t + fd_step beyond t_max forces the backward one-sided difference;
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
    return eta @ ham + 1j * eta_dot - herm @ eta, eta


def _metric_defect(eta, eta_dot, ham, herm):
    eta_h, eta_dot_h, ham_h = (
        np.swapaxes(m.conj(), -1, -2) for m in (eta, eta_dot, ham)
    )
    rho = eta_h @ eta
    rho_dot = eta_dot_h @ eta + eta_h @ eta_dot
    return ham_h @ rho - rho @ ham - 1j * rho_dot, rho


def separate_map_residuals(defect, sc, basis, times, fd_step=1e-5, buffer=2):
    # one time at a time, the map at t and the stencil nodes built as two
    # separate block maps, the central stencil on its two outer nodes alone
    gens = build_generators(basis)
    consts = sc.ep_constants()
    times = np.asarray(times, dtype=float)
    h = fd_step
    a_t, lam_t = sc.a(times), sc.lam(times)
    f_plus, f_minus = f_pm(sc, times)
    worst = np.zeros(times.shape)
    for i, t in enumerate(times):
        if t - h < 0.0:
            offsets, weights = (0.0, 1.0, 2.0), (-3.0, 4.0, -1.0)
        elif t + h <= sc.t_max():
            offsets, weights = (1.0, -1.0), (1.0, -1.0)
        else:
            offsets, weights = (0.0, -1.0, -2.0), (3.0, -4.0, 1.0)
        nodes = t + h * np.array(offsets)[:, None]
        at_t = scenario_params(consts, sc.lam, np.array([t]), q1=sc.q1)
        at_nodes = scenario_params(consts, sc.lam, nodes, q1=sc.q1)
        safe = gens[: basis.size - buffer + 1]
        for g, f in zip(safe, fock_oracle._block_factors(safe)):
            eta = fock_oracle._block_map(f, at_t)
            stencil = fock_oracle._block_map(f, at_nodes)
            eta_dot = sum(w * m for w, m in zip(weights, stencil)) / (2.0 * h)
            ham = a_t[i] * (g[0] + g[1]) + 1j * lam_t[i] * g[2]
            herm = f_plus[i] * g[0] + f_minus[i] * g[1]
            resid, scale = defect(eta, eta_dot, ham, herm)
            ratio = np.linalg.norm(resid[0], 2) / np.linalg.norm(scale[0], 2)
            worst[i] = max(worst[i], ratio)
    return worst


def test_the_map_at_t_from_the_stencil_equals_a_separate_map():
    # the first stencil node is the time itself, so its map is the map at
    # t; building that map on its own must give the same bits at interior
    # times, at t = 0 (forward stencil) and at t_max (backward stencil)
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
        for residuals, defect in (
            (dyson_residuals, _dyson_defect),
            (quasi_hermiticity_residuals, _metric_defect),
        ):
            got = residuals(sc, basis, times)
            want = separate_map_residuals(defect, sc, basis, times)
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


def test_residuals_detect_a_coarse_step():
    # a step of 0.1 leaves a second-order error in the map's derivative
    # that both residuals must report
    sc = default_scenario()
    basis = FockBasis(8)
    assert verify_dyson(sc, basis, [0.7, 2.5], fd_step=0.1) > 1e-4
    assert verify_quasi_hermiticity(sc, basis, [0.7, 2.5], fd_step=0.1) > 1e-4


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
        np.linalg.eigvals(element_matrix(AlgebraElement(alpha), basis, gens)[2])
    )
    dirty = sort_along_line(
        np.linalg.eigvals(element_matrix(AlgebraElement(tampered), basis, gens)[2])
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
