"""Truncated two-mode number-basis oracle.

Everything the closed forms claim is reproducible here by linear algebra
on a finite basis.  The four quadratic generators all preserve the total
excitation number, so every operator here is stored block by block: block
k is the spin-k/2 irrep of the Schwinger two-boson realization, and the
truncation at total <= size introduces no error inside any block.  The
only approximation anywhere is the five-point time derivative of the four
map parameters inside the two verification residuals; the map's own
derivative follows from those rates exactly, by the product rule.

One routine builds a block of the map in either direction, and the forward
map's derivative with it, for a stack of times at once; the two residuals
share one routine over blocks and chunks of times.  build_eta is the only
dense (dim x dim) view, kept for the per-layer benchmark.

No SVD runs here: a spectral norm is the square root of the top eigenvalue
of a Hermitian Gram product, and the metric's smallest eigenvalue on a
block is read from the largest singular value of the exact inverse block,
which keeps full relative accuracy.  Both ends of each block's singular
values follow from blocks 0 and 1 (_spin_ladder): the residuals' scale is
the top end and criterion 12's exact minimum the bottom; the defects get
an exact norm only where a cheap bound cannot settle a time's worst block.

Conditioning, not truncation, is the real constraint: the group factors
grow like exp(|gamma| * k) on block k, so checks that invert or normalize
by the map are run on the low blocks, and the residuals' `buffer` argument
skips the top blocks, whose rounding grows with their conditioning.
"""

import numpy as np

from .algebra_u2 import DysonParams
from .dyson import first_derivative, scenario_params
from .energy import f_pm
from .errors import ConstraintViolationError
from .invariants import alpha_coeffs

MIN_SIZE = 2
MAX_SIZE = 60

# Bytes of one residual stack of block maps and their derivatives over
# times; the residuals take times in chunks that keep the top block under it.
_STACK_BYTES = 2**19

# Step of the parameters' five-point rates, short of the rule's rounding.
_FD_STEP = 1e-3


class FockBasis:
    """Two-mode number states (na, nb) with na + nb <= size.

    Flat ordering is by total k = na + nb, first-mode count descending
    inside each block, so state (na, nb) sits at k (k + 1) / 2 + nb and the
    block of total k occupies a contiguous slice of length k + 1.
    """

    def __init__(self, size):
        if not MIN_SIZE <= size <= MAX_SIZE:
            raise ConstraintViolationError(
                f"size must satisfy {MIN_SIZE} <= size <= {MAX_SIZE}, got {size}"
            )
        self.size = int(size)
        self.dim = (self.size + 1) * (self.size + 2) // 2

    def block_slice(self, k):
        if not 0 <= k <= self.size:
            raise ConstraintViolationError(f"block {k} outside the basis")
        offset = k * (k + 1) // 2
        return slice(offset, offset + k + 1)

    def blocks(self):
        return range(self.size + 1)


def build_generators(basis):
    """The four generators on each block of the truncated basis.

    A list over blocks k = 0..size of (4, k+1, k+1) complex arrays, indexed
    by nb (na = k - nb).  The first two are the mode numbers plus one half
    on the diagonal; the mixing pair has elements sqrt((na + 1) nb) / 2
    between (na, nb) and (na + 1, nb - 1), real for the symmetric one and
    -i / +i for the antisymmetric one.  All four are Hermitian.
    """
    gens = []
    for k in basis.blocks():
        nb = np.arange(k + 1.0)
        # raising na lowers the local index nb by one: the superdiagonal
        ladder = np.diag(0.5 * np.sqrt((k - nb[1:] + 1) * nb[1:]), 1)
        gens.append(np.array([
            np.diag(k - nb + 0.5),
            np.diag(nb + 0.5),
            ladder + ladder.T,
            -1j * ladder + 1j * ladder.T,
        ]))
    return gens


def element_matrix(elem, gens):
    """Per-block matrices of an algebra element on gens' blocks; stacks stack."""
    return [np.tensordot(elem.vector, g, (0, 0)) for g in gens]


def _block_factors(gens):
    """Time-independent pieces of the map, yielded block by block.

    Per block: the diagonals of the two number generators, the
    eigensystems of the two mixing generators and the overlap of their
    eigenbases.  Iterated once per public call, so no eigendecomposition
    runs inside a time or difference loop.
    """
    for g in gens:
        vals3, vecs3 = np.linalg.eigh(g[2])
        vals4, vecs4 = np.linalg.eigh(g[3])
        yield (g[0].diagonal().real, g[1].diagonal().real,
               vals3, vecs3, vals4, vecs4, vecs3.conj().T @ vecs4)


def _block_map(factors, params, inverse=False, rates=None):
    """One block of the ordered-product map, or of its exact inverse.

    Diagonal pair first, then the two mixing factors, each a Hermitian
    exponential through the block's eigensystem (computed once per call).
    The two exponentials meet through the eigenbasis overlap W, so the
    block is V3 M V4^H with M = D3 W D4: two products, the diagonal factors
    applied entry-wise.  The inverse is the reversed product with negated
    parameters, V4 (D4 W^H D3) V3^H.  Stacked params (one set per time)
    give a (..., k+1, k+1) stack.  Given the parameters' `rates` (forward
    only), the map and its exact time derivative come stacked as
    (2, ..., k+1, k+1): by the product rule the derivative's middle factor is
    (g3' vals3[:, None] + g4' vals4[None, :]) * M, through the same two
    products, plus (g1' d1 + g2' d2) times the map.
    """
    d1, d2, vals3, vecs3, vals4, vecs4, overlap = factors
    g1, g2, g3, g4 = (-1.0 if inverse else 1.0) * params.as_array()[..., None]
    diag = np.exp(g1 * d1 + g2 * d2)
    e3, e4 = np.exp(g3 * vals3), np.exp(g4 * vals4)
    if inverse:
        v_left, e_left, middle, v_right, e_right = vecs4, e4, overlap.conj().T, vecs3, e3
    else:
        v_left, e_left, middle, v_right, e_right = vecs3, e3, overlap, vecs4, e4
    # C-ordered: holds the middle factors, then the result (two such live at once)
    n = len(d1)
    out = np.empty((1 if rates is None else 2,) + e_left.shape[:-1] + (n, n), complex)
    np.multiply(e_left[..., :, None] * middle, e_right[..., None, :], out=out[0])
    if rates is not None:
        r1, r2, r3, r4 = rates.as_array()[..., None]
        out[1] = out[0] * ((r3 * vals3)[..., :, None] + (r4 * vals4)[..., None, :])
    # the right factor multiplies every row of the stack: one flat product
    rows = out.reshape(-1, n)
    np.matmul((v_left @ out).reshape(rows.shape), v_right.conj().T, out=rows)
    out *= diag[..., None, :] if inverse else diag[..., :, None]
    if rates is None:
        return out[0]
    out[1] += (r1 * d1 + r2 * d2)[..., :, None] * out[0]
    return out


def build_eta(basis, gens, params):
    """Dense matrix of the ordered-product group map, assembled block by block."""
    # the only dense (dim x dim) array of the module: the blocks on a diagonal
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for k, f in enumerate(_block_factors(gens)):
        sl = basis.block_slice(k)
        out[sl, sl] = _block_map(f, params)
    return out


def _spectral_norms(a):
    """Largest singular value of each matrix in a (..., n, n) stack.

    The square root of the top eigenvalue of the Hermitian Gram product,
    which is accurate to rounding relative to the norm itself.  Each
    matrix is first scaled by the power of two of its largest entry, so
    the Gram product cannot overflow or underflow where the matrix fits.
    The Gram product is formed from contiguous operands, so a stacked call
    equals the per-matrix calls bit for bit.  A matrix with a NaN or inf
    entry gets its largest magnitude, NaN or inf, instead of an error.
    """
    peak = np.max(np.abs(a), axis=(-2, -1))
    _, exponent = np.frexp(peak)
    scaled = np.ldexp(1.0, -exponent)[..., None, None] * a
    finite = np.isfinite(peak)
    scaled[~finite] = 0.0
    adjoint = np.ascontiguousarray(np.swapaxes(scaled.conj(), -1, -2))
    top = np.linalg.eigvalsh(adjoint @ np.ascontiguousarray(scaled))[..., -1]
    return np.where(finite, np.ldexp(np.sqrt(top), exponent), peak)


def _norm_bounds(a):
    """Upper bounds on the spectral norms of a (..., n, n) stack.

    |A|_2 <= min(|A|_F, sqrt(|A|_1 |A|_inf)) holds for every matrix, and
    both sides are tight for rank-one and for diagonal matrices.  Scaled
    by the power of two of the largest entry, as in _spectral_norms, so
    that no square underflows to below the true bound.  A NaN entry gives
    a NaN bound.
    """
    mag = np.abs(a)
    _, exponent = np.frexp(np.max(mag, axis=(-2, -1)))
    mag *= np.ldexp(1.0, -exponent)[..., None, None]
    frobenius = np.sqrt(np.sum(mag * mag, axis=(-2, -1)))
    one = np.max(np.sum(mag, axis=-2), axis=-1)
    inf = np.max(np.sum(mag, axis=-1), axis=-1)
    return np.ldexp(np.minimum(frobenius, np.sqrt(one * inf)), exponent)


def _spin_ladder(eta0, eta1, k_top):
    """Both ends of the singular values of blocks 0..k_top, from blocks 0 and 1.

    Block k is eta_0 Sym^k(eta_1 / eta_0) (the Schwinger realization), so its
    ends are |eta_0| (s / |eta_0|)^k for s = |eta_1|_2 and |eta_0|^4 / |eta_1|_2
    (each factor exp(g_i K_i) has a 2x2 determinant equal to the square of
    its block-0 value).  The powers are running products of the mantissas,
    exponents apart, so they round alike whatever the stack's length.  Takes
    (..., 1, 1) and (..., 2, 2) stacks; returns the ends, (2, k_top + 1, ...),
    top first.  A power of an end keeps its mantissa's rounding: ldexp is exact.
    """
    m0, e0 = np.frexp(np.abs(eta0[..., 0, 0]))
    m1, e1 = np.frexp(_spectral_norms(eta1))
    m2, e2 = np.frexp(m0**4 / m1)
    steps = np.empty((2, k_top + 1) + m0.shape)
    steps[:, 0], steps[0, 1:], steps[1, 1:] = m0, m1 / m0, m2 / m0
    e_ends = np.stack([e1, e2 + 4 * e0 - e1])[:, None]
    k = np.arange(k_top + 1).reshape((-1,) + (1,) * m0.ndim)
    return np.ldexp(np.cumprod(steps, axis=1), e0 + k * (e_ends - e0))


def _block_residuals(defect, power, scenario, basis, times, gens, buffer):
    """Worst per-block ratio of a defect to its scale at each time.

    defect(eta, eta_dot, ham, herm) receives one block of the map, its
    exact time derivative (from the parameters' five-point rates), the
    non-Hermitian generator and the Hermitian image, each stacked over
    times, and returns the defect; its spectral norm over the block's scale
    |eta_k|_2 ** power is the block's residual, the scale the top end of
    _spin_ladder over the map's own blocks 0 and 1 at each time.
    Only blocks 0..size - buffer are built, each with its derivative once
    per chunk of times, walked from the top down.  Each defect first
    gets the cheap bound of _norm_bounds; the exact norm runs only at the
    times where that bound cannot rule the block out as the worst so far,
    so the result equals, bit for bit, the one with every block solved.  A
    NaN is never ruled out.  Returns one worst-over-blocks value per time.
    """
    k_top = basis.size - buffer
    if k_top < 1:
        raise ConstraintViolationError(
            f"oracle residuals need size - buffer >= 1, got size {basis.size}, "
            f"buffer {buffer}"
        )
    if gens is None:
        gens = build_generators(basis)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    consts = scenario.ep_constants()

    def gammas_at(t):
        return scenario_params(consts, scenario.lam, t, q1=scenario.q1).as_array()

    gammas = gammas_at(times)
    rates = first_derivative(gammas_at, times, _FD_STEP, scenario.t_max())
    # per-time coefficients, broadcast against the blocks
    coeffs = np.array(
        [scenario.a(times), scenario.lam(times), *f_pm(scenario, times)]
    )[..., None, None]
    factors = list(_block_factors(gens[: k_top + 1]))
    low = [_block_map(f, DysonParams(*gammas)) for f in factors[:2]]
    scales = _spin_ladder(*low, k_top)[0] ** power
    del low  # only the scales live through the block loop
    # 16 bytes per complex entry, the map and its derivative per time
    step = max(1, _STACK_BYTES // (32 * (k_top + 1) ** 2))
    chunks = [slice(i, i + step) for i in range(0, times.size, step)]
    worst = np.zeros(times.shape)
    for k in range(k_top, -1, -1):
        (k1, k2, k3), f, scale = gens[k][:3], factors[k], scales[k]
        for sl in chunks:
            a_t, lam_t, f_plus, f_minus = coeffs[:, sl]
            eta, eta_dot = _block_map(
                f, DysonParams(*gammas[:, sl]), rates=DysonParams(*rates[:, sl])
            )
            ham = a_t * (k1 + k2) + 1j * lam_t * k3
            herm = f_plus * k1 + f_minus * k2
            resid = defect(eta, eta_dot, ham, herm)
            # 1e-12 covers the rounding of the bound and of the exact norm
            live = ~(_norm_bounds(resid) / scale[sl] * (1.0 + 1e-12) <= worst[sl])
            if live.any():
                rows = sl.start + np.flatnonzero(live)
                ratio = _spectral_norms(resid[live]) / scale[rows]
                worst[rows] = np.maximum(worst[rows], ratio)
    return worst


def dyson_residuals(scenario, basis, times, gens=None, buffer=2):
    """Worst per-block relative residual of the intertwining relation, per time.

    The map composed with the non-Hermitian generator plus i times the map's
    time derivative must equal the Hermitian image composed with the map;
    the residual of each block is normalized by that block's spectral norm
    of the map, taken from the spin ladder of blocks 0 and 1.  Blocks above
    size - buffer are skipped: with the exact derivative they add only
    rounding, which grows with the block's conditioning.  Returns one value
    per time.
    """

    def defect(eta, eta_dot, ham, herm):
        return eta @ ham + 1j * eta_dot - herm @ eta

    return _block_residuals(defect, 1, scenario, basis, times, gens, buffer)


def verify_dyson(scenario, basis, times, gens=None, buffer=2):
    """The worst of dyson_residuals over the times."""
    return np.max(dyson_residuals(scenario, basis, times, gens, buffer))


def quasi_hermiticity_residuals(scenario, basis, times, gens=None, buffer=2):
    """Worst per-block relative residual of the metric compatibility law, per time.

    The adjoint generator composed with the metric, minus the metric
    composed with the generator, must equal i times the metric's time
    derivative; normalized per block by the metric's spectral norm, the
    square of the map block's.  Returns one value per time.
    """

    def defect(eta, eta_dot, ham, herm):
        eta_h, eta_dot_h, ham_h = (
            np.swapaxes(m.conj(), -1, -2) for m in (eta, eta_dot, ham)
        )
        rho = eta_h @ eta
        rho_dot = eta_dot_h @ eta + eta_h @ eta_dot
        return ham_h @ rho - rho @ ham - 1j * rho_dot

    return _block_residuals(defect, 2, scenario, basis, times, gens, buffer)


def verify_quasi_hermiticity(scenario, basis, times, gens=None, buffer=2):
    """The worst of quasi_hermiticity_residuals over the times."""
    return np.max(quasi_hermiticity_residuals(scenario, basis, times, gens, buffer))


def sort_along_line(vals):
    """Deterministic order for eigenvalues that lie on a line in the plane.

    Lexicographic complex sorting is unstable when real parts agree up to
    rounding (the broken-spectrum blocks are exactly that case), so the
    values are projected onto the direction of their largest deviation from
    the mean and ordered by that projection.  Stable whenever the spacing
    along the line dominates the rounding noise.  A (..., n) stack is
    sorted row by row.
    """
    vals = np.asarray(vals, dtype=complex)
    if vals.ndim == 0 or vals.shape[-1] < 2:
        return vals.copy()
    n = vals.shape[-1]
    # flat offset of each row: one fancy index gathers an entry per row
    rows = np.arange(0, vals.size, n).reshape(vals.shape[:-1] + (1,))
    # the sum over n is the mean, bit for bit, at half its call cost
    dev = vals - vals.sum(axis=-1, keepdims=True) / n
    pivot = dev.reshape(-1)[rows + np.abs(dev).argmax(axis=-1, keepdims=True)]
    # a row whose values all coincide has no direction; any order is sorted
    size = np.abs(pivot)
    direction = np.divide(pivot, size, out=np.ones_like(pivot), where=size > 0.0)
    # orient by the dominant component; the minor one is rounding noise
    re, im = direction.real, direction.imag
    major = np.where(abs(im) > abs(re), im, re)
    np.negative(direction, out=direction, where=major < 0)
    keys = dev / direction
    order = np.lexsort((keys.imag, keys.real), axis=-1)
    return vals.reshape(-1)[rows + order]


def broken_spectrum_numeric(a_value, lam_value, basis):
    """Eigenvalues of the equal-frequency non-Hermitian generator, per block.

    Block of total k carries a_value (k + 1) on the diagonal plus i lam
    times the symmetric mixing generator; returns a list over blocks of
    eigenvalue arrays ordered along the (vertical) line they lie on.
    """
    gens = build_generators(basis)
    hams = (a_value * (g[0] + g[1]) + 1j * lam_value * g[2] for g in gens)
    return [sort_along_line(np.linalg.eigvals(ham)) for ham in hams]


def _line_eigenvalues(v, j_ops, center, k):
    """Eigenvalues of center I + v . J on a block, conditioning-proof.

    v is a (T, 3) stack of complex 3-vectors and center a (T,) stack; the
    result is (T, k + 1).  Each v has p = Re v, q = Im v, p . q = 0 and
    mu^2 = |p|^2 - |q|^2 > 0 (the reality conditions).  In the ladder basis
    of the real direction p x q the matrix is exactly tridiagonal;
    unscaling the hyperbolic factor exp(zeta J) with sinh(zeta) = |q| / mu
    leaves an exactly normal matrix, so the eigenvalues come out accurate
    to machine precision instead of degrading like exp(zeta k).  The scale
    orientation is picked as the candidate with the smaller Frobenius norm
    (the wrong sign inflates one off-diagonal by exp(2 zeta)).  Snapshots
    violating the reality conditions fall back to the plain solver.  One
    stacked eigh and two stacked eigvals serve every snapshot.
    """
    j1, j2, j3 = j_ops
    block = center[:, None, None] * np.eye(k + 1, dtype=complex)
    block += v[:, 0, None, None] * j1 + v[:, 1, None, None] * j2
    block += v[:, 2, None, None] * j3
    p, q = v.real, v.imag
    mu2 = np.sum(p * p, axis=-1) - np.sum(q * q, axis=-1)
    pn, qn = np.linalg.norm(p, axis=-1), np.linalg.norm(q, axis=-1)
    # p x q written out; on short stacks np.cross costs twice the arithmetic
    (p1, p2, p3), (q1, q2, q3) = p.T, q.T
    axis = np.stack([p2 * q3 - p3 * q2, p3 * q1 - p1 * q3, p1 * q2 - p2 * q1], -1)
    axis_norm = np.linalg.norm(axis, axis=-1)
    normal = (
        (mu2 > 0.0)
        & (qn > 1e-13 * np.maximum(pn, 1.0))
        & (axis_norm > 1e-13 * pn * qn)
    )
    out = np.empty((len(v), k + 1), dtype=complex)
    out[~normal] = np.linalg.eigvals(block[~normal])
    axis = axis[normal] / axis_norm[normal, None]
    zeta = np.arcsinh(qn[normal] / np.sqrt(mu2[normal]))
    ladder = axis[:, 0, None, None] * j1 + axis[:, 1, None, None] * j2
    ladder += axis[:, 2, None, None] * j3
    _, w = np.linalg.eigh(ladder)
    tri = np.swapaxes(w.conj(), -1, -2) @ block[normal] @ w
    # everything outside the three diagonals is structurally zero
    tri = np.triu(np.tril(tri, 1), -1)
    m = np.arange(k + 1) - 0.5 * k
    skew = zeta[:, None, None] * (m[None, :] - m[:, None])
    up, down = tri * np.exp(skew), tri * np.exp(-skew)
    smaller = np.linalg.norm(up, axis=(-2, -1)) <= np.linalg.norm(down, axis=(-2, -1))
    out[normal] = np.linalg.eigvals(np.where(smaller[:, None, None], up, down))
    return out


def invariant_eigen_flow(coeffs, lam, times, basis):
    """Sorted invariant eigenvalues per block at times[0], and their drift.

    A plain eigensolver cannot certify constancy here: the invariant's
    eigenvector condition number grows exponentially in both the block
    index and the integrated driver, swamping the interesting scale long
    before the top block.  Each block is center I plus a complex 3-vector
    contracted with the block's traceless directions, which
    _line_eigenvalues diagonalizes through its exact normal form, for all
    times in one stacked solve per block.  Returns (reference, drift): the
    sorted eigenvalue arrays at times[0] and the largest absolute deviation
    from them over the later times.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    a1, a2, a3, a4 = alpha_coeffs(coeffs, lam, times)
    v = np.stack([a3, a4, a1 - a2], axis=-1)
    center = 0.5 * (a1 + a2)
    reference = []
    drift = 0.0
    for k, g in enumerate(build_generators(basis)):
        # traceless directions: mixing pair, half the number imbalance
        ops = (g[2], g[3], 0.5 * (g[0] - g[1]))
        eigs = sort_along_line(_line_eigenvalues(v, ops, center * (k + 1), k))
        reference.append(eigs[0])
        drift = max(drift, float(np.max(np.abs(eigs[1:] - eigs[0]), initial=0.0)))
    return reference, drift


def metric_floor(params, k):
    """Closed-form positive lower bound on the metric block's smallest eigenvalue.

    The smallest singular value of a product is at least the product of the
    smallest singular values.  The diagonal factor's smallest entry on the
    block of total k sits at one of the two endpoints; each Hermitian
    mixing factor has singular values no smaller than exp(-|gamma| k / 2)
    because the mixing generators have spectrum in [-k/2, k/2] there.
    The metric block inherits the square of the bound.  Strictly positive
    for every finite parameter set, which is the point.
    """
    g1, g2, g3, g4 = params.as_array()
    lowest_diag = np.minimum(g1 * k, g2 * k) + 0.5 * (g1 + g2)
    sigma = np.exp(lowest_diag - 0.5 * (np.abs(g3) + np.abs(g4)) * k)
    return sigma * sigma


def metric_spectrum_report(basis, gens, params):
    """Per-block rigorous floors next to observed smallest metric eigenvalues.

    Returns (floors, observed).  floors covers every block of `basis`;
    observed covers the blocks of the `gens` passed in, so a caller that
    skips the top blocks passes gens[: k + 1] and they are never built.
    observed[k] is 1 / |eta_k^{-1}|_2^2, the metric block's smallest
    eigenvalue.  The norm is the largest singular value of the exact
    inverse block, so it keeps full relative accuracy where the smallest
    singular value of the map itself is lost to rounding on ill-conditioned
    blocks.  floors[k] <= observed[k] certifies positivity without
    trusting the numerics (criterion 12 checks the floor against the exact
    minimum of _spin_ladder on blocks 1..size; on block 0 they are equal);
    the observed value shows the actual margin.
    Block eigensystems are computed once per call; stacked params give arrays.
    """
    floors = [metric_floor(params, k) for k in basis.blocks()]
    observed = []
    for f in _block_factors(gens):
        # each inverse block lives only for its own norm
        s = _spectral_norms(_block_map(f, params, inverse=True))
        observed.append(1.0 / (s * s))
    return floors, observed
