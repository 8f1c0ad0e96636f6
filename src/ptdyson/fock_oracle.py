"""Truncated two-mode number-basis oracle.

Everything the closed forms claim is reproducible here by linear algebra
on a finite basis.  The four quadratic generators all preserve the total
excitation number, so every operator here is stored block by block: block
k is the spin-k/2 irrep of the Schwinger two-boson realization, and the
truncation at total <= size introduces no error inside any block.  The
only approximation anywhere is the finite-difference time derivative
inside the two verification residuals.

One routine builds a block of the map in either direction, for a stack of
times at once, from mixing-generator eigensystems computed once per call;
the two residuals share one routine that builds each block over chunks of
times and all finite-difference nodes.  build_eta is the only dense
(dim x dim) view, kept for the per-layer benchmark.

Conditioning, not truncation, is the real constraint: the group factors
grow like exp(|gamma| * k) on block k, so checks that invert or normalize
by the map are run on the low blocks, and the residuals' `buffer` argument
skips the top blocks, where the fastest-growing singular direction makes
the finite-difference step stop being the leading error.
"""

import numpy as np

from .algebra_u2 import DysonParams
from .dyson import scenario_params
from .energy import f_pm
from .errors import ConstraintViolationError
from .invariants import alpha_coeffs

MIN_SIZE = 2
MAX_SIZE = 60

# Bytes of one residual stack of block maps over times and stencil rows;
# the residuals take times in chunks that keep the top block under it.
_STACK_BYTES = 2**19


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


def element_matrix(elem, basis, gens=None):
    """Per-block matrices of a Lie-algebra element; stacked elements stack."""
    if gens is None:
        gens = build_generators(basis)
    return [np.tensordot(elem.vector, g, (0, 0)) for g in gens]


def _block_factors(gens):
    """Time-independent pieces of the map, yielded block by block.

    Per block: the diagonals of the two number generators and the
    eigensystems of the two mixing generators.  Iterated once per public
    call, so no eigendecomposition runs inside a time or difference loop.
    """
    return (
        (g[0].diagonal().real, g[1].diagonal().real,
         np.linalg.eigh(g[2]), np.linalg.eigh(g[3]))
        for g in gens
    )


def _block_map(factors, params, inverse=False):
    """One block of the ordered-product map, or of its exact inverse.

    Diagonal pair first, then the two mixing factors, each a Hermitian
    exponential through the block's eigensystem (computed once per call);
    the inverse is the reversed product with negated parameters.  Stacked
    params (one set per time) give a (..., k+1, k+1) stack.
    """
    d1, d2, (vals3, vecs3), (vals4, vecs4) = factors
    g1, g2, g3, g4 = (-1.0 if inverse else 1.0) * params.as_array()[..., None]
    diag = np.exp(g1 * d1 + g2 * d2)
    e3 = (vecs3 * np.exp(g3 * vals3)[..., None, :]) @ vecs3.conj().T
    e4 = (vecs4 * np.exp(g4 * vals4)[..., None, :]) @ vecs4.conj().T
    out = e4 @ e3 if inverse else e3 @ e4
    out *= diag[..., None, :] if inverse else diag[..., :, None]  # no extra stack
    return out


def build_eta(basis, gens, params):
    """Dense matrix of the ordered-product group map, assembled block by block."""
    # the only dense (dim x dim) array of the module: the blocks on a diagonal
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for k, f in enumerate(_block_factors(gens)):
        sl = basis.block_slice(k)
        out[sl, sl] = _block_map(f, params)
    return out


# Second-order first derivatives times 2 h, as (offset / h, weight) per node:
# central, forward, backward.  Every row starts at the time itself, so the
# first node's map is the map at t.
_STENCILS = np.array([
    [(0.0, 0.0), (1.0, 1.0), (-1.0, -1.0)],
    [(0.0, -3.0), (1.0, 4.0), (2.0, -1.0)],
    [(0.0, 3.0), (-1.0, -4.0), (-2.0, 1.0)],
])


def _fd_stencil(times, fd_step, t_max):
    """Nodes and weights, each (3, T), of a first derivative times 2 fd_step.

    Central inside [0, t_max], one-sided at the domain edges.
    """
    h = fd_step
    kind = np.where(times - h < 0.0, 1, np.where(times + h <= t_max, 0, 2))
    offsets, weights = _STENCILS[kind].T
    return times + h * offsets, weights


def _block_residuals(defect, scenario, basis, times, gens, fd_step, buffer):
    """Worst per-block ratio of a defect to its scale at each time.

    defect(eta, eta_dot, ham, herm) receives one block of the map, its
    finite-difference time derivative, the non-Hermitian generator and the
    Hermitian image, each stacked over times, and returns (defect, scale);
    the ratio of their spectral norms is the block's residual.  Only blocks
    0..size - buffer are built, each once per chunk of times for all
    stencil nodes.  Returns one worst-over-blocks value per time.
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
    nodes, weights = _fd_stencil(times, fd_step, scenario.t_max())
    gammas = scenario_params(
        scenario.ep_constants(), scenario.lam, nodes, q1=scenario.q1
    ).as_array()
    # per-time coefficients and stencil weights, broadcast against the blocks
    coeffs = np.array(
        [scenario.a(times), scenario.lam(times), *f_pm(scenario, times), *weights]
    )[..., None, None]
    # 16 bytes per complex entry, one map per stencil row
    step = max(1, _STACK_BYTES // (16 * len(_STENCILS[0]) * (k_top + 1) ** 2))
    chunks = [slice(i, i + step) for i in range(0, times.size, step)]
    worst = np.zeros(times.shape)
    for g, f in zip(gens, _block_factors(gens[: k_top + 1])):
        k1, k2, k3 = g[:3]
        for sl in chunks:
            a_t, lam_t, f_plus, f_minus, *w = coeffs[:, sl]
            stencil = _block_map(f, DysonParams(*gammas[..., sl]))
            eta = stencil[0]
            eta_dot = sum(wi * m for wi, m in zip(w, stencil)) / (2.0 * fd_step)
            ham = a_t * (k1 + k2) + 1j * lam_t * k3
            herm = f_plus * k1 + f_minus * k2
            resid, scale = defect(eta, eta_dot, ham, herm)
            norms = np.linalg.norm(np.stack([resid, scale]), 2, axis=(-2, -1))
            worst[sl] = np.maximum(worst[sl], norms[0] / norms[1])
    return worst


def dyson_residuals(scenario, basis, times, gens=None, fd_step=1e-5, buffer=2):
    """Worst per-block relative residual of the intertwining relation, per time.

    The map composed with the non-Hermitian generator plus i times the map's
    time derivative must equal the Hermitian image composed with the map;
    the residual of each block is normalized by that block's spectral norm
    of the map.  Blocks above size - buffer are skipped (their norms are
    dominated by the fastest-growing singular direction and the
    finite-difference step stops being the leading error there).  Returns
    one value per time.
    """

    def defect(eta, eta_dot, ham, herm):
        return eta @ ham + 1j * eta_dot - herm @ eta, eta

    return _block_residuals(defect, scenario, basis, times, gens, fd_step, buffer)


def verify_dyson(scenario, basis, times, gens=None, fd_step=1e-5, buffer=2):
    """The worst of dyson_residuals over the times."""
    return np.max(dyson_residuals(scenario, basis, times, gens, fd_step, buffer))


def quasi_hermiticity_residuals(
    scenario, basis, times, gens=None, fd_step=1e-5, buffer=2
):
    """Worst per-block relative residual of the metric compatibility law, per time.

    The adjoint generator composed with the metric, minus the metric
    composed with the generator, must equal i times the metric's time
    derivative; normalized per block by the metric's spectral norm.
    Returns one value per time.
    """

    def defect(eta, eta_dot, ham, herm):
        eta_h, eta_dot_h, ham_h = (
            np.swapaxes(m.conj(), -1, -2) for m in (eta, eta_dot, ham)
        )
        rho = eta_h @ eta
        rho_dot = eta_dot_h @ eta + eta_h @ eta_dot
        return ham_h @ rho - rho @ ham - 1j * rho_dot, rho

    return _block_residuals(defect, scenario, basis, times, gens, fd_step, buffer)


def verify_quasi_hermiticity(scenario, basis, times, gens=None, fd_step=1e-5, buffer=2):
    """The worst of quasi_hermiticity_residuals over the times."""
    return np.max(
        quasi_hermiticity_residuals(scenario, basis, times, gens, fd_step, buffer)
    )


def sort_along_line(vals):
    """Deterministic order for eigenvalues that lie on a line in the plane.

    Lexicographic complex sorting is unstable when real parts agree up to
    rounding (the broken-spectrum blocks are exactly that case), so the
    values are projected onto the direction of their largest deviation from
    the mean and ordered by that projection.  Stable whenever the spacing
    along the line dominates the rounding noise.
    """
    vals = np.asarray(vals, dtype=complex)
    if vals.size < 2:
        return vals.copy()
    dev = vals - vals.mean()
    pivot = dev[np.argmax(np.abs(dev))]
    if abs(pivot) == 0.0:
        return np.sort_complex(vals)
    direction = pivot / abs(pivot)
    # orient by the dominant component; the minor one is rounding noise
    if max(direction.real, direction.imag, key=abs) < 0:
        direction = -direction
    keys = dev / direction
    order = np.lexsort((keys.imag, keys.real))
    return vals[order]


def broken_spectrum_numeric(a_value, lam_value, basis, gens=None):
    """Eigenvalues of the equal-frequency non-Hermitian generator, per block.

    Block of total k carries a_value (k + 1) on the diagonal plus i lam
    times the symmetric mixing generator; returns a list over blocks of
    eigenvalue arrays ordered along the (vertical) line they lie on.
    """
    if gens is None:
        gens = build_generators(basis)
    hams = (a_value * (g[0] + g[1]) + 1j * lam_value * g[2] for g in gens)
    return [sort_along_line(np.linalg.eigvals(ham)) for ham in hams]


def _line_eigenvalues(v, j_ops, center, k):
    """Eigenvalues of center I + v . J on a block, conditioning-proof.

    v is a complex 3-vector with p = Re v, q = Im v, p . q = 0 and
    mu^2 = |p|^2 - |q|^2 > 0 (the reality conditions).  In the ladder basis
    of the real direction p x q the matrix is exactly tridiagonal;
    unscaling the hyperbolic factor exp(zeta J) with sinh(zeta) = |q| / mu
    leaves an exactly normal matrix, so the eigenvalues come out accurate
    to machine precision instead of degrading like exp(zeta k).  The scale
    orientation is picked as the candidate with the smaller Frobenius norm
    (the wrong sign inflates one off-diagonal by exp(2 zeta)).  Snapshots
    violating the reality conditions fall back to the plain solver.
    """
    j1, j2, j3 = j_ops
    block = center * np.eye(k + 1, dtype=complex)
    block += v[0] * j1 + v[1] * j2 + v[2] * j3
    p, q = v.real, v.imag
    mu2 = float(p @ p - q @ q)
    pn, qn = np.linalg.norm(p), np.linalg.norm(q)
    if mu2 <= 0.0 or qn <= 1e-13 * max(pn, 1.0):
        return np.linalg.eigvals(block)
    # p x q written out; on 3-vectors np.cross costs ~30x the arithmetic
    (p1, p2, p3), (q1, q2, q3) = p.tolist(), q.tolist()
    axis = np.array([p2 * q3 - p3 * q2, p3 * q1 - p1 * q3, p1 * q2 - p2 * q1])
    axis_norm = np.linalg.norm(axis)
    if axis_norm <= 1e-13 * pn * qn:
        return np.linalg.eigvals(block)
    axis = axis / axis_norm
    zeta = float(np.arcsinh(qn / np.sqrt(mu2)))
    ladder = axis[0] * j1 + axis[1] * j2 + axis[2] * j3
    _, w = np.linalg.eigh(ladder)
    tri = w.conj().T @ block @ w
    # everything outside the three diagonals is structurally zero
    tri = np.triu(np.tril(tri, 1), -1)
    m = np.arange(k + 1) - 0.5 * k
    cands = [tri * np.exp(s * zeta * (m[None, :] - m[:, None])) for s in (1.0, -1.0)]
    return np.linalg.eigvals(min(cands, key=np.linalg.norm))


def invariant_eigen_flow(coeffs, lam, times, basis, gens=None):
    """Sorted invariant eigenvalues per block at times[0], and their drift.

    A plain eigensolver cannot certify constancy here: the invariant's
    eigenvector condition number grows exponentially in both the block
    index and the integrated driver, swamping the interesting scale long
    before the top block.  Each block is center I plus a complex 3-vector
    contracted with the block's traceless directions, which
    _line_eigenvalues diagonalizes through its exact normal form instead.
    Returns (reference, drift): the sorted eigenvalue arrays at times[0]
    and the largest absolute deviation from them over the later times.
    """
    if gens is None:
        gens = build_generators(basis)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    # traceless directions per block: mixing pair, half the number imbalance
    spin_ops = [(g[2], g[3], 0.5 * (g[0] - g[1])) for g in gens]

    def block_eigs(a1, a2, a3, a4):
        v = np.array([a3, a4, a1 - a2], dtype=complex)
        center = 0.5 * (a1 + a2)
        return [
            sort_along_line(_line_eigenvalues(v, ops, center * (k + 1), k))
            for k, ops in enumerate(spin_ops)
        ]

    alpha = alpha_coeffs(coeffs, lam, times).T
    reference = block_eigs(*alpha[0])
    drift = 0.0
    for snapshot in alpha[1:]:
        for ref, now in zip(reference, block_eigs(*snapshot)):
            drift = max(drift, float(np.max(np.abs(now - ref))))
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

    Returns (floors, observed); observed[k] is the squared smallest singular
    value of the map's block, which equals the metric block's smallest
    eigenvalue.  floors[k] <= observed[k] certifies positivity without
    trusting the numerics; the observed value shows the actual margin.
    Block eigensystems are computed once per call; stacked params give arrays.
    """
    floors = [metric_floor(params, k) for k in basis.blocks()]
    return floors, [
        # each block's map lives only for its own SVD
        np.linalg.svd(_block_map(f, params), compute_uv=False)[..., -1] ** 2
        for f in _block_factors(gens)
    ]
