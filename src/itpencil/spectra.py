"""Companion linearization, eigen machinery, chains, counting bounds, and the
conditioning check of sampled inverses.  Every dense kernel runs in numpy's
OpenBLAS: numpy's eig and SVD, and the LU and Schur form through _blas.lapack."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._blas import lapack, single_blas_thread
from .discretize import DiscretePencil, _read_only, assemble_pencil, assemble_pencil_2d, make_grid
from .exceptions import (
    ClusterAmbiguityError,
    ConfigError,
    EigensolverError,
    SingularAtLambdaError,
    SingularPencilError,
)

_TRUST_RTOL = 1e-6
_RESIDUAL_TOL = 1e-7
_COND_CAP = 1e14
_FROB_CAP = 1e12  # a factor 100 under _COND_CAP for roundoff in a computed inverse
_REFINE_1D = 8  # extra grid points of the refined grid in solve_spectrum
_REFINE_2D = 4  # extra grid points per axis of the refined grid in solve_spectrum_2d
_REFERENCE_CANDIDATES = tuple(np.geomspace(1.0, 100.0, 13))  # find_reference_point's positive reals


def _sigma_range(X, where):
    """(largest, smallest) singular value of X, finite with the smallest positive
    and at most 1e14 below the largest; else SingularAtLambdaError at `where`."""
    try:
        sv = np.linalg.svd(X, compute_uv=False)
    except np.linalg.LinAlgError:  # "SVD did not converge", as on a NaN entry
        sv = np.full(1, np.nan)
    if not np.all(np.isfinite(sv)) or sv[-1] <= 0 or sv[0] / sv[-1] > _COND_CAP:
        raise SingularAtLambdaError(f"matrix is singular or near singular at {where}")
    return float(sv[0]), float(sv[-1])


def _checked_inverse(X, where, pencil=None):
    """X^{-1} by lapack().lu_inverse, raising exactly where "_sigma_range(C, where),
    then lapack().lu_inverse(X)" would.

    C is X, or B = pencil._scaled_T(where) for a weak-form X = pencil.T(where).
    The inverse certifies C without an SVD, as kappa_2(C) <= ||C||_F ||C^-1||_F,
    ||B||_F <= pencil._scaled_norm_bound(where) and ||B^-1||_F = ||S X^-1 S||_F
    <= ||M||_2 ||X^-1||_F.  A bound above _FROB_CAP, a NaN bound or a singular
    LU falls back to _sigma_range(C), the only place B is formed, so a loose
    bound costs an SVD but never changes a decision.
    """
    if pencil is None:
        bound = np.linalg.norm(X)
    else:
        bound = pencil._scaled_norm_bound(where) * pencil._scaling[2]
    try:
        Xinv = lapack().lu_inverse(X)
    except np.linalg.LinAlgError:
        Xinv = None
    if Xinv is None or not bound * np.linalg.norm(Xinv) <= _FROB_CAP:
        _sigma_range(X if pencil is None else pencil._scaled_T(where), where)
        if Xinv is None:
            raise np.linalg.LinAlgError("Singular matrix")
    return Xinv


@dataclass
class CompanionOperator:
    """Block linearization [[0, A2^-1], [-A0, -A1 A2^-1]] of a quadratic pencil.

    Acting on stacked vectors (u, v) with v = lam * A2 u at an eigenvalue, so
    the ordinary spectrum of the block matrix is exactly the pencil spectrum.
    The read-only matrix has the pencil's dtype: a real pencil has a real matrix.
    """

    matrix: np.ndarray
    source: DiscretePencil


@single_blas_thread
def linearize(pencil):
    """Companion operator of the pencil, in its dtype; requires invertible A2.

    A real pencil is thus eigensolved in real arithmetic, with exact conjugate pairs.
    """
    n = pencil.dim
    A2 = pencil.A2
    cond = np.linalg.cond(A2)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularPencilError(f"A2 is numerically singular (cond {cond:.2e})")
    dtype = np.result_type(pencil.A0, pencil.A1, A2, np.float64)
    A2inv = np.linalg.solve(A2, np.eye(n, dtype=A2.dtype))
    matrix = np.block([
        [np.zeros((n, n), dtype=dtype), A2inv.astype(dtype)],
        [(-pencil.A0).astype(dtype), (-pencil.A1 @ A2inv).astype(dtype)],
    ])
    _read_only(matrix)
    return CompanionOperator(matrix=matrix, source=pencil)


@dataclass
class KeldyshChain:
    """Vectors u0..u_{k-1} satisfying the cascaded pencil equations at lambda0."""

    lambda0: complex
    vectors: list
    residuals: list = field(default_factory=list)


@dataclass
class Cluster:
    center: complex
    indices: list
    multiplicity: int
    chains: list


@dataclass
class EigenSolution:
    """Companion eigendecomposition with trust flags and chain structure.

    eigenvalues are sorted by distance to lambda_prime; right_u holds the
    pencil-space components column-per-eigenvalue; residuals are relative to
    the lambda-dependent coefficient scale of the pencil.  Every array is
    read-only, chain vectors too: a simple eigenvalue's is a column of right_u.
    """

    eigenvalues: np.ndarray
    right_u: np.ndarray
    residuals: np.ndarray
    trust_mask: np.ndarray
    clusters: list
    lambda_prime: complex
    companion: CompanionOperator

    @property
    def pencil(self):
        return self.companion.source

    @property
    def trusted_eigenvalues(self):
        return self.eigenvalues[self.trust_mask]

    def cluster_of(self, lam):
        for cl in self.clusters:
            if abs(cl.center - lam) <= _TRUST_RTOL * (1.0 + abs(lam)):
                return cl
        return None


def _eig_residuals(comp):
    """The one dense eigensolve of a companion operator, in LAPACK order.

    Returns the eigenvalues, the pencil-space components scaled to unit
    weighted norm (one column per eigenvalue) and each eigenvalue's residual
    ||T(lam) u||_M / (||u||_M coefficient_scale(lam)), from A0 U + (A1 U) L
    + (A2 U) L^2 (L = diag(lam)) for all columns at once; inf if u is negligible.
    """
    pencil = comp.source
    try:
        lam, W = np.linalg.eig(comp.matrix)
    except Exception as exc:  # LAPACK non-convergence
        raise EigensolverError(str(exc)) from exc
    # complex, with the eigenvectors in Fortran order as LAPACK returns them:
    # the residual products below round differently on a C-order copy
    lam, W = lam.astype(complex, copy=False), np.asfortranarray(W, dtype=complex)
    if not np.all(np.isfinite(lam)):
        raise EigensolverError("eigensolver returned non-finite eigenvalues")

    def norms(X):
        return np.sqrt(np.abs(np.sum(X.conj() * (pencil.mass @ X), axis=0)))

    nu = norms(W[: pencil.dim])
    # eigenvectors can concentrate in the v block; rescale u when usable
    usable = nu > 1e-12 * np.linalg.norm(W, axis=0)
    U = W[: pencil.dim] / np.where(usable, nu, 1.0)
    R = pencil.A0 @ U + (pencil.A1 @ U) * lam + (pencil.A2 @ U) * lam**2
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = norms(R) / (norms(U) * pencil.coefficient_scale(lam))
    return lam, U, np.where(usable, rel, np.inf)


@single_blas_thread
def eigen(comp, lambda_prime=0.0, reference=None):
    """Dense eigendecomposition of the companion operator with trust flags.

    An eigenvalue passes the residual filter when its relative pencil residual
    is at most _RESIDUAL_TOL (1e-7).  reference, when given, is a refined-grid
    eigenvalue array, and a filtered eigenvalue is then trusted only with a
    reference partner within _TRUST_RTOL (1e-6) relative distance, so an
    empty reference trusts nothing.  Without a reference only the residual
    filter applies.

    lambda_prime="auto" picks the reference point with find_reference_point
    over this solution's own trusted eigenvalues; the result is then sorted
    by distance to that point.  Either way the companion operator is
    eigensolved once, and clusters and chains are built once, on the
    returned solution.
    """
    lam, U, residuals = _eig_residuals(comp)
    trust = residuals <= _RESIDUAL_TOL
    if reference is not None:
        dist = np.abs(lam[:, None] - np.asarray(reference)).min(axis=1, initial=np.inf)
        trust &= dist <= _TRUST_RTOL * (1.0 + np.abs(lam))
    if lambda_prime == "auto":
        lambda_prime = find_reference_point(lam[trust])

    order = np.argsort(np.abs(lam - lambda_prime), kind="stable")
    lam, U, residuals, trust = _read_only(lam[order], U[:, order], residuals[order], trust[order])
    return EigenSolution(
        eigenvalues=lam,
        right_u=U,
        residuals=residuals,
        trust_mask=trust,
        clusters=_build_clusters(comp, lam, U, residuals, trust),
        lambda_prime=complex(lambda_prime),
        companion=comp,
    )


def _build_clusters(comp, lam, U, residuals, trust):
    """Clusters of trusted eigenvalues joined through close pairs, plus chains.

    lam_i and lam_j are close within _TRUST_RTOL (1 + min(|lam_i|, |lam_j|));
    each member is labelled by the smallest position it reaches through close
    pairs.  A simple eigenvalue's chain is its normalized companion
    eigenvector block U[:, i], whose one chain residual is its eigen
    residual; only multiple clusters need a Schur decomposition.
    """
    idx = np.flatnonzero(trust)
    mag = np.abs(lam[idx])
    close = np.abs(lam[idx, None] - lam[idx]) <= _TRUST_RTOL * (1.0 + np.minimum.outer(mag, mag))
    labels = np.arange(idx.size)
    while True:
        reached = np.where(close, labels, idx.size).min(axis=1, initial=idx.size)
        if np.array_equal(reached, labels):
            break
        labels = reached

    clusters = []
    for label in np.unique(labels):
        members = [int(i) for i in idx[labels == label]]
        vals = lam[members]
        center = complex(vals.mean())
        if len(members) == 1:
            chains = [KeldyshChain(lambda0=center, vectors=[U[:, members[0]]],
                                   residuals=[float(residuals[members[0]])])]
        else:
            diam = float(np.abs(vals - center).max())
            chains = _cluster_chains(comp, center, len(members), diam)
        clusters.append(
            Cluster(center=center, indices=sorted(members),
                    multiplicity=len(members), chains=chains)
        )
    clusters.sort(key=lambda c: (abs(c.center), c.center.real, c.center.imag))
    return clusters


def _null_basis(A, tol):
    U, s, Vh = np.linalg.svd(A)
    r = int(np.sum(s > tol))
    return Vh[r:].conj().T


def _nilpotent_chains(G, tol):
    """Jordan chains of a (numerically) nilpotent small matrix.

    Returns chains ordered eigenvector-first, satisfying G x_{j+1} = x_j.
    """
    m = G.shape[0]
    powers = [np.eye(m, dtype=complex)]
    for _ in range(m):
        powers.append(powers[-1] @ G)
    kernels = [_null_basis(P, tol) for P in powers]
    l = next(j for j in range(1, m + 1) if kernels[j].shape[1] == m)
    chains = []
    used = np.zeros((m, 0), dtype=complex)
    for length in range(l, 0, -1):
        Kl = kernels[length]
        # kernels[0] is empty, as is used at first: QR and SVD take (m, 0) blocks
        Qs, _ = np.linalg.qr(np.hstack([kernels[length - 1], used]))
        proj = Kl - Qs @ (Qs.conj().T @ Kl)
        U, s, _ = np.linalg.svd(proj, full_matrices=False)
        for i in range(int(np.sum(s > 0.5))):
            # columns of Kl are orthonormal, so surviving directions have
            # singular value near 1 after projecting out shorter kernels
            t = U[:, i]
            chain = [t]
            for _ in range(length - 1):
                chain.append(powers[1] @ chain[-1])
            chain = chain[::-1]
            chains.append(chain)
            used = np.hstack([used, np.column_stack(chain)])
    return chains


def _cluster_chains(comp, center, size, diam):
    """Keldysh chains spanning a multiple trusted cluster's invariant subspace."""
    A = comp.matrix
    capture = max(10.0 * diam, _TRUST_RTOL * (1.0 + abs(center)))
    Tm, Z, sdim = lapack().sorted_schur(A, lambda z: np.abs(z - center) <= capture)
    if sdim != size:
        raise ClusterAmbiguityError(
            f"cluster at {center} captured {sdim} Schur eigenvalues, expected {size}"
        )
    Wb = Z[:, :sdim]
    G = Tm[:sdim, :sdim] - center * np.eye(sdim)
    gnorm = np.linalg.norm(G, 2)
    tol = max(1e-8 * max(gnorm, 1.0), 3.0 * diam)
    chains = []
    for coeff_chain in _nilpotent_chains(G, tol):
        full = [Wb @ c for c in coeff_chain]
        chains.append(keldysh_from_jordan(comp, full, center))
    return chains


@single_blas_thread
def keldysh_from_jordan(comp, jordan_chain, lambda0):
    """Extract pencil-space chain vectors from a companion Jordan chain.

    jordan_chain holds stacked vectors x_j with (A - lambda0) x_{j+1} = x_j
    and (A - lambda0) x_0 = 0, each to _TRUST_RTOL relative to the chain and
    ||A||; the u components alone satisfy the cascaded pencil equations at
    lambda0, and are returned read-only.
    """
    A, pencil = comp.matrix, comp.source
    n = pencil.dim
    xs = [np.asarray(x, dtype=complex).reshape(-1) for x in jordan_chain]
    scale = max(np.linalg.norm(x) for x in xs)
    r0 = np.linalg.norm(A @ xs[0] - lambda0 * xs[0])
    anorm = np.linalg.norm(A, ord=np.inf)
    tol = _TRUST_RTOL * scale * max(anorm, 1.0)
    if r0 > tol:
        raise ValueError("first vector is not a companion eigenvector")
    shifted = A - lambda0 * np.eye(2 * n)
    for j in range(1, len(xs)):
        r = np.linalg.norm(shifted @ xs[j] - xs[j - 1])
        if r > tol:
            raise ValueError(f"Jordan relation violated at position {j}")
    us = [x[:n] for x in xs]
    nu = pencil.vector_norm(us[0])
    if nu == 0.0:
        raise ValueError("chain has zero pencil component")
    chain = KeldyshChain(lambda0=complex(lambda0), vectors=_read_only(*(u / nu for u in us)))
    chain.residuals = verify_chain(pencil, chain)
    return chain


def jordan_from_keldysh(pencil, chain):
    """Stacked companion chain vectors from a pencil-space Keldysh chain.

    The second block is v_j = lambda0 A2 u_j + A2 u_{j-1}, which inverts
    keldysh_from_jordan exactly on the u components.
    """
    lam0 = chain.lambda0
    A2 = pencil.A2
    out = []
    prev = None
    for u in chain.vectors:
        v = lam0 * (A2 @ u)
        if prev is not None:
            v = v + A2 @ prev
        out.append(np.concatenate([u, v]))
        prev = u
    return out


def pencil_derivatives(pencil, lam0):
    """Taylor blocks of the pencil at lam0: B0 = T(lam0), B1, B2, rest zero."""
    B0 = pencil.T(lam0)
    B1 = pencil.A1 + 2.0 * lam0 * pencil.A2
    B2 = np.asarray(pencil.A2, dtype=complex)
    return B0, B1, B2


@single_blas_thread
def verify_chain(pencil, chain):
    """Residual of each cascaded equation sum_{j<=k} B_{k-j} u_j = 0.

    Residuals are measured against the largest chain vector and the cached
    coefficient scale |lam|^2 ||A2|| + |lam| ||A1|| + ||A0|| (the scale of the
    eigen residuals), so that well-separated scales (fourth-order stiffness on
    fine grids) do not drown legitimate chains.
    """
    if not chain.vectors:
        raise ValueError("empty chain")
    B = pencil_derivatives(pencil, chain.lambda0)
    bscale = pencil.coefficient_scale(chain.lambda0)
    uscale = max(pencil.vector_norm(u) for u in chain.vectors)
    if uscale == 0.0:
        raise ValueError("chain of zero vectors")
    out = []
    for k in range(len(chain.vectors)):
        acc = np.zeros(pencil.dim, dtype=complex)
        for m in range(0, min(k, 2) + 1):
            acc += B[m] @ chain.vectors[k - m]
        out.append(float(pencil.vector_norm(acc) / (uscale * bscale)))
    return out


def _check_schatten_p(p):
    if p < 1:
        raise ConfigError("Schatten norms need p >= 1")


@single_blas_thread
def schatten_norm(M, p):
    """(sum sigma_j^p)^(1/p) over all singular values."""
    _check_schatten_p(p)
    s = np.linalg.svd(np.asarray(M), compute_uv=False)
    return float(np.sum(s**p) ** (1.0 / p))


@dataclass(frozen=True)
class TorusSum:
    partial: float
    tail_bound: float


def torus_embedding_sum(n, p, cutoff):
    """Partial lattice sum of (1+|xi|^2)^(-p) over Z^n with a rigorous tail.

    Every unit cube centered at a lattice point xi satisfies
    1+|x|^2 >= (1+|xi|^2)/(1+n), so the tail beyond the max-norm cutoff K is
    at most (1+n)^p times the integral of (1+|x|^2)^(-p) over |x| >= K+1/2.
    """
    if n < 1 or int(n) != n:
        raise ConfigError("dimension n must be a positive integer")
    if p <= n / 2.0:
        raise ConfigError(f"sum diverges for p <= n/2 (p={p}, n={n})")
    if cutoff < 1:
        raise ConfigError("cutoff must be at least 1")
    K = int(cutoff)
    if (2 * K + 1) ** n > 5e7:
        raise ConfigError("lattice window too large; lower the cutoff")
    if n == 1:
        k = np.arange(1, K + 1, dtype=float)
        partial = 1.0 + 2.0 * np.sum((1.0 + k * k) ** (-p))
    else:
        axes = [np.arange(-K, K + 1, dtype=float) ** 2 for _ in range(n)]
        ssq = axes[0]
        for a in axes[1:]:
            ssq = ssq[..., None] + a
        partial = float(np.sum((1.0 + ssq) ** (-p)))
    # surface area of S^{n-1} times the radial tail integral, via the
    # incomplete beta function: int_R^inf r^{n-1}(1+r^2)^{-p} dr
    a, b = n / 2.0, p - n / 2.0
    R = K + 0.5
    x = R * R / (1.0 + R * R)
    from scipy.special import beta, betainc, gamma  # here, so no other path imports scipy

    radial = 0.5 * beta(a, b) * (1.0 - betainc(a, b, x))
    surface = 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)
    tail = float((1.0 + n) ** p * surface * radial)
    return TorusSum(partial=float(partial), tail_bound=tail)


@dataclass
class CountingReport:
    t_values: np.ndarray
    counts: np.ndarray
    discrete_bounds: np.ndarray
    schatten_bounds: np.ndarray | None
    p: float
    lambda_prime: complex


@single_blas_thread
def counting(eig, lambda_prime, p, t_values):
    """Counting function of the trusted spectrum with Chebyshev-style bounds.

    Reports N(t) = #{|lambda_j - lambda'| < t}, the discrete bound
    t^p sum |lambda_j - lambda'|^{-p}, and, when a companion operator is
    available, t^p ||(A - lambda')^{-1}||_{C_p}^p.  That inverse passes the
    conditioning check of _checked_inverse, which also sees untrusted
    companion eigenvalues.
    """
    if isinstance(eig, EigenSolution):
        vals = eig.trusted_eigenvalues
        comp = eig.companion
    else:
        vals = np.asarray(eig, dtype=complex)
        comp = None
    t_values = np.asarray(t_values, dtype=float)
    if vals.size == 0:
        raise ValueError("no trusted eigenvalues to count")
    dist = np.abs(vals - lambda_prime)
    if dist.min() <= 1e-9 * (1.0 + abs(lambda_prime)):
        raise SingularAtLambdaError(
            f"reference point {lambda_prime} coincides with an eigenvalue"
        )
    counts = np.array([int(np.sum(dist < t)) for t in t_values])
    discrete = t_values**p * float(np.sum(dist ** (-p)))
    schatten = None
    if comp is not None:
        _check_schatten_p(p)  # reject p before forming the inverse
        A = comp.matrix
        R = _checked_inverse(A - lambda_prime * np.eye(A.shape[0]), lambda_prime)
        schatten = t_values**p * schatten_norm(R, p) ** p
    return CountingReport(
        t_values=t_values,
        counts=counts,
        discrete_bounds=discrete,
        schatten_bounds=schatten,
        p=float(p),
        lambda_prime=complex(lambda_prime),
    )


def chain_matrix(eig, m):
    """Column-stack of all chain vectors of the m clusters nearest lambda'."""
    chosen = sorted(eig.clusters, key=lambda c: abs(c.center - eig.lambda_prime))[:m]
    cols = [u for cl in chosen for ch in cl.chains for u in ch.vectors]
    if not cols:
        raise ValueError("no chains available")
    return np.column_stack(cols)


@single_blas_thread
def completeness_residual(eig, f, m):
    """Relative weighted distance from f to the span of the nearest m chains."""
    if m > len(eig.clusters):
        raise ConfigError(f"only {len(eig.clusters)} trusted clusters available")
    X = chain_matrix(eig, m)
    S = eig.pencil._scaling[0]
    fs = S @ np.asarray(f, dtype=complex)
    Xs = S @ X
    sol, res, rank, sv = np.linalg.lstsq(Xs, fs, rcond=None)
    if rank < Xs.shape[1]:
        warnings.warn(
            f"chain span is rank deficient ({rank} of {Xs.shape[1]})",
            stacklevel=3,  # the caller's line, past the single_blas_thread wrapper
        )
    nf = np.linalg.norm(fs)
    if nf == 0.0:
        raise ValueError("zero sample vector")
    return float(np.linalg.norm(Xs @ sol - fs) / nf)


def find_reference_point(eigenvalues):
    """Positive real point maximizing relative distance to the spectrum: the t of
    _REFERENCE_CANDIDATES (13, geometrically spaced over [1, 100]) farthest from
    the eigenvalue array relative to 1 + t, the first of them for no eigenvalue."""
    vals = np.asarray(eigenvalues, dtype=complex)
    best, best_score = None, -1.0
    for t in _REFERENCE_CANDIDATES:
        score = float(np.abs(vals - t).min(initial=np.inf) / (1.0 + t))
        if score > best_score:
            best, best_score = float(t), score
    if best_score <= 1e-9:
        raise SingularAtLambdaError("every candidate reference point hits the spectrum")
    return complex(best)


def _two_grid(profile, grids, bc, refine, lambda_prime):
    """Two-grid trusted eigensolve of the 1D or 2D pencil on grids, one per axis.

    The one solve for both dimensions: the pencil is assembled on grids and on
    refined grids with refine more points per axis, and each is eigensolved
    once.  The refined grid gets the residual filter only; its residual-trusted
    eigenvalues are the reference for the one eigen call on the base grid,
    which alone builds clusters and chains.
    """
    assemble = assemble_pencil if len(grids) == 1 else assemble_pencil_2d
    base = assemble(profile, *grids, bc)
    fine = assemble(profile, *(make_grid(g.a, g.b, g.n_pts + refine) for g in grids), bc)
    lam, _, residuals = _eig_residuals(linearize(fine))
    return eigen(linearize(base), lambda_prime=lambda_prime,
                 reference=lam[residuals <= _RESIDUAL_TOL])


@single_blas_thread
def solve_spectrum(profile, a, b, n_pts, bc, lambda_prime="auto"):
    """Two-grid trusted eigensolve of the 1D pencil.

    Assembles at n_pts and n_pts + _REFINE_1D (8) and eigensolves each grid
    once.  A base-grid eigenvalue is trusted when its residual is at most
    _RESIDUAL_TOL (1e-7) and a refined-grid eigenvalue that passes the same
    residual filter lies within _TRUST_RTOL (1e-6) relative distance.
    lambda_prime="auto" is resolved by eigen from the trusted spectrum.
    """
    return _two_grid(profile, (make_grid(a, b, n_pts),), bc, _REFINE_1D, lambda_prime)


@single_blas_thread
def solve_spectrum_2d(profile, rect, n_x, n_y, bc):
    """Two-grid trusted eigensolve on a rectangle (tensor grids); trust as in solve_spectrum.

    The refined grid has _REFINE_2D (4) more points per axis, and the result
    is sorted by distance to lambda_prime = 0.
    """
    x0, x1, y0, y1 = rect
    return _two_grid(profile, (make_grid(x0, x1, n_x), make_grid(y0, y1, n_y)), bc, _REFINE_2D, 0.0)
