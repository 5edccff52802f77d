"""Chebyshev spectral-Galerkin assembly of the quadratic transmission pencils.

Grids are Chebyshev-Gauss-Lobatto points with Clenshaw-Curtis quadrature
weights.  The four homogeneous boundary traces are absorbed by basis
recombination: each axis has a degree-graded stencil basis V whose columns
satisfy the traces and have unit Euclidean norm (they are not orthogonal), so
a 1D grid with n points yields square matrices of size n - 4.  A 2D pencil
uses the tensor product of the axis bases, which depend only on the grid and
the boundary pair: they and their derivative blocks are computed once per
(grid, bc) per process and held read-only.  The quadrature weights induce the
discrete L2 inner product used for all norms downstream.  Only MediumProfile
knows the form of q: it gives q and its edge slopes on any grid.  1D and 2D
pencils come from one assembly route and are one DiscretePencil type: its
grids are a tuple of axes, and its derived scalings are cached properties.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from ._blas import single_blas_thread
from .exceptions import ConfigError, SingularPencilError
from .symbols import BoundaryPair, PencilKind

MIN_POINTS = 8
MAX_UNKNOWNS_2D = 3600
_AXIS_CACHE_SIZE = 32  # (grid, bc) pairs whose axis blocks are kept


@dataclass(frozen=True)
class Grid1D:
    a: float
    b: float
    n_pts: int
    nodes: np.ndarray
    weights: np.ndarray


def _clenshaw_curtis(n_cells):
    """Clenshaw-Curtis weights on [-1, 1] for N+1 Lobatto points (N = n_cells)."""
    N = n_cells
    theta = np.pi * np.arange(N + 1) / N
    w = np.zeros(N + 1)
    ii = np.arange(1, N)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N**2 - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k**2 - 1)
        v -= np.cos(N * theta[ii]) / (N**2 - 1)
    else:
        w[0] = w[N] = 1.0 / N**2
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k**2 - 1)
    w[ii] = 2.0 * v / N
    return w


def _lobatto_nodes(a, b, n):
    """n ascending Chebyshev-Gauss-Lobatto points on [a, b], both ends included."""
    return a + (b - a) * (-np.cos(np.pi * np.arange(n) / (n - 1)) + 1.0) / 2.0


def _barycentric(t, x=None, side=0):
    """Rows taking values at the Lobatto points t to their barycentric interpolant
    (Berrut & Trefethen, SIAM Rev. 46, 2004) at the points x, or with x None to
    its slope at the end t[side]; a point of x equal to one of t returns its sample."""
    w = (-1.0) ** np.arange(t.size)
    w[[0, -1]] *= 0.5
    if x is None:  # the end row of the differentiation matrix, negative-sum diagonal
        row = np.divide(w / w[side], t[side] - t, out=np.zeros(t.size), where=t != t[side])
        row[side] = -row.sum()
        return row[None]
    d = np.subtract.outer(x, t)
    hit = d == 0.0
    c = np.divide(w, d, out=np.zeros(d.shape), where=~hit)
    c = np.where(hit.any(axis=1, keepdims=True), hit, c)
    return c / c.sum(axis=1, keepdims=True)


def _read_only(*arrays):
    """The arrays as a list, each marked read-only where the library makes it."""
    for M in arrays:
        M.flags.writeable = False
    return list(arrays)


def make_grid(a, b, n_pts):
    """Lobatto grid on [a, b] with Clenshaw-Curtis quadrature weights.

    Nodes are ascending and include both endpoints; weights sum to b - a; both are read-only.
    """
    if not b > a:
        raise ConfigError("need b > a")
    if n_pts < MIN_POINTS:
        raise ConfigError(f"need at least {MIN_POINTS} grid points, got {n_pts}")
    w = _clenshaw_curtis(n_pts - 1) * (b - a) / 2.0
    return Grid1D(float(a), float(b), n_pts, *_read_only(_lobatto_nodes(a, b, n_pts), w))


@dataclass(frozen=True)
class MediumProfile:
    """Contrast profile q for one pencil kind, the one place that knows q's form.

    q is given as a constant, ascending polynomial coefficients in x, or
    samples at the Lobatto points of their own count (at least 2 per axis, a
    tensor product in 2D) over the assembly interval, which evaluate on any
    grid.  A constant evaluates as the degree-0 polynomial.  The frozen
    profile checks at construction that kind is a PencilKind and q's type and
    shape, converts q to float, and at evaluation that q is finite and positive.
    """

    kind: PencilKind
    q_type: str
    q_data: object

    def __post_init__(self):
        if not isinstance(self.kind, PencilKind):
            raise ConfigError(f"kind must be a PencilKind, got {self.kind!r}")
        if self.q_type == "constant":
            if not isinstance(self.q_data, numbers.Real):
                raise ConfigError("constant q takes a single number")
            object.__setattr__(self, "q_data", float(self.q_data))
            return
        if self.q_type not in ("polynomial", "samples"):
            raise ConfigError(f"unknown q type: {self.q_type!r}")
        ndim = np.ndim(self.q_data)
        if ndim == 0 or (self.q_type == "polynomial" and ndim != 1):
            raise ConfigError(f"{self.q_type} q takes an array of numbers")
        object.__setattr__(self, "q_data", np.asarray(self.q_data, dtype=float))
        if self.q_type == "samples" and min(self.q_data.shape) < 2:
            raise ConfigError(f"need at least 2 q samples along each of {self.q_data.ndim} axes")

    @classmethod
    def constant(cls, kind, value):
        return cls(kind=kind, q_type="constant", q_data=value)

    @classmethod
    def polynomial(cls, kind, coeffs):
        return cls(kind=kind, q_type="polynomial", q_data=coeffs)

    @classmethod
    def sampled(cls, kind, values):
        return cls(kind=kind, q_type="samples", q_data=values)

    def _interpolate(self, axes, slope=None, side=0):
        """The samples' interpolant on the tensor product of the node arrays axes,
        with its slope at the end side of axis slope in place of that axis's nodes."""
        qv = self.q_data
        if qv.ndim != len(axes):
            have = f"{qv.ndim} axis" if qv.ndim == 1 else f"{qv.ndim} axes"
            raise ConfigError(f"q samples have {have}, the grid {len(axes)}")
        for k, (m, x) in enumerate(zip(qv.shape, axes)):
            rows = _barycentric(_lobatto_nodes(x[0], x[-1], m), None if k == slope else x, side)
            qv = np.moveaxis(np.tensordot(rows, qv, axes=(1, k)), 0, k)
        return qv

    def values(self, *axes):
        """q on the tensor product of the node arrays axes (one per grid axis, ascending,
        first and last at the interval's ends), checked finite and positive."""
        if self.q_type == "samples":
            qv = self._interpolate(axes)
        else:  # polynomial in x alone, constant q of degree 0; overflow is caught below
            with np.errstate(over="ignore", invalid="ignore"):
                x = np.meshgrid(*axes, indexing="ij", copy=False)[0]
                qv = np.polynomial.polynomial.polyval(x, np.ravel(self.q_data))
        if not np.all(np.isfinite(qv)):
            raise ConfigError("q must be finite everywhere")
        if qv.min() <= 0.0:
            raise ConfigError("q must be positive everywhere")
        return qv

    def edge_slope(self, grids, axis, side):
        """Slope of q along an axis at its side (0 at a, -1 at b), per edge node:
        exact for a polynomial, the end slope of the interpolant for samples."""
        if self.q_type == "samples":
            return self._interpolate([g.nodes for g in grids], axis, side).reshape(-1)
        P, end = np.polynomial.polynomial, (grids[0].a, grids[0].b)[side]
        slope = P.polyval(end, P.polyder(np.ravel(self.q_data))) if axis == 0 else 0.0
        return np.full(int(np.prod([g.n_pts for g in grids])) // grids[axis].n_pts, slope)


def _endpoint_trace(k, m):
    """m-th derivative of the degree-k Chebyshev polynomial at +1."""
    v = 1.0
    for j in range(m):
        v *= (k * k - j * j) / (2 * j + 1)
    return v


def _cheb_node_values(n_pts):
    """T_k evaluated at the ascending Lobatto nodes; entry [k, j]."""
    N = n_pts - 1
    theta = np.pi * np.arange(N + 1) / N
    sign = np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
    return sign[:, None] * np.cos(np.outer(np.arange(N + 1), theta))


def _stencil_coeffs(n_pts, bc):
    """Chebyshev coefficients of a degree-graded boundary-condition basis.

    Column i combines the five Chebyshev polynomials of degree i..i+4 into
    a function whose order-m1 and order-m2 derivatives vanish at both
    endpoints.  Because column i only touches degrees up to i+4, its trace
    residual in floating point stays near eps * (i+4)^(2m) rather than the
    eps * n^(2m) a dense SVD nullspace smears over every column; for m = 3
    at n = 96 that difference is what separates 1e-5 eigenvalue noise from
    1e-10.
    """
    n = n_pts
    orders = (bc.m1, bc.m2)
    coeffs = np.zeros((n, n - 4))
    for i in range(n - 4):
        degs = np.arange(i, i + 5)
        local = np.empty((4, 5))
        for r, m in enumerate(orders):
            tr = np.array([_endpoint_trace(k, m) for k in degs])
            local[2 * r] = tr
            local[2 * r + 1] = tr * (-1.0) ** (degs + m)
        local /= np.abs(local).max(axis=1, keepdims=True)
        # anchor on T_i so leading low degrees grade the basis; minimal-norm
        # lstsq also absorbs stencils whose nullspace is 2-dimensional
        c_hi, res, rank, sv = np.linalg.lstsq(local[:, 1:], -local[:, 0], rcond=1e-12)
        resid = np.linalg.norm(local[:, 1:] @ c_hi + local[:, 0])
        if resid > 1e-9:
            raise ValueError(f"boundary stencil at degree {i} is inconsistent")
        coeffs[i : i + 5, i] = np.concatenate(([1.0], c_hi))
    return coeffs


@dataclass
class DiscretePencil:
    """Recombined quadratic pencil T(lam) = A0 + lam A1 + lam^2 A2.

    grids holds the Grid1D of each axis, one in 1D and two in 2D; basis maps
    recombined coefficients to grid values (unit-norm stencil columns, not
    orthogonal); mass is the Gram matrix of the quadrature inner product in
    recombined coordinates; an assembled pencil's arrays are read-only.  Raw
    pencils built from explicit matrices keep the caller's arrays as given,
    with an identity mass and no grids.  The coefficient norms, mass square
    root, scaled coefficients and companion scaling are cached properties of
    this pencil's own matrices, so a dataclasses.replace copy never sees its parent's.
    """

    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    mass: np.ndarray
    grids: tuple = ()
    weights: np.ndarray | None = None
    basis: np.ndarray | None = None

    def __post_init__(self):
        n = self.A0.shape[0]
        for M in (self.A0, self.A1, self.A2):
            if M.shape != (n, n):
                raise ConfigError("pencil matrices must be square and same size")

    @classmethod
    def from_matrices(cls, A0, A1, A2):
        A0, A1, A2 = (np.atleast_2d(np.asarray(M)) for M in (A0, A1, A2))
        return cls(A0=A0, A1=A1, A2=A2, mass=np.eye(A0.shape[0]))

    @property
    def dim(self):
        return self.A0.shape[0]

    def T(self, lam):
        return self.A0 + lam * self.A1 + lam**2 * self.A2

    def coefficient_scale(self, lam):
        """Norm scale of T(lam), used to make residuals relative; lam may be an array."""
        n0, n1, n2 = self._coefficient_norms
        a = np.abs(lam)
        return np.maximum(n0 + a * n1 + a * a * n2, 1e-300)

    @functools.cached_property
    def _coefficient_norms(self):
        """(||A0||_2, ||A1||_2, ||A2||_2)."""
        return tuple(float(np.linalg.norm(M, 2)) for M in (self.A0, self.A1, self.A2))

    @functools.cached_property
    def _scaling(self):
        """(S, S^{-1}, ||M||_2) with S the symmetric square root of the mass."""
        vals, vecs = np.linalg.eigh(self.mass)
        if vals.min() <= 0:
            raise SingularPencilError("mass matrix not positive definite")
        return (vecs * np.sqrt(vals)) @ vecs.T, (vecs / np.sqrt(vals)) @ vecs.T, float(vals[-1])

    @functools.cached_property
    def _scaled_coefficients(self):
        """([B0, B1, B2], their Frobenius norms) with B_k = S^{-1} A_k S^{-1}."""
        Sinv = self._scaling[1]
        B = [Sinv @ M @ Sinv for M in (self.A0, self.A1, self.A2)]
        return B, [float(np.linalg.norm(b)) for b in B]

    def _scaled_T(self, lam):
        """S^{-1} T(lam) S^{-1}, from the cached scaled coefficients."""
        B0, B1, B2 = self._scaled_coefficients[0]
        return B0 + lam * B1 + lam**2 * B2

    def _scaled_norm_bound(self, lam):
        """||B0||_F + |lam| ||B1||_F + |lam|^2 ||B2||_F, an upper bound on
        ||_scaled_T(lam)||_F by the triangle inequality, from cached norms."""
        n0, n1, n2 = self._scaled_coefficients[1]
        a = abs(lam)
        return n0 + a * n1 + a * a * n2

    @functools.cached_property
    def _companion_scaling(self):
        """(S2, S2^{-1}) on companion state pairs: S2 = diag(S, S^{-1}).

        The first companion coordinate holds coefficient vectors, the second
        holds weak-form (mass-multiplied) vectors.
        """
        S, Sinv, _ = self._scaling
        zero = np.zeros_like(S)
        return np.block([[S, zero], [zero, Sinv]]), np.block([[Sinv, zero], [zero, S]])

    def vector_norm(self, u):
        """Quadrature L2 norm of a recombined coefficient vector."""
        u = np.asarray(u)
        return float(np.sqrt(abs(np.vdot(u, self.mass @ u))))

    def companion_norm(self, G):
        """Operator norm of a 2N x 2N block matrix on companion state pairs."""
        S2, S2inv = self._companion_scaling
        return float(np.linalg.norm(S2 @ G @ S2inv, 2))

    def prolong(self, u):
        """Grid values of a recombined coefficient vector; an assembled pencil's only."""
        return self.basis @ np.asarray(u)

    def project(self, f_grid):
        """Quadrature-orthogonal projection of grid values onto the recombined space;
        an assembled pencil's only."""
        rhs = self.basis.T @ (self.weights * np.asarray(f_grid))
        return np.linalg.solve(self.mass, rhs)


@functools.lru_cache(maxsize=_AXIS_CACHE_SIZE)
def _axis_blocks(n_pts, a, b, bc):
    """Weak-form blocks of one axis, all formed in Chebyshev coefficient space.

    Returns the node values V of the unit-column stencil basis, the node
    values Z of its second derivatives, and the endpoint traces G[m] of its
    m-th derivatives for m = 0..3 (row 0 at a, row 1 at b), all read-only.
    """
    n = n_pts
    zeta = 2.0 / (b - a)
    coeffs = _stencil_coeffs(n, bc)
    tmat = _cheb_node_values(n)
    V = tmat.T @ coeffs
    scale = np.linalg.norm(V, axis=0, keepdims=True)
    V /= scale
    coeffs /= scale

    cheb = np.polynomial.chebyshev
    deriv = [coeffs]
    for m in range(3):
        deriv.append(cheb.chebder(deriv[-1], 1, axis=0))
    Z = zeta**2 * (tmat[: n - 2].T @ deriv[2])
    G = []
    for m, cm in enumerate(deriv):
        alt = np.where(np.arange(cm.shape[0]) % 2 == 0, 1.0, -1.0)
        G.append(zeta**m * np.vstack([alt @ cm, cm.sum(axis=0)]))
    _read_only(V, Z, *G)
    return V, Z, tuple(G)


def _assemble(profile, grids, bc):
    """Weak-form pencil on the tensor grid of one or two axes.

    Fourth-order terms are integrated by parts once (Green's second identity
    on the box), so the quadratures only ever square second derivatives and
    the surviving boundary terms come from edge traces of the basis.  Every
    tensor matrix is a Kronecker product of the per-axis blocks, in the
    manner of Shen's tensor-product spectral-Galerkin method.
    """
    if isinstance(bc, tuple):
        bc = BoundaryPair(*bc)
    n_unknowns = int(np.prod([g.n_pts - 4 for g in grids]))
    if len(grids) > 1 and n_unknowns > MAX_UNKNOWNS_2D:
        raise ConfigError(f"2D problem has {n_unknowns} unknowns, cap is {MAX_UNKNOWNS_2D}")
    qg = profile.values(*(g.nodes for g in grids))
    qv = qg.reshape(-1)
    blocks = [_axis_blocks(g.n_pts, g.a, g.b, bc) for g in grids]
    axes = range(len(grids))

    def tensor(sub):
        """Kronecker product of the axis bases, with sub[j] in place of axis j's."""
        return functools.reduce(np.kron, [sub.get(j, blocks[j][0]) for j in axes])

    V = tensor({})
    Z = sum(tensor({i: blocks[i][1]}) for i in axes)
    w = functools.reduce(np.kron, [g.weights for g in grids])

    def gram(X, Y, d=None):
        wd = w if d is None else w * d
        return X.T @ (wd[:, None] * Y)

    def edge_trace(k, side, m, order):
        """Edge values of d_k^m g for g = Delta u (order 2) or u (order 0)."""
        G = blocks[k][2]
        subs = [{k: G[m + order][[side]]}]
        if order:
            subs += [{k: G[m][[side]], i: blocks[i][1]} for i in axes if i != k]
        return sum(tensor(s) for s in subs)

    def side_terms(k, side, order):
        """Edge integrals of v d_k(q g) and of d_k v (q g) on one side of axis k."""
        w_edge = functools.reduce(
            np.kron, [np.ones(1) if j == k else g.weights for j, g in enumerate(grids)]
        )
        wq = w_edge * np.take(qg, [side], axis=k).reshape(-1)
        wdq = w_edge * profile.edge_slope(grids, k, side)
        g0, g1 = edge_trace(k, side, 0, order), edge_trace(k, side, 1, order)
        flux = wdq[:, None] * g0 + wq[:, None] * g1
        return edge_trace(k, side, 0, 0).T @ flux, edge_trace(k, side, 1, 0).T @ (wq[:, None] * g0)

    # sum over axes and sides of sign * [v d_k(q g) - d_k v (q g)]; flux terms
    # are accumulated before value terms, which fixes the 1D rounding
    def parts_terms(order):
        out = 0.0
        for k in axes:
            sides = [(sign, *side_terms(k, side, order)) for side, sign in ((-1, 1.0), (0, -1.0))]
            for sign, flux_term, _ in sides:
                out = out + sign * flux_term
            for sign, _, value_term in sides:
                out = out - sign * value_term
        return out

    lap_q_lap = gram(Z, Z, qv) + parts_terms(2)  # v -> div(q grad(grad u)) twice
    lap_q = gram(Z, V, qv) + parts_terms(0)      # Delta(q u) against v
    q_lap = gram(V, Z, qv)
    lap = gram(V, Z)
    ident = gram(V, V)
    q_ident = gram(V, V, qv)

    if profile.kind is PencilKind.HELMHOLTZ:
        A0 = lap_q_lap
        A1 = -(lap_q + q_lap + lap)
        A2 = ident + q_ident
    else:
        A0 = lap_q_lap + lap
        A1 = -(lap_q + q_lap + ident)
        A2 = q_ident
    _read_only(A0, A1, A2, ident, w, V)
    return DiscretePencil(A0=A0, A1=A1, A2=A2, mass=ident, grids=tuple(grids), weights=w, basis=V)


@single_blas_thread
def assemble_pencil(profile, grid, bc):
    """Assemble the recombined 1D pencil on a Lobatto grid.

    Everything derivative-like is produced in Chebyshev coefficient space;
    forming D^2 q D^2 with the physical differentiation matrix instead
    amplifies roundoff by n^8, which at n = 96 wipes out six digits of every
    eigenvalue whose boundary pair does not pin the function values down at
    the endpoints.
    """
    return _assemble(profile, (grid,), bc)


@single_blas_thread
def assemble_pencil_2d(profile, grid_x, grid_y, bc):
    """Assemble the recombined pencil on a tensor grid over a rectangle.

    The same weak form as in 1D, with the tensor-product basis of the 1D
    stencil bases and the boundary traces taken in the normal direction on
    all four sides, so the matrices have size (nx - 4)(ny - 4).  q is
    constant, polynomial in x, or samples of any shape (mx, my), mx, my >= 2.
    """
    return _assemble(profile, (grid_x, grid_y), bc)
