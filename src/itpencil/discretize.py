"""Chebyshev spectral-Galerkin assembly of the quadratic transmission pencils.

Grids are Chebyshev-Gauss-Lobatto points with Clenshaw-Curtis quadrature
weights.  The four homogeneous boundary traces are absorbed by basis
recombination: each axis has a degree-graded stencil basis V whose columns
satisfy the traces and have unit Euclidean norm (they are not orthogonal), so
a 1D grid with n points yields square matrices of size n - 4.  A 2D pencil
uses the tensor product of the axis bases.  The quadrature weights induce the
discrete L2 inner product used for all norms downstream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from ._blas import single_blas_thread
from .exceptions import SingularPencilError
from .symbols import BoundaryPair, PencilKind

MIN_POINTS = 8
MAX_UNKNOWNS_2D = 3600


@dataclass(frozen=True)
class Grid1D:
    a: float
    b: float
    n_pts: int
    nodes: np.ndarray
    weights: np.ndarray
    diff: np.ndarray


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


def make_grid(a, b, n_pts):
    """Lobatto grid on [a, b] with quadrature weights and differentiation matrix.

    Nodes are ascending and include both endpoints; weights sum to b - a.
    """
    if not b > a:
        raise ValueError("need b > a")
    if n_pts < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} grid points, got {n_pts}")
    N = n_pts - 1
    y = -np.cos(np.pi * np.arange(N + 1) / N)  # ascending on [-1, 1]
    x = a + (b - a) * (y + 1.0) / 2.0
    w = _clenshaw_curtis(N) * (b - a) / 2.0

    # barycentric differentiation with the negative-sum trick
    beta = np.ones(N + 1)
    beta[1::2] = -1.0
    beta[0] *= 0.5
    beta[N] *= 0.5
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (beta[None, :] / beta[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return Grid1D(a=float(a), b=float(b), n_pts=n_pts, nodes=x, weights=w, diff=D)


@dataclass
class MediumProfile:
    """Contrast profile q for one pencil kind.

    q is given as a constant, ascending polynomial coefficients in x, or
    point samples on the assembly grid.  Bounds default to the sampled range
    and are enforced at assembly time.
    """

    kind: PencilKind
    q_type: str
    q_data: object
    q_min: float | None = None
    q_max: float | None = None

    @classmethod
    def constant(cls, kind, value):
        return cls(kind=kind, q_type="constant", q_data=float(value))

    @classmethod
    def polynomial(cls, kind, coeffs):
        return cls(kind=kind, q_type="polynomial", q_data=np.asarray(coeffs, dtype=float))

    @classmethod
    def sampled(cls, kind, values):
        return cls(kind=kind, q_type="samples", q_data=np.asarray(values, dtype=float))

    def values(self, x):
        """Samples of q at the nodes x, validated against the declared bounds."""
        x = np.asarray(x, dtype=float)
        if self.q_type == "constant":
            qv = np.full(x.shape, float(self.q_data))
        elif self.q_type == "polynomial":
            # an overflow or a non-finite coefficient is left to the check below
            with np.errstate(over="ignore", invalid="ignore"):
                qv = np.polynomial.polynomial.polyval(x, self.q_data)
            qv = np.broadcast_to(qv, x.shape).copy()
        elif self.q_type == "samples":
            qv = np.asarray(self.q_data, dtype=float)
            if qv.shape != x.shape:
                raise ValueError(
                    f"q samples have shape {qv.shape}, grid has shape {x.shape}"
                )
        else:
            raise ValueError(f"unknown q type: {self.q_type!r}")
        if not np.all(np.isfinite(qv)):
            raise ValueError("q must be finite everywhere")
        lo = self.q_min if self.q_min is not None else float(qv.min())
        hi = self.q_max if self.q_max is not None else float(qv.max())
        if lo <= 0.0:
            raise ValueError("q must be positive everywhere")
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        if qv.min() < lo - slack or qv.max() > hi + slack:
            raise ValueError("q out of declared bounds")
        return qv


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

    basis maps recombined coefficients to grid values (unit-norm stencil
    columns, not orthogonal); mass is the Gram matrix of the quadrature inner
    product in recombined coordinates.  Raw pencils built from explicit
    matrices carry an identity mass and no grid.
    """

    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    mass: np.ndarray
    kind: PencilKind | None = None
    bc: BoundaryPair | None = None
    grid: object = None
    weights: np.ndarray | None = None
    basis: np.ndarray | None = None
    _scale_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n = self.A0.shape[0]
        for M in (self.A0, self.A1, self.A2):
            if M.shape != (n, n):
                raise ValueError("pencil matrices must be square and same size")

    @classmethod
    def from_matrices(cls, A0, A1, A2):
        A0 = np.atleast_2d(np.asarray(A0))
        A1 = np.atleast_2d(np.asarray(A1))
        A2 = np.atleast_2d(np.asarray(A2))
        return cls(A0=A0, A1=A1, A2=A2, mass=np.eye(A0.shape[0]))

    @property
    def dim(self):
        return self.A0.shape[0]

    def T(self, lam):
        return self.A0 + lam * self.A1 + lam**2 * self.A2

    def coefficient_scale(self, lam):
        """Norm scale of T(lam), used to make residuals relative; lam may be an array."""
        key = "coeff_norms"
        if key not in self._scale_cache:
            self._scale_cache[key] = tuple(
                float(np.linalg.norm(M, 2)) for M in (self.A0, self.A1, self.A2)
            )
        n0, n1, n2 = self._scale_cache[key]
        a = np.abs(lam)
        return np.maximum(n0 + a * n1 + a * a * n2, 1e-300)

    def _scaling(self):
        """(S, S^{-1}) with S the symmetric square root of the mass."""
        if "sqrt" not in self._scale_cache:
            vals, vecs = np.linalg.eigh(self.mass)
            if vals.min() <= 0:
                raise SingularPencilError("mass matrix not positive definite")
            S = (vecs * np.sqrt(vals)) @ vecs.T
            Sinv = (vecs / np.sqrt(vals)) @ vecs.T
            self._scale_cache["sqrt"] = (S, Sinv)
            self._scale_cache["mass_norm"] = float(vals[-1])
        return self._scale_cache["sqrt"]

    def _mass_norm(self):
        """||M||_2, the largest mass eigenvalue, cached by _scaling."""
        self._scaling()
        return self._scale_cache["mass_norm"]

    def _scaled_coefficients(self):
        """[B0, B1, B2] with B_k = S^{-1} A_k S^{-1}, and their Frobenius norms,
        cached once per pencil."""
        if "scaled" not in self._scale_cache:
            _, Sinv = self._scaling()
            B = [Sinv @ M @ Sinv for M in (self.A0, self.A1, self.A2)]
            self._scale_cache["scaled"] = (B, [float(np.linalg.norm(b)) for b in B])
        return self._scale_cache["scaled"]

    def _scaled_T(self, lam):
        """S^{-1} T(lam) S^{-1}, from the scaled coefficients cached per pencil."""
        B0, B1, B2 = self._scaled_coefficients()[0]
        return B0 + lam * B1 + lam**2 * B2

    def _scaled_norm_bound(self, lam):
        """||B0||_F + |lam| ||B1||_F + |lam|^2 ||B2||_F, an upper bound on
        ||_scaled_T(lam)||_F by the triangle inequality, from cached norms."""
        n0, n1, n2 = self._scaled_coefficients()[1]
        a = abs(lam)
        return n0 + a * n1 + a * a * n2

    def _companion_scaling(self):
        """(S2, S2^{-1}) on companion state pairs: S2 = diag(S, S^{-1}).

        The first companion coordinate holds coefficient vectors, the second
        holds weak-form (mass-multiplied) vectors.
        """
        if "companion" not in self._scale_cache:
            S, Sinv = self._scaling()
            self._scale_cache["companion"] = (block_diag(S, Sinv), block_diag(Sinv, S))
        return self._scale_cache["companion"]

    def vector_norm(self, u):
        """Quadrature L2 norm of a recombined coefficient vector."""
        u = np.asarray(u)
        return float(np.sqrt(abs(np.vdot(u, self.mass @ u))))

    def companion_norm(self, G):
        """Operator norm of a 2N x 2N block matrix on companion state pairs."""
        S2, S2inv = self._companion_scaling()
        return float(np.linalg.norm(S2 @ G @ S2inv, 2))

    def prolong(self, u):
        """Grid values of a recombined coefficient vector."""
        if self.basis is None:
            return np.asarray(u)
        return self.basis @ np.asarray(u)

    def project(self, f_grid):
        """Quadrature-orthogonal projection of grid values onto the recombined space."""
        if self.basis is None:
            return np.asarray(f_grid)
        rhs = self.basis.T @ (self.weights * np.asarray(f_grid))
        return np.linalg.solve(self.mass, rhs)


def _axis_blocks(grid, bc):
    """Weak-form blocks of one axis, all formed in Chebyshev coefficient space.

    Returns the node values V of the unit-column stencil basis, the node
    values Z of its second derivatives, and the endpoint traces G[m] of its
    m-th derivatives for m = 0..3 (row 0 at a, row 1 at b).
    """
    n = grid.n_pts
    zeta = 2.0 / (grid.b - grid.a)
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
    return V, Z, G


def _q_slope(profile, grid, qg, axis, side):
    """Slope of q along an axis on its side (0 at a, -1 at b), per edge node.

    Polynomial q depends on x alone; samples fall back to spectral
    differentiation along the axis.
    """
    if profile.q_type == "samples":
        return np.tensordot(grid.diff, qg, axes=(1, axis))[side].reshape(-1)
    n_edge = qg.size // grid.n_pts
    if profile.q_type == "polynomial" and axis == 0:
        dcoef = np.polynomial.polynomial.polyder(np.asarray(profile.q_data, dtype=float))
        return np.full(n_edge, np.polynomial.polynomial.polyval((grid.a, grid.b)[side], dcoef))
    return np.zeros(n_edge)


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
    shape = tuple(g.n_pts for g in grids)
    n_unknowns = int(np.prod([n - 4 for n in shape]))
    if len(grids) > 1 and n_unknowns > MAX_UNKNOWNS_2D:
        raise ValueError(f"2D problem has {n_unknowns} unknowns, cap is {MAX_UNKNOWNS_2D}")
    # x-coordinate of every tensor node; samples must come in this shape
    x = np.broadcast_to(grids[0].nodes.reshape((-1,) + (1,) * (len(grids) - 1)), shape)
    qg = profile.values(x)
    qv = qg.reshape(-1)
    blocks = [_axis_blocks(g, bc) for g in grids]
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
        wdq = w_edge * _q_slope(profile, grids[k], qg, k, side)
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
    elif profile.kind is PencilKind.SCHRODINGER:
        A0 = lap_q_lap + lap
        A1 = -(lap_q + q_lap + ident)
        A2 = q_ident
    else:
        raise ValueError(f"unknown pencil kind: {profile.kind!r}")

    return DiscretePencil(
        A0=A0,
        A1=A1,
        A2=A2,
        kind=profile.kind,
        bc=bc,
        grid=grids[0] if len(grids) == 1 else grids,
        weights=w,
        basis=V,
        mass=ident,
    )


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
    constant, polynomial in x, or samples of shape (nx, ny).
    """
    return _assemble(profile, (grid_x, grid_y), bc)
