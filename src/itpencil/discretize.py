"""Chebyshev collocation assembly of the quadratic transmission pencils.

Grids are Chebyshev-Gauss-Lobatto points with Clenshaw-Curtis quadrature
weights.  The four homogeneous boundary traces are absorbed by basis
recombination: the pencil matrices are compressed onto an orthonormal basis V
of the nullspace of the boundary trace rows, so a 1D grid with n points yields
square matrices of size n - 4.  The quadrature weights induce the discrete
L2 inner product used for all norms downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def _constrained_basis(grid, bc):
    """Node values of the degree-graded constrained basis, unit columns."""
    coeffs = _stencil_coeffs(grid.n_pts, bc)
    tmat = _cheb_node_values(grid.n_pts)
    V = tmat.T @ coeffs
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    return V


@dataclass
class DiscretePencil:
    """Recombined quadratic pencil T(lam) = A0 + lam A1 + lam^2 A2.

    basis maps recombined coefficients to grid values (columns orthonormal);
    mass is the Gram matrix of the quadrature inner product in recombined
    coordinates.  Raw pencils built from explicit matrices carry an identity
    mass and no grid.
    """

    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    kind: PencilKind | None = None
    bc: BoundaryPair | None = None
    grid: object = None
    weights: np.ndarray | None = None
    basis: np.ndarray | None = None
    mass: np.ndarray | None = None
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
        return cls(A0=A0, A1=A1, A2=A2)

    @property
    def dim(self):
        return self.A0.shape[0]

    def T(self, lam):
        return self.A0 + lam * self.A1 + lam**2 * self.A2

    def coefficient_scale(self, lam):
        """Norm scale of T(lam), used to make residuals relative."""
        key = "coeff_norms"
        if key not in self._scale_cache:
            self._scale_cache[key] = tuple(
                float(np.linalg.norm(M, 2)) for M in (self.A0, self.A1, self.A2)
            )
        n0, n1, n2 = self._scale_cache[key]
        a = abs(lam)
        return max(n0 + a * n1 + a * a * n2, 1e-300)

    def _scaling(self):
        if "sqrt" not in self._scale_cache:
            if self.mass is None:
                self._scale_cache["sqrt"] = (None, None)
            else:
                vals, vecs = np.linalg.eigh(self.mass)
                if vals.min() <= 0:
                    raise SingularPencilError("mass matrix not positive definite")
                S = (vecs * np.sqrt(vals)) @ vecs.T
                Sinv = (vecs / np.sqrt(vals)) @ vecs.T
                self._scale_cache["sqrt"] = (S, Sinv)
        return self._scale_cache["sqrt"]

    def vector_norm(self, u):
        """Quadrature L2 norm of a recombined coefficient vector."""
        u = np.asarray(u)
        if self.mass is None:
            return float(np.linalg.norm(u))
        return float(np.sqrt(abs(np.vdot(u, self.mass @ u))))

    def operator_norm(self, G):
        """Operator norm of G under the quadrature inner product."""
        S, Sinv = self._scaling()
        if S is None:
            return float(np.linalg.norm(G, 2))
        return float(np.linalg.norm(S @ G @ Sinv, 2))

    def companion_norm(self, G):
        """Operator norm of a 2N x 2N block matrix on companion state pairs.

        The first companion coordinate holds coefficient vectors, the second
        holds weak-form (mass-multiplied) vectors, so the scaling is S on the
        first block and S^{-1} on the second.
        """
        S, Sinv = self._scaling()
        if S is None:
            return float(np.linalg.norm(G, 2))
        n = self.dim
        S2 = np.zeros((2 * n, 2 * n))
        S2inv = np.zeros((2 * n, 2 * n))
        S2[:n, :n] = S
        S2[n:, n:] = Sinv
        S2inv[:n, :n] = Sinv
        S2inv[n:, n:] = S
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


def apply_pencil(pencil, lam, u):
    """Evaluate T(lam) u for a recombined coefficient vector u."""
    u = np.asarray(u)
    if u.shape[0] != pencil.dim:
        raise ValueError(f"vector has length {u.shape[0]}, pencil has size {pencil.dim}")
    return pencil.T(lam) @ u


def _full_operators(kind, D2, qv, n):
    Q = np.diag(qv)
    I = np.eye(n)
    D2Q = D2 @ Q
    QD2 = Q @ D2
    if kind is PencilKind.HELMHOLTZ:
        A0 = D2Q @ D2
        A1 = -(D2Q + QD2 + D2)
        A2 = I + Q
    elif kind is PencilKind.SCHRODINGER:
        A0 = D2Q @ D2 + D2
        A1 = -(D2Q + QD2 + I)
        A2 = Q
    else:
        raise ValueError(f"unknown pencil kind: {kind!r}")
    return A0, A1, A2


def _boundary_q_slopes(profile, grid, qv):
    """(q'(a), q'(b)); samples fall back to spectral differentiation."""
    if profile.q_type == "constant":
        return 0.0, 0.0
    if profile.q_type == "polynomial":
        dcoef = np.polynomial.polynomial.polyder(np.asarray(profile.q_data, dtype=float))
        return (
            float(np.polynomial.polynomial.polyval(grid.a, dcoef)),
            float(np.polynomial.polynomial.polyval(grid.b, dcoef)),
        )
    dq = grid.diff @ qv
    return float(dq[0]), float(dq[-1])


def assemble_pencil(profile, grid, bc):
    """Assemble the recombined 1D pencil on a Lobatto grid.

    Fourth-order terms are integrated by parts once, so the quadratures only
    ever square second derivatives and the surviving boundary terms are added
    from endpoint traces of the recombined basis.  Everything derivative-like
    is produced in Chebyshev coefficient space; forming D^2 q D^2 with the
    physical differentiation matrix instead amplifies roundoff by n^8, which
    at n = 96 wipes out six digits of every eigenvalue whose boundary pair
    does not pin the function values down at the endpoints.
    """
    if isinstance(bc, tuple):
        bc = BoundaryPair(*bc)
    n = grid.n_pts
    qv = profile.values(grid.nodes)
    dq_a, dq_b = _boundary_q_slopes(profile, grid, qv)
    q_a, q_b = float(qv[0]), float(qv[-1])
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
    # endpoint traces per derivative order: row 0 at a, row 1 at b
    G = []
    for m, cm in enumerate(deriv):
        alt = np.where(np.arange(cm.shape[0]) % 2 == 0, 1.0, -1.0)
        G.append(zeta**m * np.vstack([alt @ cm, cm.sum(axis=0)]))

    w = grid.weights

    def gram(X, Y, d=None):
        wd = w if d is None else w * d
        return X.T @ (wd[:, None] * Y)

    # [v (q g)' - v' (q g)] at b minus at a, for g = u'' (order 2) or u (order 0)
    def parts_terms(order):
        Gg, Gg1 = G[order], G[order + 1]
        out = np.outer(G[0][1], dq_b * Gg[1] + q_b * Gg1[1])
        out -= np.outer(G[0][0], dq_a * Gg[0] + q_a * Gg1[0])
        out -= np.outer(G[1][1], q_b * Gg[1])
        out += np.outer(G[1][0], q_a * Gg[0])
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
        grid=grid,
        weights=grid.weights,
        basis=V,
        mass=ident,
    )


def assemble_pencil_2d(profile, grid_x, grid_y, bc):
    """Assemble the recombined pencil on a tensor grid over a rectangle.

    The Laplacian is the Kronecker sum of the 1D second-derivative blocks and
    the boundary traces act in the normal direction on all four sides; the
    recombination basis is the tensor product of the 1D nullspace bases, so
    the matrices have size (nx - 4)(ny - 4).
    """
    if isinstance(bc, tuple):
        bc = BoundaryPair(*bc)
    nx, ny = grid_x.n_pts, grid_y.n_pts
    if (nx - 4) * (ny - 4) > MAX_UNKNOWNS_2D:
        raise ValueError(
            f"2D problem has {(nx - 4) * (ny - 4)} unknowns, cap is {MAX_UNKNOWNS_2D}"
        )
    X = np.repeat(grid_x.nodes, ny)
    if profile.q_type == "samples":
        qv = np.asarray(profile.q_data, dtype=float)
        if qv.shape != (nx, ny):
            raise ValueError(f"2D q samples must have shape {(nx, ny)}")
        qv = qv.reshape(-1)
        lo = profile.q_min if profile.q_min is not None else float(qv.min())
        if lo <= 0.0 or qv.min() <= 0.0:
            raise ValueError("q must be positive everywhere")
    else:
        # constant or polynomial-in-x profile evaluated on the tensor grid
        qv = profile.values(X)
    D2x = grid_x.diff @ grid_x.diff
    D2y = grid_y.diff @ grid_y.diff
    L = np.kron(D2x, np.eye(ny)) + np.kron(np.eye(nx), D2y)
    A0f, A1f, A2f = _full_operators(profile.kind, L, qv, nx * ny)
    Vx = _constrained_basis(grid_x, bc)
    Vy = _constrained_basis(grid_y, bc)
    V = np.kron(Vx, Vy)
    w = np.kron(grid_x.weights, grid_y.weights)
    mass = V.T @ (w[:, None] * V)
    return DiscretePencil(
        A0=V.T @ A0f @ V,
        A1=V.T @ A1f @ V,
        A2=V.T @ A2f @ V,
        kind=profile.kind,
        bc=bc,
        grid=(grid_x, grid_y),
        weights=w,
        basis=V,
        mass=mass,
    )
