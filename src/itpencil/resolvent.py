"""Resolvent diagnostics: ray decay, block inverses, regularized products, contours.

Everything here consumes a DiscretePencil (or its companion form) and a list of
trusted eigenvalues produced by the spectra module.  Every sampled T(lam)^{-1}
or (A - lam)^{-1}, the Carleman circle and probe samples included, passes the
one conditioning check in _sigma_min first, and samples are evaluated in order
in the calling thread.  A pencil sample is checked in mass-scaled form,
B0 + lam B1 + lam^2 B2 with B_k = S^{-1} A_k S^{-1} cached once per pencil
(DiscretePencil._scaled_T), so no sample pays for scaling products.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    BoundViolationError,
    ClusterAmbiguityError,
    MaskedSampleError,
    PoleOnRayError,
    QuadratureConvergenceError,
    SingularAtLambdaError,
)
from .spectra import linearize, pencil_derivatives

_COND_CAP = 1e14


def _sigma_min(X, where):
    """Smallest singular value of X, which must be finite, positive and at
    most a factor 1e14 below the largest; else SingularAtLambdaError at `where`.
    """
    sv = np.linalg.svd(X, compute_uv=False)
    if not np.all(np.isfinite(sv)) or sv[-1] <= 0 or sv[0] / sv[-1] > _COND_CAP:
        raise SingularAtLambdaError(f"matrix is singular or near singular at {where}")
    return float(sv[-1])


def _checked_inverse(X, where, check=None):
    """LU inverse of X once `check` (X itself by default) passes _sigma_min;
    a weak-form T(lam) is checked in mass-scaled form, pencil._scaled_T(lam).
    """
    _sigma_min(X if check is None else check, where)
    return np.linalg.inv(X)


def resolvent_norm(pencil, lam):
    """Operator 2-norm of the solution map f -> u of T(lam) u = f.

    Computed as 1/sigma_min of M^{-1/2} T(lam) M^{-1/2} with M the mass
    matrix; this is the quadrature L2 operator norm of the inverse and is
    stable under grid refinement.
    """
    return 1.0 / _sigma_min(pencil._scaled_T(lam), lam)


def _resolvent_norms(pencil, lams):
    """resolvent_norm at each sample in order, NaN where the check fails."""
    norms = np.empty(len(lams))
    for k, lam in enumerate(lams):
        try:
            norms[k] = resolvent_norm(pencil, lam)
        except SingularAtLambdaError:
            norms[k] = np.nan
    return norms


@dataclass(frozen=True)
class RayScan:
    direction: complex
    radii: np.ndarray
    norms: np.ndarray
    fitted_slope: float


def ray_scan(pencil, direction, radii):
    """Sample ||T(r d)^{-1}|| along the ray r -> r*direction.

    fitted_slope is the least squares slope of log norm against log radius
    over the top decade of radii.  For a pencil whose inverse decays like
    |lam|^{-2} the slope sits near -2.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise ValueError("need at least two radii")
    if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be positive and strictly increasing")
    d = complex(direction)
    if d == 0:
        raise ValueError("direction must be nonzero")
    d /= abs(d)
    if d.real < 0 and abs(d.imag) < 1e-12:
        raise ValueError("ray along the negative real axis hits the pole set")

    norms = _resolvent_norms(pencil, [r * d for r in radii])
    if np.isnan(norms).any():
        raise PoleOnRayError(f"pole on ray at radius {radii[np.isnan(norms)][0]}")
    top = radii >= radii[-1] / 10.0
    if top.sum() < 2:
        top = np.ones_like(top)
    slope = np.polyfit(np.log(radii[top]), np.log(norms[top]), 1)[0]
    return RayScan(direction=d, radii=radii, norms=norms, fitted_slope=float(slope))


def companion_block_inverse_check(pencil, lam, slack=1e-12):
    """Verify the closed-form block inverse of the companion operator.

    Assembles
        (A - lam)^{-1} = [ -T^{-1}(A1 + lam A2)            -T^{-1}        ]
                         [ A2 - lam A2 T^{-1}(A1 + lam A2) -lam A2 T^{-1} ]
    multiplies it against (A - lam), and returns the max entrywise error
    relative to the factor magnitudes.  Also checks the norm inequality
    ||T(lam)^{-1}|| <= ||(A - lam)^{-1}|| in the weighted norms, where
    ||S T^{-1} S|| = 1/sigma_min(S^{-1} T S^{-1}) comes from the check itself.
    """
    tnorm = resolvent_norm(pencil, lam)
    Tinv = np.linalg.inv(pencil.T(lam))
    A2 = pencil.A2
    B = pencil.A1 + lam * A2
    TB = Tinv @ B
    block = np.block([[-TB, -Tinv], [A2 - lam * (A2 @ TB), -lam * (A2 @ Tinv)]])
    M = linearize(pencil).matrix - lam * np.eye(2 * pencil.dim)
    E = M @ block - np.eye(2 * pencil.dim)
    err = float(np.abs(E).max() / (1.0 + np.abs(M).max() * np.abs(block).max()))
    anorm = pencil.companion_norm(block)
    if tnorm > anorm * (1.0 + slack) + slack:
        raise BoundViolationError(
            f"||T^-1|| = {tnorm:.6e} exceeds ||(A-lam)^-1|| = {anorm:.6e}"
        )
    return err


def resolvent_identity_check(comp, lam, lam_prime):
    """Relative discrepancy in the two-point resolvent identity.

    Compares (A-lam)^{-1} against (A-lam')^{-1} (Id - (lam-lam')(A-lam')^{-1})^{-1}.
    """
    M = comp.matrix if hasattr(comp, "matrix") else np.asarray(comp)
    n = M.shape[0]
    eye = np.eye(n)
    R = _checked_inverse(M - lam * eye, lam)
    Rp = _checked_inverse(M - lam_prime * eye, lam_prime)
    where = f"expansion from {lam_prime} to {lam}"
    rhs = Rp @ _checked_inverse(eye - (lam - lam_prime) * Rp, where)
    return float(np.linalg.norm(R - rhs, 2) / np.linalg.norm(R, 2))


@dataclass(frozen=True)
class WeierstrassProduct:
    """Truncated canonical product over a trusted zero set.

    phi(lam) = prod_j (1 - z_j) exp(z_j + z_j^2/2 + ... + z_j^{k-1}/(k-1))
    with z_j = (lam - lambda_prime) / (zero_j - lambda_prime).  The genus k is
    ceil(p) so that k-1 <= p <= k; the product over the full (infinite) zero
    set converges exactly when sum |zero_j - lambda_prime|^{-p} does, and the
    truncation to the trusted zeros is reported, not hidden.
    """

    lambda_prime: complex
    zeros: np.ndarray
    p: float
    k: int = field(default=0)

    def __post_init__(self):
        zeros = np.asarray(self.zeros, dtype=complex).ravel()
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "lambda_prime", complex(self.lambda_prime))
        if self.p <= 0:
            raise ValueError("p must be positive")
        k = self.k if self.k else int(math.ceil(self.p))
        if not (k - 1 <= self.p <= k):
            raise ValueError(f"genus {k} incompatible with p = {self.p}")
        object.__setattr__(self, "k", k)
        gaps = np.abs(zeros - self.lambda_prime)
        if zeros.size and gaps.min() == 0:
            raise ValueError("lambda_prime coincides with a zero")

    def zero_sum(self):
        """sum |zero_j - lambda_prime|^{-p} over the trusted zeros."""
        if self.zeros.size == 0:
            return 0.0
        return float(np.sum(np.abs(self.zeros - self.lambda_prime) ** -self.p))


def log_phi(wp, lam):
    """Complex logarithm of the product, or None when a factor vanishes."""
    if wp.zeros.size == 0:
        return 0j
    z = (complex(lam) - wp.lambda_prime) / (wp.zeros - wp.lambda_prime)
    if np.any(z == 1):
        return None
    total = np.sum(np.log1p(-z))
    for m in range(1, wp.k):
        total += np.sum(z**m) / m
    return complex(total)

def phi_eval(wp, lam):
    """Evaluate the product at lam; exact 1 at lambda_prime, exact 0 at zeros."""
    lg = log_phi(wp, lam)
    if lg is None:
        return 0j
    if lg == 0:
        return 1 + 0j
    return complex(np.exp(lg))


def carleman_check(comp, wp, circle_radius, n_samples=64):
    """Bound check for phi(lam) (Id - K(lam))^{-1} with K = (lam-lam')(A-lam')^{-1}.

    Samples the circle |lam - lambda_prime| = circle_radius plus probe points
    offset 1e-3 from every trusted zero inside the circle (the product factor
    cancels the resolvent pole, so these stay bounded; max_probe_lhs reports
    their max separately for comparison against the circle median).  Returns
    the measured max together with a reference exponential bound
    exp(e (1 + r^p S_p)) where S_p = sum |zero_j - lambda_prime|^{-p}; the
    constant in the theory is not pinned down, so the bound is reported
    rather than asserted.
    """
    M = comp.matrix if hasattr(comp, "matrix") else np.asarray(comp)
    eye = np.eye(M.shape[0])
    lamp = wp.lambda_prime
    # ||(Id - K)^{-1}|| in the companion norm is 1/sigma_min of S2 (Id - K) S2^-1
    # = Id - (lam - lam') P, so each sample needs one SVD and no inverse
    P = _checked_inverse(M - lamp * eye, f"lambda_prime {lamp}")
    if hasattr(comp, "source"):
        S2, S2inv = comp.source._companion_scaling()
        P = S2 @ P @ S2inv

    r = float(circle_radius)
    if r < 0:
        raise ValueError("circle_radius must be nonnegative")
    if r == 0:
        samples = [lamp]
    else:
        theta = 2 * np.pi * np.arange(n_samples) / n_samples
        samples = list(lamp + r * np.exp(1j * theta))
    probes = []
    for z in wp.zeros:
        if abs(z - lamp) <= r:
            probes.extend([z + 1e-3, z - 1e-3, z + 1e-3j, z - 1e-3j])

    logs = []
    for lam in samples + probes:
        lg = log_phi(wp, lam)
        logs.append(-np.inf if lg is None
                    else lg.real - math.log(_sigma_min(eye - (lam - lamp) * P, lam)))
    circle_logs = logs[: len(samples)]
    probe_logs = logs[len(samples) :]
    s_p = wp.zero_sum()
    return {
        "max_lhs": float(np.exp(max(logs))),
        "max_probe_lhs": float(np.exp(max(probe_logs))) if probe_logs else None,
        "bound_rhs": float(np.exp(math.e * (1.0 + r**wp.p * s_p))),
        "circle_median": float(np.exp(np.median(circle_logs))),
        "radius": r,
        "n_samples": len(samples),
        "n_probes": len(probes),
    }


def pole_avoiding_radii(eigenvalues, r_min, r_max, n_candidates=128, min_gap_factor=1e-3):
    """Pick one radius per dyadic band of [r_min, r_max], far from pole moduli.

    Within each band the candidate maximizing the distance to every |eigenvalue|
    wins.  A band whose best candidate still sits closer than min_gap_factor
    times its radius to a pole modulus has no admissible radius.
    """
    if r_min <= 0 or r_max <= r_min:
        raise ValueError("need 0 < r_min < r_max")
    moduli = np.abs(np.asarray(eigenvalues, dtype=complex).ravel())
    edges = [r_min]
    while edges[-1] < r_max:
        edges.append(min(edges[-1] * 2, r_max))
    chosen = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        cand = np.geomspace(lo, hi, n_candidates)
        if moduli.size:
            score = np.min(np.abs(moduli[:, None] - cand[None, :]), axis=0)
        else:
            score = np.full(cand.shape, np.inf)
        best = int(np.argmax(score))
        if score[best] < min_gap_factor * cand[best]:
            raise PoleOnRayError(
                f"no admissible radius in band [{lo:.3g}, {hi:.3g}]"
            )
        chosen.append(cand[best])
    return np.array(chosen)


@dataclass(frozen=True)
class CircleGrowthReport:
    radii: np.ndarray
    max_log_norms: np.ndarray
    min_pole_distances: np.ndarray
    fitted_exponent: float
    p: float
    epsilon: float


def circle_growth_scan(pencil, radii, p, epsilon=0.1, n_theta=64, eigenvalues=None):
    """Max of log ||T^{-1}|| on pole-avoiding circles, with a growth exponent fit.

    The fit regresses log(max log norm, clamped below at 1e-6) on log radius;
    for inverses that decay the clamp makes the exponent trivially small.  An
    exponent above p + epsilon raises, since an admissible pencil must grow
    no faster than exp(C r^{p+epsilon}) on good circles.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise ValueError("need at least two radii")
    moduli = None
    if eigenvalues is not None:
        moduli = np.abs(np.asarray(eigenvalues, dtype=complex).ravel())
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    ring = np.exp(1j * theta)

    norms = _resolvent_norms(pencil, [r * w for r in radii for w in ring])
    norms = norms.reshape(radii.size, n_theta)
    touching = np.isnan(norms).any(axis=1)
    if touching.any():
        raise PoleOnRayError(f"circle of radius {radii[touching][0]} touches a pole")
    max_logs = np.array([max(math.log(x) for x in row) for row in norms])
    if moduli is not None and moduli.size:
        dists = np.min(np.abs(moduli[:, None] - radii[None, :]), axis=0)
    else:
        dists = np.full(radii.shape, np.inf)
    clamped = np.maximum(max_logs, 1e-6)
    exponent = float(np.polyfit(np.log(radii), np.log(clamped), 1)[0])
    if exponent > p + epsilon:
        raise BoundViolationError(
            f"growth exponent {exponent:.3f} exceeds p + epsilon = {p + epsilon:.3f}"
        )
    return CircleGrowthReport(
        radii=radii,
        max_log_norms=max_logs,
        min_pole_distances=dists,
        fitted_exponent=exponent,
        p=float(p),
        epsilon=float(epsilon),
    )


@dataclass(frozen=True)
class LaurentData:
    lambda0: complex
    order: int
    coefficients: dict
    contour_radius: float
    relation_residuals: np.ndarray
    noise_floor: float
    quadrature_error: float


def laurent_coefficients(pencil, lambda0, radius, n_coeffs=4, n_quad=256,
                         eigenvalues=None):
    """Contour coefficients of T(lam)^{-1} around lambda0.

    C_n = (1/2 pi i) contour integral of T(lam)^{-1} (lam - lambda0)^{-n-1},
    computed by the trapezoid rule on |lam - lambda0| = radius (spectrally
    accurate there).  The pole order is the largest n with ||C_{-n}|| above
    1e-8 times the largest coefficient norm; coefficients are kept for
    n = -order .. n_coeffs.  A halved-rule comparison guards the quadrature,
    and the Taylor relations sum_j B_{k-j} C_{j-order} = 0 (k < order) of the
    inverse against the pencil's own expansion are returned as residuals.

    When eigenvalues are supplied, the contour must enclose exactly one
    cluster of them and stay clear of the rest.
    """
    lam0 = complex(lambda0)
    r = float(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    if n_coeffs < 1:
        raise ValueError("n_coeffs must be at least 1")
    M = int(n_quad)
    if M < 16:
        raise ValueError("n_quad must be at least 16")
    M += M % 2

    if eigenvalues is not None:
        ev = np.asarray(eigenvalues, dtype=complex).ravel()
        gap = np.abs(np.abs(ev - lam0) - r)
        if ev.size and gap.min() < 1e-6 * (1.0 + r):
            raise SingularAtLambdaError("contour passes through a trusted eigenvalue")
        inside = ev[np.abs(ev - lam0) < r]
        if inside.size == 0:
            raise ClusterAmbiguityError("contour encloses no trusted eigenvalue")
        diam = np.abs(inside[:, None] - inside[None, :]).max()
        if diam > 1e-6 * (1.0 + abs(lam0)):
            raise ClusterAmbiguityError(
                f"contour encloses eigenvalues spread over {diam:.3e}"
            )

    theta = 2 * np.pi * np.arange(M) / M
    ring = r * np.exp(1j * theta)

    invs = np.array(
        [_checked_inverse(pencil.T(lam), lam, pencil._scaled_T(lam)) for lam in lam0 + ring]
    )

    orders = np.arange(-(n_coeffs + 1), n_coeffs + 1)
    coeffs = {}
    halves = {}
    for nn in orders:
        w = ring ** (-nn)
        coeffs[nn] = np.tensordot(w, invs, axes=(0, 0)) / M
        halves[nn] = np.tensordot(w[::2], invs[::2], axes=(0, 0)) / (M // 2)

    norms = {nn: float(np.linalg.norm(coeffs[nn])) for nn in orders}
    scale = max(norms.values())
    if scale == 0:
        raise QuadratureConvergenceError("all contour coefficients vanished")
    qerr = max(
        float(np.linalg.norm(coeffs[nn] - halves[nn])) / scale for nn in orders
    )
    if qerr > 1e-7:
        raise QuadratureConvergenceError(
            f"halved-rule disagreement {qerr:.3e} exceeds 1e-7"
        )

    floor = 1e-8 * scale
    order = 0
    for nn in range(1, n_coeffs + 2):
        if norms[-nn] > floor:
            order = nn
    if order > n_coeffs:
        raise ValueError(
            f"pole order exceeds n_coeffs = {n_coeffs}; enlarge the coefficient range"
        )

    B = pencil_derivatives(pencil, lam0)
    bscale = max(float(np.linalg.norm(b)) for b in B)
    residuals = []
    for k in range(order):
        acc = np.zeros_like(coeffs[0])
        for j in range(k + 1):
            if k - j <= 2:
                acc = acc + B[k - j] @ coeffs[j - order]
        residuals.append(float(np.linalg.norm(acc)) / (bscale * scale))

    kept = {nn: coeffs[nn] for nn in range(-order, n_coeffs + 1)}
    return LaurentData(
        lambda0=lam0,
        order=order,
        coefficients=kept,
        contour_radius=r,
        relation_residuals=np.array(residuals),
        noise_floor=floor,
        quadrature_error=qerr,
    )


def t_infinity_estimate(pencil, radius, n_samples=256, eigenvalues=None,
                        zero_tol=1e-8):
    """Circle average of ln+ ||T^{-1}|| plus the pole-counting term.

    The average runs over |lam| = radius; samples where the pencil is near
    singular are masked, and more than 5% masked samples is an error.  The
    pole term adds ln(radius/|eig|) for trusted eigenvalues inside the circle
    plus (multiplicity at 0) * ln(radius).  Nondecreasing in the radius.
    """
    r = float(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    theta = 2 * np.pi * np.arange(n_samples) / n_samples
    ring = r * np.exp(1j * theta)

    norms = _resolvent_norms(pencil, ring)
    good = [max(math.log(x), 0.0) for x in norms[~np.isnan(norms)]]
    masked = len(norms) - len(good)
    if masked > 0.05 * len(norms):
        raise MaskedSampleError(
            f"{masked} of {len(norms)} circle samples sit near poles"
        )
    avg = float(np.mean(good)) if good else 0.0

    pole_term = 0.0
    if eigenvalues is not None:
        ev = np.asarray(eigenvalues, dtype=complex).ravel()
        mods = np.abs(ev)
        n_zero = int(np.sum(mods <= zero_tol))
        mid = mods[(mods > zero_tol) & (mods <= r)]
        pole_term = float(np.sum(np.log(r / mid))) + n_zero * math.log(r)
    return avg + pole_term
