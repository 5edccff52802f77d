"""Resolvent diagnostics: ray decay, block inverses, regularized products, contours.

Everything here consumes a DiscretePencil (or its companion form) and a list of
trusted eigenvalues produced by the spectra module.  Every sample, the Carleman
circle and probe samples included, passes one conditioning check: the 2-norm
condition at most 1e14 (spectra._sigma_range), and samples are evaluated in order
in the calling thread.  A pencil sample is checked in mass-scaled form,
B0 + lam B1 + lam^2 B2 with B_k = S^{-1} A_k S^{-1} cached once per pencil
(DiscretePencil._scaled_T), so no sample pays for scaling products.  Every
inverse is one LU, getrf then getri in numpy's OpenBLAS (itpencil._blas.lapack,
2/3 of the flops of np.linalg.inv), the one OpenBLAS itpencil loads.  A sample
whose result is an inverse is certified from that inverse by a Frobenius bound
(spectra._checked_inverse), with ||B||_F bounded by sum |lam|^k ||B_k||_F from
norms cached per pencil, so a certified sample costs its LU and nothing else;
an SVD, on B formed only then, runs only where the bound exceeds 1e12.
laurent_coefficients fills one buffer of _LAURENT_CHUNK sample inverses at a
time and adds its product with the matching weight columns into the contour
coefficients, so its memory does not grow with n_quad.

Each sample is a small dense factorization, where a second BLAS thread costs
more in hand-off than it gains.  The public functions here therefore run with
every loaded OpenBLAS at one thread and restore the caller's count on exit
(itpencil._blas); this also keeps their results independent of the caller's
thread count.  Stacked chunks of 32 SVDs on a 2-thread pool (one BLAS thread
each, 2 vCPUs) gave the same bits and ran a 448-sample circle scan on the
n = 64 pencil in 0.068-0.089 s against 0.079-0.137 s in a loop, but the
library benchmark's peak RSS rose from 82 to 89-90 MB with no pass time
gained beyond run-to-run noise, so samples stay in a loop in the calling
thread.

The work saved is in the count of samples instead.  A pencil with real
coefficients has T(conj lam) = conj T(lam), and the SVD of a conjugated matrix
gives the same singular values bit for bit, so _resolvent_norms evaluates each
conjugate pair of samples once, at its first sample in order, and carleman_check
does the same for a real lambda' and a real P.  The sample circles come from
_unit_ring, whose point n-k is the exact conjugate of point k, so a circle about
a real centre pairs every sample but those at k = 0 and k = n/2.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._blas import lapack, single_blas_thread
from .discretize import _read_only
from .exceptions import (
    BoundViolationError,
    ClusterAmbiguityError,
    ConfigError,
    MaskedSampleError,
    PoleOnRayError,
    QuadratureConvergenceError,
    SingularAtLambdaError,
)
from .spectra import (
    _checked_inverse,
    _sigma_range,
    linearize,
    pencil_derivatives,
)

_GROWTH_EPS = 0.1  # circle_growth_scan raises on a growth exponent above p + this
_LAURENT_CHUNK = 32  # samples per laurent_coefficients sum; even, so [::2] is the halved rule
_RADIUS_CANDIDATES = 128  # candidate radii per dyadic band in pole_avoiding_radii


@single_blas_thread
def resolvent_norm(pencil, lam):
    """Operator 2-norm of the solution map f -> u of T(lam) u = f.

    Computed as 1/sigma_min of M^{-1/2} T(lam) M^{-1/2} with M the mass
    matrix; this is the quadrature L2 operator norm of the inverse and is
    stable under grid refinement.
    """
    return 1.0 / _sigma_range(pencil._scaled_T(lam), lam)[1]


def _unit_ring(n):
    """exp(2 pi i k / n) for k = 0..n-1, with point n-k the exact conjugate of
    point k, so that a circle about a real centre is symmetric bit for bit."""
    theta = 2 * np.pi * np.arange(n) / n
    ring = np.exp(1j * theta)
    half = (n - 1) // 2
    ring[n - half :] = ring[half:0:-1].conj()
    return ring


def _once_per_conjugate_pair(f, real):
    """f, evaluated once per key (Re lam, |Im lam|) when real, else f itself.

    real says that the matrix f factors has X(conj lam) = conj X(lam); the SVD
    of a conjugated matrix gives the same singular values bit for bit, so the
    first sample of a conjugate pair serves both, a raise excepted.
    """
    if not real:
        return f
    values = {}

    def once(lam):
        key = (lam.real, abs(lam.imag))
        if key not in values:
            values[key] = f(lam)
        return values[key]

    return once


def _resolvent_norms(pencil, lams):
    """resolvent_norm at each sample in order, NaN where the check fails; a
    real pencil evaluates each conjugate pair once."""

    def norm(lam):
        try:
            return resolvent_norm(pencil, lam)
        except SingularAtLambdaError:
            return np.nan

    real = not any(np.iscomplexobj(A) for A in (pencil.A0, pencil.A1, pencil.A2))
    norm = _once_per_conjugate_pair(norm, real)
    return np.array([norm(lam) for lam in lams], dtype=float)


@dataclass(frozen=True)
class RayScan:
    direction: complex
    radii: np.ndarray
    norms: np.ndarray
    fitted_slope: float


@single_blas_thread
def ray_scan(pencil, direction, radii):
    """Sample ||T(r d)^{-1}|| along the ray r -> r*direction.

    fitted_slope is the least squares slope of log norm against log radius
    over the top decade of radii.  For a pencil whose inverse decays like
    |lam|^{-2} the slope sits near -2.
    """
    radii, = _read_only(np.array(radii, dtype=float))
    if radii.ndim != 1 or radii.size < 2:
        raise ConfigError("need at least two radii")
    if not np.all(np.isfinite(radii) & (radii > 0)) or np.any(np.diff(radii) <= 0):
        raise ConfigError("radii must be finite, positive and strictly increasing")
    d = complex(direction)
    if d == 0:
        raise ConfigError("direction must be nonzero")
    d /= abs(d)
    if d.real < 0 and abs(d.imag) < 1e-12:
        raise ConfigError("ray along the negative real axis hits the pole set")

    norms = _resolvent_norms(pencil, [r * d for r in radii])
    if np.isnan(norms).any():
        raise PoleOnRayError(f"pole on ray at radius {radii[np.isnan(norms)][0]}")
    top = radii >= radii[-1] / 10.0
    if top.sum() < 2:
        top = np.ones_like(top)
    slope = np.polyfit(np.log(radii[top]), np.log(norms[top]), 1)[0]
    return RayScan(direction=d, radii=radii, norms=norms, fitted_slope=float(slope))


@single_blas_thread
def companion_block_inverse_check(pencil, lam):
    """Verify the closed-form block inverse of the companion operator.

    Assembles
        (A - lam)^{-1} = [ -T^{-1}(A1 + lam A2)            -T^{-1}        ]
                         [ A2 - lam A2 T^{-1}(A1 + lam A2) -lam A2 T^{-1} ]
    multiplies it against (A - lam), and returns the max entrywise error
    relative to the factor magnitudes.  Also checks the norm inequality
    ||T(lam)^{-1}|| <= ||(A - lam)^{-1}|| in the weighted norms, where
    ||S T^{-1} S|| = 1/sigma_min(S^{-1} T S^{-1}) comes from the check itself,
    up to a relative and absolute slack of 1e-12.
    """
    tnorm = resolvent_norm(pencil, lam)
    Tinv = lapack().lu_inverse(pencil.T(lam))
    A2 = pencil.A2
    B = pencil.A1 + lam * A2
    TB = Tinv @ B
    block = np.block([[-TB, -Tinv], [A2 - lam * (A2 @ TB), -lam * (A2 @ Tinv)]])
    M = linearize(pencil).matrix - lam * np.eye(2 * pencil.dim)
    E = M @ block - np.eye(2 * pencil.dim)
    err = float(np.abs(E).max() / (1.0 + np.abs(M).max() * np.abs(block).max()))
    anorm = pencil.companion_norm(block)
    if tnorm > anorm * (1.0 + 1e-12) + 1e-12:
        raise BoundViolationError(
            f"||T^-1|| = {tnorm:.6e} exceeds ||(A-lam)^-1|| = {anorm:.6e}"
        )
    return err


@single_blas_thread
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

    def __post_init__(self):
        zeros, = _read_only(np.array(self.zeros, dtype=complex).ravel())
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "lambda_prime", complex(self.lambda_prime))
        if not 0 < self.p < math.inf:
            raise ConfigError("p must be positive and finite")
        if np.abs(zeros - self.lambda_prime).min(initial=np.inf) == 0:
            raise ConfigError("lambda_prime coincides with a zero")

    def zero_sum(self):
        """sum |zero_j - lambda_prime|^{-p} over the trusted zeros."""
        return float(np.sum(np.abs(self.zeros - self.lambda_prime) ** -self.p))

    @property
    def k(self):
        """The genus ceil(p), so that k - 1 <= p <= k."""
        return math.ceil(self.p)


def log_phi(wp, lam):
    """Complex logarithm of the product, or None when a factor vanishes."""
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
    return complex(np.exp(lg))


@single_blas_thread
def carleman_check(comp, wp, circle_radius, n_samples=64):
    """Bound check for phi(lam) (Id - K(lam))^{-1} with K = (lam-lam')(A-lam')^{-1}.

    Samples the circle |lam - lambda_prime| = circle_radius plus probe points
    offset 1e-3 from every trusted zero inside the circle (the product factor
    cancels the resolvent pole, so these stay bounded; max_probe_lhs reports
    their max separately for comparison against the circle median, with
    max_probe_cond, their largest condition number from the same SVDs, as its
    accuracy limit: 1/sigma_min is good to about eps times that).  Returns
    the measured max together with a reference exponential bound
    exp(e (1 + r^p S_p)) where S_p = sum |zero_j - lambda_prime|^{-p}; the
    constant in the theory is not pinned down, so the bound is reported
    rather than asserted.
    """
    r = float(circle_radius)
    if not 0 <= r < math.inf:
        raise ConfigError("circle_radius must be nonnegative and finite")
    M = comp.matrix if hasattr(comp, "matrix") else np.asarray(comp)
    eye = np.eye(M.shape[0])
    lamp = wp.lambda_prime
    # ||(Id - K)^{-1}|| in the companion norm is 1/sigma_min of S2 (Id - K) S2^-1
    # = Id - (lam - lam') P, so each sample needs one SVD and no inverse, and a
    # conjugate pair of samples needs one when lam' and P are real
    P = _checked_inverse(M - lamp * eye, f"lambda_prime {lamp}")
    if hasattr(comp, "source"):
        S2, S2inv = comp.source._companion_scaling
        P = S2 @ P @ S2inv

    if r == 0:
        samples = [lamp]
    else:
        samples = list(lamp + r * _unit_ring(n_samples))
    probes = []
    for z in wp.zeros:
        if abs(z - lamp) <= r:
            probes.extend([z + 1e-3, z - 1e-3, z + 1e-3j, z - 1e-3j])

    sigma_range = _once_per_conjugate_pair(
        lambda lam: _sigma_range(eye - (lam - lamp) * P, lam),
        lamp.imag == 0 and not np.any(P.imag),
    )
    logs, probe_conds = [], []
    for k, lam in enumerate(samples + probes):
        lg = log_phi(wp, lam)
        if lg is None:
            logs.append(-np.inf)
            continue
        smax, smin = sigma_range(lam)
        logs.append(lg.real - math.log(smin))
        if k >= len(samples):
            probe_conds.append(smax / smin)
    circle_logs = logs[: len(samples)]
    probe_logs = logs[len(samples) :]
    s_p = wp.zero_sum()
    return {
        "max_lhs": float(np.exp(max(logs))),
        "max_probe_lhs": float(np.exp(max(probe_logs))) if probe_logs else None,
        "max_probe_cond": max(probe_conds) if probe_conds else None,
        "bound_rhs": float(np.exp(math.e * (1.0 + r**wp.p * s_p))),
        "circle_median": float(np.exp(np.median(circle_logs))),
        "radius": r,
        "n_samples": len(samples),
        "n_probes": len(probes),
    }


def pole_avoiding_radii(eigenvalues, r_min, r_max):
    """Pick one radius per dyadic band of [r_min, r_max], far from pole moduli.

    Each band has _RADIUS_CANDIDATES (128) geometrically spaced candidates, and
    the one maximizing the distance to every |eigenvalue| wins.  A band whose
    best candidate still sits closer than 1e-3 times its radius to a pole
    modulus has no admissible radius.
    """
    if not 0 < r_min < r_max < math.inf:
        raise ConfigError("need 0 < r_min < r_max < inf")
    moduli = np.abs(np.asarray(eigenvalues, dtype=complex).ravel())
    edges = [r_min]
    while edges[-1] < r_max:
        edges.append(min(edges[-1] * 2, r_max))
    chosen = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        cand = np.geomspace(lo, hi, _RADIUS_CANDIDATES)
        score = np.abs(moduli[:, None] - cand).min(axis=0, initial=np.inf)
        best = int(np.argmax(score))
        if score[best] < 1e-3 * cand[best]:
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


@single_blas_thread
def circle_growth_scan(pencil, radii, p, n_theta=64, eigenvalues=None):
    """Max of log ||T^{-1}|| on pole-avoiding circles, with a growth exponent fit.

    The fit regresses log(max log norm, clamped below at 1e-6) on log radius;
    for inverses that decay the clamp makes the exponent trivially small.  An
    exponent above p + epsilon, epsilon = _GROWTH_EPS (0.1), raises, since an
    admissible pencil must grow no faster than exp(C r^{p+epsilon}) on good
    circles.
    """
    radii, = _read_only(np.array(radii, dtype=float))
    if radii.ndim != 1 or radii.size < 2:
        raise ConfigError("need at least two radii")
    if not np.all(np.isfinite(radii) & (radii > 0)):
        raise ConfigError("radii must be finite and positive")
    if not math.isfinite(p):
        raise ConfigError("p must be finite")
    moduli = np.abs(np.asarray([] if eigenvalues is None else eigenvalues, dtype=complex).ravel())
    ring = _unit_ring(n_theta)

    norms = _resolvent_norms(pencil, [r * w for r in radii for w in ring])
    norms = norms.reshape(radii.size, n_theta)
    touching = np.isnan(norms).any(axis=1)
    if touching.any():
        raise PoleOnRayError(f"circle of radius {radii[touching][0]} touches a pole")
    max_logs = np.array([max(math.log(x) for x in row) for row in norms])
    dists = np.abs(moduli[:, None] - radii).min(axis=0, initial=np.inf)
    clamped = np.maximum(max_logs, 1e-6)
    exponent = float(np.polyfit(np.log(radii), np.log(clamped), 1)[0])
    if exponent > p + _GROWTH_EPS:
        raise BoundViolationError(
            f"growth exponent {exponent:.3f} exceeds p + epsilon = {p + _GROWTH_EPS:.3f}"
        )
    return CircleGrowthReport(
        radii=radii,
        max_log_norms=max_logs,
        min_pole_distances=dists,
        fitted_exponent=exponent,
        p=float(p),
        epsilon=_GROWTH_EPS,
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


@single_blas_thread
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
    if not 0 < r < math.inf:
        raise ConfigError("radius must be positive and finite")
    if n_coeffs < 1:
        raise ConfigError("n_coeffs must be at least 1")
    M = int(n_quad)
    if M < 16:
        raise ConfigError("n_quad must be at least 16")
    M += M % 2

    if eigenvalues is not None:
        ev = np.asarray(eigenvalues, dtype=complex).ravel()
        gap = np.abs(np.abs(ev - lam0) - r)
        if gap.min(initial=np.inf) < 1e-6 * (1.0 + r):
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

    orders = np.arange(-(n_coeffs + 1), n_coeffs + 1)
    W = ring ** -orders[:, None]
    rows = np.empty((_LAURENT_CHUNK, pencil.dim**2), dtype=complex)
    full = np.zeros((orders.size, rows.shape[1]), dtype=complex)
    half = np.zeros_like(full)
    for s in range(0, M, _LAURENT_CHUNK):
        e = min(s + _LAURENT_CHUNK, M)
        for i, lam in enumerate(lam0 + ring[s:e]):
            rows[i] = _checked_inverse(pencil.T(lam), lam, pencil).ravel()
        full += W[:, s:e] @ rows[: e - s]
        half += W[:, s:e:2] @ rows[: e - s : 2]
    full /= M
    half /= M // 2
    coeffs = dict(zip(orders.tolist(), full.reshape(orders.size, pencil.dim, pencil.dim)))

    norms = dict(zip(orders.tolist(), np.linalg.norm(full, axis=1).tolist()))
    scale = max(norms.values())
    if scale == 0:
        raise QuadratureConvergenceError("all contour coefficients vanished")
    qerr = float(np.linalg.norm(full - half, axis=1).max()) / scale
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


@single_blas_thread
def t_infinity_estimate(pencil, radius, n_samples=256, eigenvalues=None):
    """Circle average of ln+ ||T^{-1}|| plus the pole-counting term.

    The average runs over |lam| = radius; samples where the pencil is near
    singular are masked, and more than 5% masked samples is an error.  The
    pole term adds ln(radius/|eig|) for trusted eigenvalues inside the circle
    plus (multiplicity at 0) * ln(radius), where |eig| <= 1e-8 counts as 0.
    Nondecreasing in the radius.
    """
    r = float(radius)
    if not 0 < r < math.inf:
        raise ConfigError("radius must be positive and finite")
    ring = r * _unit_ring(n_samples)

    norms = _resolvent_norms(pencil, ring)
    good = [max(math.log(x), 0.0) for x in norms[~np.isnan(norms)]]
    masked = len(norms) - len(good)
    if masked > 0.05 * len(norms):
        raise MaskedSampleError(
            f"{masked} of {len(norms)} circle samples sit near poles"
        )
    avg = float(np.mean(good)) if good else 0.0

    mods = np.abs(np.asarray([] if eigenvalues is None else eigenvalues, dtype=complex).ravel())
    n_zero = int(np.sum(mods <= 1e-8))
    mid = mods[(mods > 1e-8) & (mods <= r)]
    pole_term = float(np.sum(np.log(r / mid))) + n_zero * math.log(r)
    return avg + pole_term
