"""Principal symbols and parameter-ellipticity checks for transmission pencils.

Two operator families are supported, both fourth order quadratic pencils in the
spectral parameter.  With q the (positive) contrast profile:

  Helmholtz form      T(lam) u = (D2 q D2) u - lam (D2 q + q D2 + D2) u + lam^2 (1 + q) u
  Schroedinger form   T(lam) u = (D2 q D2) u + D2 u - lam (D2 q + q D2 + 1) u + lam^2 q u

where D2 stands for the Laplacian.  The principal symbol (with lam carrying
weight two) and the associated half-line boundary determinants are what this
module evaluates; they decide invertibility of the pencil off the negative
real axis.

The boundary determinant uses the decaying solutions e^{r2 t} and the
divided difference (e^{r4 t} - e^{r2 t}) / (r4 - r2), as the oracle does for
its exponent collisions: one row formula covers distinct roots, the repeated
root of the Schroedinger form and lam = 0, and stays continuous as lam -> 0,
so the sampled minimum does not drift with the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import ConfigError, DegenerateInputError

_ROOT_TOL = 1e-10
_ELLIPTIC_TOL = 1e-9  # a sampled minimum at or below this fails a check


def positive_finite(value, name):
    """value, if it is a positive finite number; else a ConfigError naming the argument."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite")
    return value


class PencilKind(Enum):
    HELMHOLTZ = "helmholtz"
    SCHRODINGER = "schrodinger"

    @classmethod
    def checked(cls, kind):
        """kind, if it is a PencilKind (its value string is not one); else a ConfigError."""
        if not isinstance(kind, cls):
            raise ConfigError(f"unknown pencil kind: {kind!r} (kind must be a PencilKind)")
        return kind


@dataclass(frozen=True)
class BoundaryPair:
    """Orders (m1, m2) of the two homogeneous boundary traces, m1 != m2."""

    m1: int
    m2: int

    def __post_init__(self):
        for m in (self.m1, self.m2):
            if not isinstance(m, int) or not 0 <= m <= 3:
                raise ConfigError("boundary trace orders must be integers in 0..3")
        if self.m1 == self.m2:
            raise ConfigError("boundary trace orders must differ")

    @classmethod
    def of(cls, bc):
        """bc itself if it is a BoundaryPair, else the pair of a two-element tuple or list."""
        if isinstance(bc, cls):
            return bc
        if isinstance(bc, (tuple, list)) and len(bc) == 2:
            return cls(*bc)
        raise ConfigError(f"a boundary pair is a BoundaryPair or two trace orders, got {bc!r}")


@dataclass(frozen=True)
class SymbolPoint:
    """A sample (q, |xi|^2, lam) of the symbol's argument space."""

    q_val: float
    xi_sq: float
    lam: complex

    def __post_init__(self):
        positive_finite(self.q_val, "q")
        if not 0.0 <= self.xi_sq < math.inf:
            raise ConfigError("xi_sq must be nonnegative and finite")


@dataclass(frozen=True)
class Cone:
    """Closed angular sector {r e^{i theta}: theta_min <= theta <= theta_max}.

    Angles are radians in [-pi, pi].  A cone whose closure touches the
    negative real axis is representable (the checks will then report a
    witness), but valid ellipticity scans should keep a positive angular gap.
    """

    theta_min: float
    theta_max: float

    def __post_init__(self):
        if not -math.pi <= self.theta_min <= self.theta_max <= math.pi:
            raise ConfigError("need -pi <= theta_min <= theta_max <= pi")

    def touches_negative_axis(self):
        return self.theta_min <= -math.pi + 1e-12 or self.theta_max >= math.pi - 1e-12


@dataclass(frozen=True)
class CharacteristicRoots:
    """Roots r1..r4 of the half-line symbol ODE, Re r1, r3 > 0 > Re r2, r4."""

    r1: complex
    r2: complex
    r3: complex
    r4: complex


@dataclass
class ConditionReport:
    """Result of a sampled ellipticity scan."""

    min_modulus: float
    witness: SymbolPoint
    witness_value: complex
    passed: bool
    tolerance: float
    n_samples: int


def _symbol_values(kind, q, xi_sq, lam):
    """Vectorized principal symbol; lam has weight two, xi weight one."""
    q = np.asarray(q, dtype=float)
    xi_sq = np.asarray(xi_sq, dtype=float)
    lam = np.asarray(lam, dtype=complex)
    if PencilKind.checked(kind) is PencilKind.HELMHOLTZ:
        return q * xi_sq**2 + lam * (1.0 + 2.0 * q) * xi_sq + lam**2 * (1.0 + q)
    return q * (xi_sq + lam) ** 2


def principal_symbol(kind, point):
    """Principal symbol at a single SymbolPoint."""
    return complex(_symbol_values(kind, point.q_val, point.xi_sq, point.lam))


def condition1_roots(kind, q_val, xi_sq):
    """Roots in lam of the principal symbol for fixed q and |xi|^2.

    Both roots lie on the closed negative real axis, which is why any cone
    avoiding that axis keeps the symbol bounded away from zero.
    """
    SymbolPoint(q_val, xi_sq, 0j)  # validates q and xi_sq
    if PencilKind.checked(kind) is PencilKind.HELMHOLTZ:
        # factorization q xi^4 + lam (1+2q) xi^2 + lam^2 (1+q)
        #   = (xi^2 + lam) (q xi^2 + lam (1+q))
        return (-xi_sq, -q_val / (1.0 + q_val) * xi_sq)
    return (-xi_sq, -xi_sq)


def _lattice(n, dim, seed):
    """Deterministic low-discrepancy point set in [0,1)^dim.

    Kronecker sequence driven by the generalized golden ratio; the seed only
    moves the lattice offset, so scans are reproducible.
    """
    # root of x**(dim+1) = x + 1
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = np.array([phi ** -(k + 1) for k in range(dim)])
    shift = np.random.Generator(np.random.PCG64(seed)).random(dim)
    idx = np.arange(1, n + 1)[:, None]
    return (shift[None, :] + idx * alpha[None, :]) % 1.0


def _cone_samples(q_range, cone, samples, seed):
    q_lo, q_hi = q_range
    if not 0.0 < q_lo <= q_hi:
        raise ConfigError("q_range must satisfy 0 < q_min <= q_max")
    pts = _lattice(samples, 3, seed)
    qs = q_lo + pts[:, 0] * (q_hi - q_lo)
    # normalized slice xi_sq + |lam| = 1 of the weighted cone
    t = pts[:, 1]
    args = cone.theta_min + pts[:, 2] * (cone.theta_max - cone.theta_min)
    # deterministic sweeps along both edges and the midline: a degenerate cone
    # with an edge on the negative real axis then samples the symbol roots
    # exactly instead of only nearby
    mid = 0.5 * (cone.theta_min + cone.theta_max)
    t_grid = np.linspace(0.0, 1.0, 33)
    q_mid = 0.5 * (q_lo + q_hi)
    for ang in (cone.theta_min, mid, cone.theta_max):
        for qv in (q_lo, q_mid, q_hi):
            qs = np.concatenate([qs, np.full(t_grid.size, qv)])
            t = np.concatenate([t, t_grid])
            args = np.concatenate([args, np.full(t_grid.size, ang)])
    xi_sq = t
    lam = (1.0 - t) * np.exp(1j * args)
    return qs, xi_sq, lam


def _report(qs, xi_sq, lam, modulus, values):
    """ConditionReport of a scan over the samples (qs, xi_sq, lam): the witness is
    the sample j of least modulus, with the value values[j]."""
    j = int(np.argmin(modulus))
    return ConditionReport(
        min_modulus=float(modulus[j]),
        witness=SymbolPoint(float(qs[j]), float(xi_sq[j]), complex(lam[j])),
        witness_value=complex(values[j]),
        passed=bool(modulus[j] > _ELLIPTIC_TOL),
        tolerance=_ELLIPTIC_TOL,
        n_samples=len(qs),
    )


def check_condition1(kind, q_range, cone, samples=2000, seed=0):
    """Scan |principal symbol| over the normalized set xi_sq + |lam| = 1.

    Returns a ConditionReport whose witness is the sampled minimizer.  For a
    cone with positive angular distance to the negative real axis the minimum
    stays above _ELLIPTIC_TOL (1e-9); a cone touching the axis produces a
    witness near a symbol root.
    """
    qs, xi_sq, lam = _cone_samples(q_range, cone, samples, seed)
    vals = _symbol_values(kind, qs, xi_sq, lam)
    return _report(qs, xi_sq, lam, np.abs(vals), vals)


def _decaying_pair(kind, q, xi_prime_sq, lam):
    """Decaying roots (r2, r4) of the half-line ODE, as arrays (see characteristic_roots)."""
    lam = np.asarray(lam, dtype=complex)
    r2 = -np.sqrt(lam + xi_prime_sq)
    if PencilKind.checked(kind) is PencilKind.HELMHOLTZ:
        return r2, -np.sqrt(lam * (1.0 + 1.0 / q) + xi_prime_sq)
    return r2, r2


def characteristic_roots(kind, q_val, xi_prime_sq, lam):
    """Characteristic roots of the half-line ODE at tangential frequency xi'.

    r1^2 = r2^2 = lam + xi'^2 and (Helmholtz) r3^2 = r4^2 = lam (1 + 1/q) + xi'^2;
    the Schroedinger form repeats the first pair.  Roots are ordered so that
    Re r1, Re r3 > 0 > Re r2, Re r4; inputs for which a root has vanishing
    real part, below _ROOT_TOL relative (lam on the negative axis with
    xi' = 0, say), are rejected.
    """
    SymbolPoint(q_val, xi_prime_sq, lam)  # validates q and xi'^2
    r2, r4 = (complex(r) for r in _decaying_pair(kind, q_val, xi_prime_sq, lam))
    for r in (r2, r4):
        if abs(r.real) <= _ROOT_TOL * max(1.0, abs(r)):
            raise DegenerateInputError(
                f"characteristic root {-r} has no real-part sign at lam={lam}"
            )
    return CharacteristicRoots(r1=-r2, r2=r2, r3=-r4, r4=r4)


def _decaying_rows(kind, q, xi_prime_sq, bc, lam):
    """Boundary rows (r2^m, h_{m-1}(r2, r4)), one per trace order m of bc, as arrays.

    The m-th traces at t = 0 of e^{r2 t} and of the divided difference
    (e^{r4 t} - e^{r2 t}) / (r4 - r2), h_{m-1} = sum_{j<m} r2^j r4^{m-1-j}
    with h_{-1} = 0.  At r4 = r2 (the Schroedinger form, and lam = 0) the
    second is the confluent m r^{m-1}, with no branch and no subtraction.
    """
    bc = BoundaryPair.of(bc)
    r2, r4 = _decaying_pair(kind, q, xi_prime_sq, lam)
    rows = []
    for m in (bc.m1, bc.m2):
        a, h = np.ones_like(r2), np.zeros_like(r2)
        for _ in range(m):
            a, h = a * r2, h * r4 + a
        rows.append((a, h))
    return rows


def lopatinsky_determinant(kind, bc, q_val, xi_prime_sq, lam):
    """Boundary determinant deciding unique solvability on the half line.

    Taken on the rows of _decaying_rows, it is continuous as lam -> 0.  For
    distinct decaying roots it equals det [[r2^m1, r4^m1], [r2^m2, r4^m2]],
    the determinant on the basis e^{r2 t}, e^{r4 t}, divided by r4 - r2; at a
    repeated root (the Schroedinger form, and lam = 0 in both forms) it is
    the confluent determinant on e^{r t}, t e^{r t}.
    """
    SymbolPoint(q_val, xi_prime_sq, lam)  # validates q and xi'^2
    if abs(lam) + xi_prime_sq == 0.0:
        raise DegenerateInputError("(xi', lam) = (0, 0) is excluded")
    (a1, b1), (a2, b2) = _decaying_rows(kind, q_val, xi_prime_sq, bc, lam)
    return complex(a1 * b2 - a2 * b1)


def check_condition2(kind, bc, q_range, cone, samples=2000, seed=0):
    """Scan the boundary determinant over the normalized cone slice.

    min_modulus is scale-fair: each sampled determinant is divided by the
    product of its row norms, so the reported minimum is the sine of the
    angle between the two trace rows.  witness_value keeps the raw
    determinant at the minimizer.  The slice xi_sq + |lam| = 1 never holds
    (xi', lam) = (0, 0), so the whole scan is one array pass.
    """
    qs, xi_sq, lam = _cone_samples(q_range, cone, samples, seed)
    (a1, b1), (a2, b2) = _decaying_rows(kind, qs, xi_sq, bc, lam)
    raw = a1 * b2 - a2 * b1
    scale = np.hypot(np.abs(a1), np.abs(b1)) * np.hypot(np.abs(a2), np.abs(b2))
    return _report(qs, xi_sq, lam, np.abs(raw) / np.maximum(scale, 1e-300), raw)
