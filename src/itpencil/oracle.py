"""Closed-form spectral oracle for constant contrast on an interval.

For constant q the pencil factors into two constant-coefficient second order
factors, so T(lam) u = 0 has a four dimensional solution space with squared
exponents s1 = lam and s2 = lam (1 + 1/q) (Helmholtz) or s2 = lam - 1/q
(Schroedinger).  Eigenvalues are the zeros of the 4x4 determinant of the
boundary traces on a solution basis.

The basis used here is {c(s1), e(s1), and first divided differences in s
between s1 and s2 of the same pair}, where c(s; x) = cosh(sqrt(s) x) and
e(s; x) = sinh(sqrt(s) x)/sqrt(s).  Both are entire and even in sqrt(s), so
the determinant is a single-valued entire function of lam: no branch cuts
across the negative axis (where the zeros live) and no spurious zeros at
exponent collisions, where the divided differences tend to s-derivatives
(the confluent t e^{rt} solutions).  Near s = 0 each power s^n in the Taylor
series of the traces becomes h_{n-1}(s1, s2) = sum_{j<n} s1^j s2^(n-1-j), so
no subtraction cancels there and s1 = s2 needs no case of its own.

find_roots isolates zeros by argument-principle bisection of rectangles.  A
rectangle of winding number w <= 4 is first resolved in place from its
contour moments s_k = (1/2 pi i) contour integral of u^k f'/f dz, k < 2w,
with u the box coordinate scaled to the unit disc, computed from the
boundary values its winding count already has.  The rank of the Hankel
matrix [s_{i+j}] counts the distinct zeros, a small Hankel eigenproblem
gives them and a Vandermonde fit their multiplicities, and each starts a
multiplicity-corrected Newton (Delves & Lyness, Math. Comp. 21, 1967;
Kravanja & Van Barel, LNM 1727, 2000).  A box whose moments fail any check
is bisected as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from ._blas import single_blas_thread
from .exceptions import WindingNumberError
from .symbols import BoundaryPair, PencilKind

_SERIES_CUT = 1e-6  # switch c, e to power series below |s| x^2 of this size
_DD_CUT = 1e-2  # divided-difference columns by series below max(|s1|, |s2|) length^2
_DD_TERMS = 7  # powers s^0 .. s^6 of that series
_PTS_PER_SIDE = 128  # contour samples per rectangle side on a first pass
_MAX_PTS = 4096  # cap on the doubled samples per side of a winding count
_MOMENT_MAX_W = 4  # largest winding number resolved from contour moments


@dataclass(frozen=True)
class CharacteristicFunction:
    """Constant-q characteristic determinant on (0, length)."""

    kind: PencilKind
    q_val: float
    length: float
    bc: BoundaryPair

    def __post_init__(self):
        if self.q_val <= 0.0:
            raise ValueError("q must be positive")
        if self.length <= 0.0:
            raise ValueError("length must be positive")
        if isinstance(self.bc, tuple):
            object.__setattr__(self, "bc", BoundaryPair(*self.bc))


def _ce(s, x):
    """c(s;x) = cosh(sqrt(s) x) and e(s;x) = sinh(sqrt(s) x)/sqrt(s), entire in s."""
    s = np.asarray(s, dtype=complex)
    if x == 0.0:
        # what the series branch gives exactly at the left endpoint
        return np.ones(s.shape, dtype=complex), np.zeros(s.shape, dtype=complex)
    small = np.abs(s) * x * x < _SERIES_CUT
    out_c = np.empty(s.shape, dtype=complex)
    out_e = np.empty(s.shape, dtype=complex)
    if np.any(small):
        z = s[small] * x * x
        out_c[small] = 1.0 + z / 2.0 + z * z / 24.0 + z * z * z / 720.0
        out_e[small] = x * (1.0 + z / 6.0 + z * z / 120.0 + z * z * z / 5040.0)
    big = ~small
    if np.any(big):
        r = np.sqrt(s[big])
        out_c[big] = np.cosh(r * x)
        out_e[big] = np.sinh(r * x) / r
    return out_c, out_e


def _trace_cols(m, s, c, e):
    """Traces of order m of the basis pair with squared exponent s, given (c, e) there.

    d/dx maps (c, e) to (s e, c), so even orders give s^(m/2) (c, e) and odd
    orders give (s^((m+1)/2) e, s^((m-1)/2) c).
    """
    if m % 2 == 0:
        k = m // 2
        return s**k * c, s**k * e
    k = (m + 1) // 2
    return s**k * e, s ** (k - 1) * c


def _dd_series(m, s1, s2, x):
    """Divided differences between s1 and s2 of the order-m traces of (c, e) at x.

    The traces are sums of a_n s^n, a_n = x^(2n-m)/(2n-m)! for c and
    x^(2n+1-m)/(2n+1-m)! for e (0 for a negative power of x), and s^n goes to
    h_{n-1} = s2 h_{n-2} + s1^(n-1), h_{-1} = 0: a sum with no subtraction.
    """
    dc = de = h = np.zeros_like(s1)
    p = np.ones_like(s1)  # s1^(n-1)
    for n in range(1, _DD_TERMS):
        h = s2 * h + p
        p = p * s1
        if 2 * n >= m:
            dc = dc + x ** (2 * n - m) / factorial(2 * n - m) * h
        if 2 * n + 1 >= m:
            de = de + x ** (2 * n + 1 - m) / factorial(2 * n + 1 - m) * h
    return dc, de


def _factor_params(cf, lam):
    lam = np.asarray(lam, dtype=complex)
    s1 = lam
    if cf.kind is PencilKind.HELMHOLTZ:
        s2 = lam * (1.0 + 1.0 / cf.q_val)
    else:
        s2 = lam - 1.0 / cf.q_val
    return s1, s2


def char_det(cf, lam):
    """Characteristic determinant, vectorized over lam; entire in lam.

    Zeros (with winding-number multiplicity) are exactly the constant-q
    eigenvalues for the configured boundary pair.  Columns three and four are
    the divided differences (c2 - c1)/(s2 - s1), or their series (_dd_series)
    where max(|s1|, |s2|) length^2 < _DD_CUT, which covers s1 = s2 = 0.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    s1, s2 = _factor_params(cf, lam_arr)
    small = np.maximum(np.abs(s1), np.abs(s2)) * cf.length**2 < _DD_CUT
    big = ~small
    any_small, any_big = np.any(small), np.any(big)
    s2b = s2[big]
    ds = s2b - s1[big]

    M = np.empty(lam_arr.shape + (4, 4), dtype=complex)
    # rows 0, 1 trace orders m1, m2 at x = 0; rows 2, 3 the same at x = length
    for x, i0 in ((0.0, 0), (cf.length, 2)):
        ce1 = _ce(s1, x)
        ce2 = _ce(s2b, x) if any_big else None
        for i, m in ((i0, cf.bc.m1), (i0 + 1, cf.bc.m2)):
            c1, e1 = _trace_cols(m, s1, *ce1)
            M[..., i, 0] = c1
            M[..., i, 1] = e1
            if any_big:
                c2, e2 = _trace_cols(m, s2b, *ce2)
                M[big, i, 2] = (c2 - c1[big]) / ds
                M[big, i, 3] = (e2 - e1[big]) / ds
            if any_small:
                M[small, i, 2], M[small, i, 3] = _dd_series(m, s1[small], s2[small], x)
    det = np.linalg.det(M)
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return complex(det[0])
    return det


def _rect_boundary(rect, pts_per_side):
    re0, re1, im0, im1 = rect
    t = np.arange(pts_per_side) / pts_per_side
    bottom = re0 + t * (re1 - re0) + 1j * im0
    right = re1 + 1j * (im0 + t * (im1 - im0))
    top = re1 - t * (re1 - re0) + 1j * im1
    left = re0 + 1j * (im1 - t * (im1 - im0))
    return np.concatenate([bottom, right, top, left])


@single_blas_thread
def winding_number(cf, rect):
    """Winding number of char_det along the rectangle boundary.

    Sampling starts at _PTS_PER_SIDE (128) points per side and doubles, up to
    _MAX_PTS (4096), when a phase step is too large to be trusted; raises
    WindingNumberError if the count never settles to an integer.  Inside
    find_roots the first pass reuses the boundary values of the clear check,
    so each contour sample is evaluated once.
    """
    return _winding(cf, rect)


def _winding(cf, rect, vals=None):
    """winding_number, with vals (if given) the char_det values at _PTS_PER_SIDE."""
    pts = _PTS_PER_SIDE
    while pts <= _MAX_PTS:
        if vals is None:
            vals = char_det(cf, _rect_boundary(rect, pts))
        if np.any(vals == 0.0) or np.any(np.abs(vals) < 1e-280):
            raise WindingNumberError("determinant vanishes on the contour")
        dphi = np.angle(_ratios(vals))
        total = dphi.sum() / (2.0 * np.pi)
        if np.max(np.abs(dphi)) < 2.5 and abs(total - round(total)) < 0.2:
            return int(round(total))
        pts *= 2
        vals = None
    raise WindingNumberError(f"winding number did not settle on rect {rect}")


def _ratios(vals):
    """f(z_{k+1}) / f(z_k) around the closed contour; their angles are the phase steps."""
    ratios = np.empty_like(vals)
    ratios[:-1] = vals[1:] / vals[:-1]
    ratios[-1] = vals[0] / vals[-1]
    return ratios


def _moments(z, vals, w, center, radius):
    """s_k = (1/2 pi i) contour integral of u^k f'/f dz, u = (z - center)/radius, k < 2w.

    z are the contour points in order, vals the values of f there and w the
    winding number.  By parts, s_k = w u_0^k - (k/2 pi i) contour integral of
    u^(k-1) log f du, with log f unwrapped from the phase steps relative to
    log f(z_0) and closed with 2 pi i w; the trapezoid rule runs over the
    polygon.  Zeros u_j of multiplicity m_j give s_k = sum_j m_j u_j^k, so
    for one simple zero s_1 / s_0 is the zero.  Returns None when a phase
    step fails the unwrap test of _winding.
    """
    ratios = _ratios(vals)
    if np.max(np.abs(np.angle(ratios))) >= 2.5:
        return None
    # log f - log f(z_0) at z_0..z_{N-1}, then closed by the winding
    logf = np.concatenate(([0.0], np.cumsum(np.log(ratios[:-1])), [2j * np.pi * w]))
    u = (np.append(z, z[0]) - center) / radius
    k = np.arange(1, 2 * w)
    g = u ** (k[:, None] - 1) * logf
    integrals = np.sum(0.5 * (g[:, :-1] + g[:, 1:]) * np.diff(u), axis=1)
    return np.concatenate(([w], w * u[0] ** k - k * integrals / (2j * np.pi)))


def _hankel_nodes(s):
    """Distinct nodes and integer multiplicities from moments s_0..s_{2w-1}, or None.

    The numerical rank r of H0 = [s_{i+j}] (singular values above 1e-3 of
    the largest) is the number of distinct nodes, which are the eigenvalues
    of H0[:r, :r]^-1 H1[:r, :r], H1 = [s_{i+j+1}] (Kravanja & Van Barel,
    LNM 1727, 2000).  Multiplicities come from the Vandermonde least-squares
    fit to all the moments; each must lie within 0.25 of an integer >= 1,
    and together they must sum to w = s_0.
    """
    w = len(s) // 2
    idx = np.add.outer(np.arange(w), np.arange(w))
    sv = np.linalg.svd(s[idx], compute_uv=False)  # sv[0] >= s_0 = w > 0
    r = int(np.sum(sv > 1e-3 * sv[0]))
    try:
        nodes = np.linalg.eigvals(np.linalg.solve(s[idx[:r, :r]], s[idx[:r, :r] + 1]))
    except np.linalg.LinAlgError:
        return None
    fit = np.linalg.lstsq(nodes ** np.arange(2 * w)[:, None], s, rcond=None)[0]
    mult = np.round(fit.real)
    if np.any(mult < 1) or np.any(np.abs(fit - mult) > 0.25) or mult.sum() != w:
        return None
    return nodes, mult.astype(int)


def _newton_polish(cf, z0, mult=1, tol=1e-10, max_iter=60, box=None):
    """Newton iteration on char_det (multiplicity-corrected), returns (root, step).

    With a box, an iterate that leaves it ends the iteration with step inf.
    """
    z = complex(z0)
    last = np.inf
    for _ in range(max_iter):
        h = 1e-7 * (1.0 + abs(z))
        f0, fp, fm = char_det(cf, np.array([z, z + h, z - h]))
        deriv = (fp - fm) / (2.0 * h)
        if deriv == 0.0:
            break
        step = mult * f0 / deriv
        z -= step
        last = abs(step)
        if box is not None and not _inside(box, z):
            return z, np.inf
        if last <= tol * (1.0 + abs(z)):
            break
    return z, last


def _clear_values(cf, rect):
    """char_det on the rectangle boundary, or None if a sample is a near-zero."""
    vals = char_det(cf, _rect_boundary(rect, _PTS_PER_SIDE))
    mag = np.abs(vals)
    return vals if mag.min() > 1e-13 * mag.max() else None


def _nudge_rect(rect, k):
    re0, re1, im0, im1 = rect
    f = 1e-3 * (k + 1)
    dre = (re1 - re0) * f
    dim = (im1 - im0) * f
    return (re0 - dre, re1 + dre, im0 - dim, im1 + dim)


@single_blas_thread
def find_roots(cf, rect, max_roots=200):
    """All zeros of char_det in a rectangle, by argument principle bisection.

    rect is (re_min, re_max, im_min, im_max).  Returns a list of
    (root, multiplicity, newton_step) sorted by real part, and by imaginary
    part among roots whose real parts agree to the Newton tolerance (a
    conjugate pair); the sum of multiplicities equals the winding number of
    the rectangle boundary.
    Each contour sample is evaluated once: the values that show a boundary
    clear of zeros, _PTS_PER_SIDE (128) per side, are the first pass of its
    winding count, which doubles them up to _MAX_PTS (4096) if needed.  A
    box of winding w <= 4 takes its zeros and multiplicities from the
    contour moments on those values (_moment_roots) and polishes each with
    multiplicity-corrected Newton.  They are kept if every phase step passes
    the unwrap test, the multiplicities are near integers summing to w,
    each Newton run converges within 20 steps without leaving the box, the
    roots are distinct, and each multiple root has its multiplicity as the
    winding number of a floor-size box around it; otherwise the box is
    split like any other.  Boxes of winding above 4, and those the moments
    cannot resolve, are split until they fall below the floor diameter,
    then polished with a multiplicity-corrected Newton step.
    """
    for k in range(6):
        vals = _clear_values(cf, rect)
        if vals is not None:
            break
        rect = _nudge_rect(rect, k)
    else:
        raise WindingNumberError("could not clear the search rectangle boundary")

    total = _winding(cf, rect, vals)
    if total > max_roots:
        raise WindingNumberError(f"{total} roots exceed max_roots={max_roots}")
    roots = []
    _subdivide(cf, rect, total, roots, vals)
    return _sorted_roots(roots)


def _sorted_roots(roots, rtol=1e-10):
    """Roots by real part, runs of real parts within rtol by imaginary part.

    The real parts of a conjugate pair agree only to roundoff, so sorting on
    them alone lets the last bit decide which partner comes first.
    """
    runs = []
    for r in sorted(roots, key=lambda r: r[0].real):
        if runs and r[0].real - runs[-1][0][0].real <= rtol * (1.0 + abs(r[0])):
            runs[-1].append(r)
        else:
            runs.append([r])
    return [r for run in runs for r in sorted(run, key=lambda r: r[0].imag)]


_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.57, 0.43, 0.61, 0.39, 0.55, 0.45, 0.635, 0.365)


def _split_once(cf, rect, w):
    """Split a rectangle so that child windings sum to the parent's.

    Returns (rect, winding, boundary values) for each child.
    """
    re0, re1, im0, im1 = rect
    wide = (re1 - re0) >= (im1 - im0)
    for frac in _SPLIT_FRACTIONS:
        if wide:
            cut = re0 + frac * (re1 - re0)
            ra = (re0, cut, im0, im1)
            rb = (cut, re1, im0, im1)
        else:
            cut = im0 + frac * (im1 - im0)
            # keep horizontal edges off the real axis, where zeros accumulate
            if abs(cut) < 0.015 * (im1 - im0):
                continue
            ra = (re0, re1, im0, cut)
            rb = (re0, re1, cut, im1)
        va = _clear_values(cf, ra)
        vb = None if va is None else _clear_values(cf, rb)
        if vb is None:
            continue
        try:
            wa = _winding(cf, ra, va)
            wb = _winding(cf, rb, vb)
        except WindingNumberError:
            continue
        if wa + wb == w:
            return (ra, wa, va), (rb, wb, vb)
    raise WindingNumberError(f"could not split rectangle {rect} consistently")


def _inside(rect, z):
    re0, re1, im0, im1 = rect
    return re0 - 1e-12 <= z.real <= re1 + 1e-12 and im0 - 1e-12 <= z.imag <= im1 + 1e-12


def _moment_roots(cf, rect, w, vals):
    """The w zeros of a box from its contour moments, or None if the box must be split.

    vals are the boundary values at _PTS_PER_SIDE, so no new contour sample
    is taken.  Newton, multiplicity-corrected and at most 20 steps, runs from
    each Hankel node and must converge without leaving the box; the roots
    must be distinct to 1e-7 relative, and a root of multiplicity m > 1 is
    kept only if a clear box of side 1e-5 (1 + |root|) centred on it, the
    floor box of the split route, has winding number m.
    """
    re0, re1, im0, im1 = rect
    center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
    radius = 0.5 * np.hypot(re1 - re0, im1 - im0)
    s = _moments(_rect_boundary(rect, _PTS_PER_SIDE), vals, w, center, radius)
    fit = None if s is None else _hankel_nodes(s)
    if fit is None:
        return None
    found = []
    for node, mult in zip(*fit):
        root, step = _newton_polish(cf, center + radius * node, mult, max_iter=20, box=rect)
        if step > 1e-10 * (1.0 + abs(root)):
            return None
        if any(abs(root - r0) <= 1e-7 * (1.0 + abs(root)) for r0, _m, _s in found):
            return None
        if mult > 1 and _floor_winding(cf, root) != mult:
            return None
        found.append((root, int(mult), step))
    return found


def _floor_winding(cf, root):
    """Winding number of the floor-size box centred on root, or None if not clear."""
    h = 0.5e-5 * (1.0 + abs(root))
    box = (root.real - h, root.real + h, root.imag - h, root.imag + h)
    vals = _clear_values(cf, box)
    if vals is None:
        return None
    try:
        return _winding(cf, box, vals)
    except WindingNumberError:
        return None


def _subdivide(cf, rect, w, roots, vals):
    """Isolate and polish the w zeros in rect; vals are its boundary values."""
    if w == 0:
        return
    if w <= _MOMENT_MAX_W:
        found = _moment_roots(cf, rect, w, vals)
        if found is not None:
            roots.extend(found)
            return
    re0, re1, im0, im1 = rect
    center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
    if max(re1 - re0, im1 - im0) <= 1e-5 * (1.0 + abs(center)):
        # the floor box: its w zeros are one root of multiplicity w
        root, step = _newton_polish(cf, center, mult=w)
        if not _inside(rect, root):
            raise WindingNumberError(f"root escaped its isolating box near {center}")
        roots.append((root, w, step))
        return
    (ra, wa, va), (rb, wb, vb) = _split_once(cf, rect, w)
    _subdivide(cf, ra, wa, roots, va)
    _subdivide(cf, rb, wb, roots, vb)
