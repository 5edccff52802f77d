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
exponent collisions, because the divided-difference columns degenerate
smoothly to s-derivative columns (the confluent t e^{rt} solutions).

find_roots isolates zeros by argument-principle bisection of rectangles.  A
rectangle of winding number one is not bisected further: the first contour
moment (1/2 pi i) contour integral of z f'/f dz, computed from the boundary
values its winding count already has, is the zero up to quadrature error
and starts Newton (Delves & Lyness, Math. Comp. 21, 1967).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import WindingNumberError
from .symbols import BoundaryPair, PencilKind

_SERIES_CUT = 1e-6  # switch c, e, de to power series below |s| x^2 of this size
_CONFLUENT_GAP = 1e-6  # exponent-gap threshold for the confluent columns


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


def _ce_ds(s, x):
    """s-derivatives of c and e; dc = (x/2) e, de has a removable 0/0 at s = 0."""
    s = np.asarray(s, dtype=complex)
    c, e = _ce(s, x)
    if x == 0.0:
        return c, e, e, e  # e = dc = de = 0 at the left endpoint
    dc = (x / 2.0) * e
    de = np.empty(s.shape, dtype=complex)
    small = np.abs(s) * x * x < _SERIES_CUT
    if np.any(small):
        z = s[small]
        x3 = x**3
        de[small] = x3 / 6.0 + z * x3 * x * x / 60.0 + z * z * x3 * x**4 / 1680.0
    big = ~small
    if np.any(big):
        de[big] = (x * c[big] - e[big]) / (2.0 * s[big])
    return c, e, dc, de


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


def _trace_cols_ds(m, s, c, e, dc, de):
    """s-derivatives of the order-m traces, given (c, e) and their s-derivatives."""
    if m % 2 == 0:
        k = m // 2
        lead_c = k * s ** (k - 1) * c if k > 0 else np.zeros_like(c)
        lead_e = k * s ** (k - 1) * e if k > 0 else np.zeros_like(e)
        return lead_c + s**k * dc, lead_e + s**k * de
    k = (m + 1) // 2
    kk = (m - 1) // 2
    col1 = k * s ** (k - 1) * e + s**k * de
    lead = kk * s ** (kk - 1) * c if kk > 0 else np.zeros_like(c)
    col2 = lead + s**kk * dc
    return col1, col2


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
    divided differences in s, replaced by s-derivative columns when the
    exponent gap falls below the confluence threshold.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    s1, s2 = _factor_params(cf, lam_arr)
    gap = np.abs(s1 - s2) / (np.sqrt(np.abs(s1)) + np.sqrt(np.abs(s2)) + 1e-300)
    confluent = gap < _CONFLUENT_GAP * np.sqrt(1.0 + np.abs(lam_arr))

    M = np.empty(lam_arr.shape + (4, 4), dtype=complex)
    dist = ~confluent
    any_dist, any_conf = np.any(dist), np.any(confluent)
    s2d = s2[dist]
    ds = s2d - s1[dist]
    sbar = 0.5 * (s1[confluent] + s2[confluent])
    # rows 0, 1 trace orders m1, m2 at x = 0; rows 2, 3 the same at x = length
    for x, i0 in ((0.0, 0), (cf.length, 2)):
        ce1 = _ce(s1, x)
        ce2 = _ce(s2d, x) if any_dist else None
        ce_ds = _ce_ds(sbar, x) if any_conf else None
        for i, m in ((i0, cf.bc.m1), (i0 + 1, cf.bc.m2)):
            c1, e1 = _trace_cols(m, s1, *ce1)
            M[..., i, 0] = c1
            M[..., i, 1] = e1
            if any_dist:
                c2, e2 = _trace_cols(m, s2d, *ce2)
                M[dist, i, 2] = (c2 - c1[dist]) / ds
                M[dist, i, 3] = (e2 - e1[dist]) / ds
            if any_conf:
                dcol1, dcol2 = _trace_cols_ds(m, sbar, *ce_ds)
                M[confluent, i, 2] = dcol1
                M[confluent, i, 3] = dcol2
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


def winding_number(cf, rect, pts_per_side=128, max_pts=4096):
    """Winding number of char_det along the rectangle boundary.

    Sampling doubles when a phase step is too large to be trusted; raises
    WindingNumberError if the count never settles to an integer.  Inside
    find_roots the first pass reuses the boundary values of the clear check,
    so each contour sample is evaluated once.
    """
    return _winding(cf, rect, pts_per_side, max_pts)


def _winding(cf, rect, pts_per_side, max_pts=4096, vals=None):
    """winding_number, with vals (if given) the char_det values at pts_per_side."""
    pts = pts_per_side
    while pts <= max_pts:
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


def _first_moment(z, vals):
    """(1/2 pi i) contour integral of z f'/f dz for a contour of winding one.

    z are the contour points in order, vals the values of f there.  By parts,
    the moment is z_0 - (1/2 pi i) contour integral of log f dz, with log f
    unwrapped from the phase steps and closed with log f(z_0) + 2 pi i; the
    trapezoid rule runs over the polygon.  For one simple zero the moment is
    the zero.  Returns None when a phase step fails the unwrap test of
    _winding.
    """
    ratios = _ratios(vals)
    if np.max(np.abs(np.angle(ratios))) >= 2.5:
        return None
    # log f - log f(z_0) at z_0..z_{N-1}, then closed by the winding
    logf = np.concatenate(([0.0], np.cumsum(np.log(ratios[:-1])), [2j * np.pi]))
    dz = np.diff(np.append(z, z[0]))
    integral = np.sum(0.5 * (logf[:-1] + logf[1:]) * dz)
    return complex(z[0] - integral / (2j * np.pi))


def _newton_polish(cf, z0, mult=1, tol=1e-10, max_iter=60):
    """Newton iteration on char_det (multiplicity-corrected), returns (root, step)."""
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
        if last <= tol * (1.0 + abs(z)):
            break
    return z, last


def _clear_values(cf, rect, pts_per_side):
    """char_det on the rectangle boundary, or None if a sample is a near-zero."""
    vals = char_det(cf, _rect_boundary(rect, pts_per_side))
    mag = np.abs(vals)
    return vals if mag.min() > 1e-13 * mag.max() else None


def _nudge_rect(rect, k):
    re0, re1, im0, im1 = rect
    f = 1e-3 * (k + 1)
    dre = (re1 - re0) * f
    dim = (im1 - im0) * f
    return (re0 - dre, re1 + dre, im0 - dim, im1 + dim)


def find_roots(cf, rect, max_roots=200, pts_per_side=128):
    """All zeros of char_det in a rectangle, by argument principle bisection.

    rect is (re_min, re_max, im_min, im_max).  Returns a list of
    (root, multiplicity, newton_step) sorted by real part; the sum of
    multiplicities equals the winding number of the rectangle boundary.
    Each contour sample is evaluated once: the values that show a boundary
    clear of zeros are the first pass of its winding count.  A box of
    winding one goes straight to Newton, started from its first contour
    moment on those values.  The root is kept if every phase step passes the
    unwrap test, Newton converges and the root lies in the box; otherwise the
    box is split like any other.  Boxes of winding two or more are split
    until they fall below the floor diameter, then polished with a
    multiplicity-corrected Newton step.
    """
    for k in range(6):
        vals = _clear_values(cf, rect, pts_per_side)
        if vals is not None:
            break
        rect = _nudge_rect(rect, k)
    else:
        raise WindingNumberError("could not clear the search rectangle boundary")

    total = _winding(cf, rect, pts_per_side, vals=vals)
    if total > max_roots:
        raise WindingNumberError(f"{total} roots exceed max_roots={max_roots}")
    roots = []
    _subdivide(cf, rect, total, roots, pts_per_side, vals)
    roots = _merge_close(roots)
    roots.sort(key=lambda r: (r[0].real, r[0].imag))
    return roots


def _merge_close(roots, rtol=1e-7):
    """Coalesce roots the subdivision separated but Newton could not.

    A zero of multiplicity m perturbs into a cluster of diameter about
    noise**(1/m), so two polished points within rtol of each other are
    one multiple zero, reported at the cluster mean.
    """
    merged = []
    for root, mult, step in roots:
        for i, (r0, m0, s0) in enumerate(merged):
            if abs(root - r0) <= rtol * (1.0 + abs(root)):
                w = (m0 * r0 + mult * root) / (m0 + mult)
                merged[i] = (w, m0 + mult, max(s0, step, abs(root - r0)))
                break
        else:
            merged.append((root, mult, step))
    return merged


_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.57, 0.43, 0.61, 0.39, 0.55, 0.45, 0.635, 0.365)


def _split_once(cf, rect, w, pts_per_side):
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
        va = _clear_values(cf, ra, pts_per_side)
        vb = None if va is None else _clear_values(cf, rb, pts_per_side)
        if vb is None:
            continue
        try:
            wa = _winding(cf, ra, pts_per_side, vals=va)
            wb = _winding(cf, rb, pts_per_side, vals=vb)
        except WindingNumberError:
            continue
        if wa + wb == w:
            return (ra, wa, va), (rb, wb, vb)
    raise WindingNumberError(f"could not split rectangle {rect} consistently")


def _inside(rect, z):
    re0, re1, im0, im1 = rect
    return re0 - 1e-12 <= z.real <= re1 + 1e-12 and im0 - 1e-12 <= z.imag <= im1 + 1e-12


def _subdivide(cf, rect, w, roots, pts_per_side, vals):
    """Isolate and polish the w zeros in rect; vals are its boundary values."""
    if w == 0:
        return
    if w == 1:
        # one simple zero: Newton from the first moment, no new contour samples
        z0 = _first_moment(_rect_boundary(rect, pts_per_side), vals)
        if z0 is not None:
            root, step = _newton_polish(cf, z0)
            if step <= 1e-10 * (1.0 + abs(root)) and _inside(rect, root):
                roots.append((root, 1, step))
                return
    re0, re1, im0, im1 = rect
    center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
    diam = max(re1 - re0, im1 - im0)
    floor = diam <= 1e-5 * (1.0 + abs(center))
    if floor or (w == 1 and diam <= 0.05 * (1.0 + abs(center))):
        root, step = _newton_polish(cf, center, mult=w)
        if _inside(rect, root):
            roots.append((root, w, step))
            return
        if floor:
            # Newton refuses to stay in an already tiny box
            raise WindingNumberError(f"root escaped its isolating box near {center}")
    (ra, wa, va), (rb, wb, vb) = _split_once(cf, rect, w, pts_per_side)
    _subdivide(cf, ra, wa, roots, pts_per_side, va)
    _subdivide(cf, rb, wb, roots, pts_per_side, vb)
