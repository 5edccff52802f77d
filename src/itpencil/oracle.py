"""Closed-form spectral oracle for constant contrast on an interval.

For constant q the pencil factors into two constant-coefficient second order
factors, so T(lam) u = 0 has a four dimensional solution space with squared
exponents s1 = lam and s2 = lam (1 + 1/q) (Helmholtz) or s2 = lam - 1/q
(Schroedinger).  Eigenvalues are the zeros of the 4x4 determinant of the
boundary traces on a solution basis.

The basis used here is {c(s1), e(s1), Dc, De}: c(s; x) = cosh(sqrt(s) x),
e(s; x) = sinh(sqrt(s) x)/sqrt(s) and Dg = (g(s2) - g(s1))/(s2 - s1).  All are
entire and even in sqrt(s), so the determinant is a single-valued entire
function of lam: no branch cuts across the negative axis (where the zeros
live) and no spurious zeros at exponent collisions, where the divided
differences tend to s-derivatives.  The x = 0 rows of trace orders 0..3 are
(1,0,0,0), (0,1,0,0), (s1,0,1,0) and (0,s1,0,1), so column operations and the
Leibniz rule D[s g] = s2 Dg + g(s1) reduce the determinant exactly to a 2x2
expression in x = L values, one per unordered boundary pair (char_det).
Near s = 0 each s^n in the Taylor series of the traces becomes
h_{n-1}(s1, s2) = sum_{j<n} s1^j s2^(n-1-j) (McCurdy, Ng & Parlett, Math.
Comp. 43, 1984): no subtraction cancels and s1 = s2 needs no case of its own.

find_roots isolates the zeros of any vectorized analytic f, such as a
CharacteristicFunction cf with cf(z) = char_det(cf, z), by argument-principle
bisection of rectangles.  A rectangle of winding number w <= 4 is first
resolved in place from its contour moments s_k = (1/2 pi i) contour integral of
u^k f'/f dz, k < 2w, with u the box coordinate scaled to the unit disc,
computed from the boundary values its winding count already has.  The rank of
the Hankel matrix [s_{i+j}] counts the distinct zeros, a small Hankel
eigenproblem gives them and a Vandermonde fit their multiplicities, and each
starts a multiplicity-corrected Newton (Delves & Lyness, Math. Comp. 21, 1967;
Kravanja & Van Barel, LNM 1727, 2000).  A box whose moments fail any check is
bisected.  A multiple root goes to the mean of the zeros in its isolating
circle.  Where f(conj z) = conj f(z) bit for bit, as for char_det, a census on
a box symmetric about the real axis whose values are exact conjugate pairs (the
data decide) evaluates upper halves only; roots below are the conjugates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from ._blas import single_blas_thread
from .exceptions import ConfigError, WindingNumberError
from .symbols import BoundaryPair, PencilKind

_SERIES_CUT = 1e-6  # switch c, e to power series below |s| x^2 of this size
_DD_CUT = 1e-2  # divided-difference columns by series below max(|s1|, |s2|) length^2
_DD_TERMS = 7  # powers s^0 .. s^6 of that series
_PTS_PER_SIDE = 128  # contour samples per rectangle side on a first pass
_MAX_PTS = 4096  # cap on the doubled samples per side of a winding count
_MOMENT_MAX_W = 4  # largest winding number resolved from contour moments
_NEWTON_RTOL = 1e-10  # relative step that ends a Newton polish; also ties real parts
_CIRCLE_PTS = 64  # samples on the circle that places a multiple root at its centroid


@dataclass(frozen=True)
class CharacteristicFunction:
    """Constant-q characteristic determinant on (0, length) for a PencilKind."""

    kind: PencilKind
    q_val: float
    length: float
    bc: BoundaryPair

    def __post_init__(self):
        if not isinstance(self.kind, PencilKind):
            raise ConfigError(f"kind must be a PencilKind, got {self.kind!r}")
        if self.q_val <= 0.0:
            raise ConfigError("q must be positive")
        if self.length <= 0.0:
            raise ConfigError("length must be positive")
        if isinstance(self.bc, tuple):
            object.__setattr__(self, "bc", BoundaryPair(*self.bc))

    def __call__(self, lam):
        """char_det(self, lam), with char_det looked up when the call runs."""
        return char_det(self, lam)


def _ce(s, x):
    """c(s;x) = cosh(sqrt(s) x) and e(s;x) = sinh(sqrt(s) x)/sqrt(s), entire in s."""
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
    s1 = lam
    if cf.kind is PencilKind.HELMHOLTZ:
        s2 = lam * (1.0 + 1.0 / cf.q_val)
    else:
        s2 = lam - 1.0 / cf.q_val
    return s1, s2


def char_det(cf, lam):
    """Characteristic determinant, vectorized over lam; entire in lam.

    Zeros (with winding-number multiplicity) are exactly the constant-q
    eigenvalues for the configured boundary pair.  With e1 = e(s1; L),
    e2 = e(s2; L), p = s1 s2, Dg = (g(s2) - g(s1))/(s2 - s1) at x = L and
    F = Dc^2 - De D(se), the 4x4 determinant is, per unordered pair,

        {0,1}: F           {0,2}: -e1 e2
        {1,2}: p F         {1,3}: -p e1 e2
        {2,3}: p^2 F       {0,3}: (e1 - s1 De) D(s^2 e) + p Dc^2

    (swapping m1 and m2 swaps two pairs of rows).  Where max(|s1|, |s2|) L^2
    < _DD_CUT, which covers s1 = s2 = 0, the D's come from _dd_series.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    s1, s2 = _factor_params(cf, lam_arr)
    c1, e1 = _ce(s1, cf.length)
    c2, e2 = _ce(s2, cf.length)
    p = s1 * s2
    pair = {cf.bc.m1, cf.bc.m2}
    if pair == {0, 2}:
        det = -e1 * e2
    elif pair == {1, 3}:
        det = -p * e1 * e2
    else:
        small = np.maximum(np.abs(s1), np.abs(s2)) * cf.length**2 < _DD_CUT
        big = ~small
        ds = s2[big] - s1[big]

        def dd(g1, g2, m, k):
            # Dg for g the k-th of the order-m traces, given at s1 and s2
            out = np.empty_like(s1)
            out[big] = (g2[big] - g1[big]) / ds
            if np.any(small):
                out[small] = _dd_series(m, s1[small], s2[small], cf.length)[k]
            return out

        dc, de = dd(c1, c2, 0, 0), dd(e1, e2, 0, 1)
        if pair == {0, 3}:
            det = (e1 - s1 * de) * dd(s1 * s1 * e1, s2 * s2 * e2, 3, 0) + p * dc * dc
        else:  # {0,1}, {1,2}, {2,3}: p^0, p^1, p^2 times F
            det = p ** min(pair) * (dc * dc - de * dd(s1 * e1, s2 * e2, 1, 0))
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return complex(det[0])
    return det


def _rect_boundary(rect, pts_per_side):
    re0, re1, im0, im1 = rect
    t = np.arange(pts_per_side) / pts_per_side
    if im0 == -im1:  # re1 on the axis, up, over the top and down to re0, then the mirror
        h = t[::2]
        up = [re1 + 1j * im1 * h, re1 - t * (re1 - re0) + 1j * im1, re0 + 1j * im1 * (1.0 - h)]
        return _mirror(np.concatenate(up + [[re0]]))
    bottom = re0 + t * (re1 - re0) + 1j * im0
    right = re1 + 1j * (im0 + t * (im1 - im0))
    top = re1 - t * (re1 - re0) + 1j * im1
    left = re0 + 1j * (im1 - t * (im1 - im0))
    return np.concatenate([bottom, right, top, left])


def _mirror(upper):
    """Closed contour (or its values) u_0..u_M, conj(u_{M-1})..conj(u_1): z[-k] == conj(z[k])."""
    return np.concatenate([upper, np.conj(upper[-2:0:-1])])


def _contour_values(f, z, mirror):
    """f on a closed contour; with mirror (z[-k] == conj(z[k])) on its upper half only."""
    return _mirror(f(z[: z.size // 2 + 1])) if mirror else f(z)


@single_blas_thread
def winding_number(f, rect):
    """Winding number of f (a vectorized analytic function) along the rectangle boundary.

    Sampling starts at _PTS_PER_SIDE (128) points per side and doubles, up to _MAX_PTS
    (4096), while a phase step is too large to trust or the count is negative, which
    an analytic f cannot wind; raises WindingNumberError if it never settles.
    """
    return _winding(f, rect)


def _winding(f, rect, vals=None, mirror=False, pts=_PTS_PER_SIDE):
    """winding_number from pts points per side, with vals (if given) the values of f there."""
    while pts <= _MAX_PTS:
        if vals is None:
            vals = _contour_values(f, _rect_boundary(rect, pts), mirror and rect[2] == -rect[3])
        if np.any(np.abs(vals) < 1e-280):
            raise WindingNumberError("f vanishes on the contour")
        dphi = np.angle(_ratios(vals))
        total = dphi.sum() / (2.0 * np.pi)
        if np.max(np.abs(dphi)) < 2.5 and abs(total - round(total)) < 0.2 and round(total) >= 0:
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


def _newton_polish(f, z0, mult=1, max_iter=60, box=None):
    """Newton iteration on f (multiplicity-corrected), returns (root, step).

    With a box, an iterate that leaves it ends the iteration with step inf.
    """
    z = complex(z0)
    last = np.inf
    for _ in range(max_iter):
        h = 1e-7 * (1.0 + abs(z))
        f0, fp, fm = f(np.array([z, z + h, z - h]))
        deriv = (fp - fm) / (2.0 * h)
        if deriv == 0.0:
            break
        step = mult * f0 / deriv
        z -= step
        last = abs(step)
        if box is not None and not _inside(box, z):
            return z, np.inf
        if last <= _NEWTON_RTOL * (1.0 + abs(z)):
            break
    return z, last


def _clear_values(f, rect, mirror=False):
    """f on the rectangle boundary, or None if a sample is a near-zero."""
    vals = _contour_values(f, _rect_boundary(rect, _PTS_PER_SIDE), mirror and rect[2] == -rect[3])
    mag = np.abs(vals)
    return vals if mag.min() > 1e-13 * mag.max() else None


def _nudge_rect(rect, k):
    re0, re1, im0, im1 = rect
    frac = 1e-3 * (k + 1)
    dre = (re1 - re0) * frac
    dim = (im1 - im0) * frac
    return (re0 - dre, re1 + dre, im0 - dim, im1 + dim)


@single_blas_thread
def find_roots(f, rect, max_roots=200):
    """All zeros of a vectorized analytic f in a rectangle, by argument principle bisection.

    rect is (re_min, re_max, im_min, im_max).  Returns a list of
    (root, multiplicity, newton_step) sorted by real part, and by imaginary
    part among roots whose real parts agree to the Newton tolerance (a
    conjugate pair); the sum of multiplicities equals the winding number of
    the rectangle boundary.
    Each contour sample is evaluated once: the values that show a boundary
    clear of zeros, _PTS_PER_SIDE (128) per side, are the first pass of its
    winding count, which doubles them up to _MAX_PTS (4096) if needed.  A
    box of winding w <= 4 takes its zeros and multiplicities from the
    contour moments on those values and polishes each with
    multiplicity-corrected Newton, unless one of the checks of _moment_roots
    fails.  Boxes of winding above 4, and those the moments cannot resolve,
    are split until they fall below the floor diameter, then polished with
    a multiplicity-corrected Newton step.  A box that no split divides into
    child windings summing to its own is recounted from twice _PTS_PER_SIDE
    points per side, since a count can alias with every phase step under
    the test; a different recount is split instead (0 ends the box), and an
    equal one raises.  A root of
    multiplicity m > 1 is placed at its centroid on a circle (_centroid).
    If rect is symmetric about the real axis and its boundary values (the
    data, not the type of f) are exact conjugates at mirrored samples, only
    upper halves are evaluated, each root below the axis is the exact
    conjugate of one above, and a root alone in a symmetric box is real.
    """
    for k in range(6):
        vals = _clear_values(f, rect)
        if vals is not None:
            break
        rect = _nudge_rect(rect, k)
    else:
        raise WindingNumberError("could not clear the search rectangle boundary")

    mirror = rect[2] == -rect[3] and np.array_equal(vals[-np.arange(vals.size)], np.conj(vals))
    total = _winding(f, rect, vals)
    if total > max_roots:
        raise WindingNumberError(f"{total} roots exceed max_roots={max_roots}")
    found = []
    _subdivide(f, rect, total, found, vals, mirror)
    zeros = [r for r, _m, _s in found]
    zeros += [r.conjugate() for r in zeros if mirror and r.imag != 0.0]
    roots = [(_centroid(f, r, m, zeros, rect, mirror) if m > 1 else r, m, s) for r, m, s in found]
    roots += [(r.conjugate(), m, s) for r, m, s in roots if mirror and r.imag != 0.0]
    return _sorted_roots(roots)


def _sorted_roots(roots):
    """Roots by real part, runs of real parts within _NEWTON_RTOL by imaginary part.

    The real parts of a conjugate pair agree only to roundoff, so sorting on
    them alone lets the last bit decide which partner comes first.
    """
    runs = []
    for r in sorted(roots, key=lambda r: r[0].real):
        if runs and r[0].real - runs[-1][0][0].real <= _NEWTON_RTOL * (1.0 + abs(r[0])):
            runs[-1].append(r)
        else:
            runs.append([r])
    return [r for run in runs for r in sorted(run, key=lambda r: r[0].imag)]


_COMPARE_CAP = 200.0  # compare_spectrum checks the trusted eigenvalues with |lam| <= this


def compare_spectrum(solution, f):
    """An EigenSolution's trusted eigenvalues against the zeros of f, by one find_roots census.

    The census keeps find_roots's own root cap (200), whatever the trusted
    count, so a census that finds more roots than trusted eigenvalues still
    returns its verdict.  Returns a dict.  The trusted eigenvalues with
    |lam| <= _COMPARE_CAP (200) set "rect", re from min(-230, min re - 10)
    to 8 and im within +-max(5, 1.5 max |im|), and "max_rel_error" is the largest
    |lam - root| / (1 + |lam|) from one of them to its nearest root (0 for
    none).  "count_match" says whether "n_trusted_in_rect", the trusted
    eigenvalues strictly inside rect, equals "n_roots_weighted", the roots'
    summed multiplicity.  "roots" holds per census root, in find_roots order,
    (root, m, nearest, trusted, rel_errors): the m eigenvalues of any trust
    nearest it, nearest first, their trust flags and |eig - root| / (1 + |eig|).
    `itpencil spectrum --verify-oracle` passes on count_match and
    max_rel_error <= 1e-6.
    """
    tr, eig = solution.trusted_eigenvalues, solution.eigenvalues
    cap = tr[np.abs(tr) <= _COMPARE_CAP]
    immax = max(5.0, 1.5 * float(np.abs(cap.imag).max(initial=0.0)))
    remin = min(-_COMPARE_CAP - 30.0, float(cap.real.min(initial=0.0)) - 10.0)
    rect = (remin, 8.0, -immax, immax)
    found = find_roots(f, rect)
    zeros = np.array([r for r, _m, _s in found])
    errs = [float(np.min(np.abs(zeros - lam)) / (1.0 + abs(lam))) for lam in cap] if found else []
    inside = (tr.real > rect[0]) & (tr.real < rect[1]) & (tr.imag > rect[2]) & (tr.imag < rect[3])
    w, n_in = sum(m for _r, m, _s in found), int(inside.sum())
    near = [np.argsort(np.abs(eig - r), kind="stable")[:m] for r, m, _s in found]
    roots = [(r, m, eig[i], solution.trust_mask[i], np.abs(eig[i] - r) / (1.0 + np.abs(eig[i])))
             for (r, m, _s), i in zip(found, near)]
    return {"rect": list(rect), "n_roots_weighted": w, "n_trusted_in_rect": n_in,
            "count_match": w == n_in, "max_rel_error": max(errs, default=0.0), "roots": roots}


_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.57, 0.43, 0.61, 0.39, 0.55, 0.45, 0.635, 0.365)


def _split_once(f, rect, w, mirror):
    """Split a rectangle so that child windings sum to the parent's.

    Returns (rect, winding, boundary values) for each child.  In a census
    that mirrors, a symmetric box taller than wide splits into a thin
    symmetric strip and the box above it, whose mirror below holds the
    conjugate zeros: w = w_strip + 2 w_above, and no edge is on the axis.
    """
    re0, re1, im0, im1 = rect
    wide = (re1 - re0) >= (im1 - im0)
    strip = not wide and mirror and im0 == -im1
    for frac in _SPLIT_FRACTIONS:
        if wide:
            cut = re0 + frac * (re1 - re0)
            ra = (re0, cut, im0, im1)
            rb = (cut, re1, im0, im1)
        elif strip:
            cut = 0.1 * frac * im1
            ra = (re0, re1, -cut, cut)
            rb = (re0, re1, cut, im1)
        else:
            cut = im0 + frac * (im1 - im0)
            # keep horizontal edges off the real axis, where zeros accumulate
            if abs(cut) < 0.015 * (im1 - im0):
                continue
            ra = (re0, re1, im0, cut)
            rb = (re0, re1, cut, im1)
        a = _clear_winding(f, ra, mirror)
        b = None if a is None else _clear_winding(f, rb, mirror)
        if b is not None and a[0] + (1 + strip) * b[0] == w:
            return (ra, *a), (rb, *b)
    raise WindingNumberError(f"could not split rectangle {rect} consistently")


def _inside(rect, z):
    re0, re1, im0, im1 = rect
    return re0 - 1e-12 <= z.real <= re1 + 1e-12 and im0 - 1e-12 <= z.imag <= im1 + 1e-12


def _moment_roots(f, rect, w, vals, mirror):
    """The w zeros of a box from its contour moments, or None if the box must be split.

    vals are the boundary values at _PTS_PER_SIDE, so no new contour sample
    is taken.  Newton, multiplicity-corrected and at most 20 steps, runs from
    each Hankel node and must converge without leaving the box; the roots
    must be distinct to 1e-7 relative, and a root of multiplicity m > 1 is
    kept only if a clear box of side 1e-5 (1 + |root|) centred on it, the
    floor box of the split route, has winding number m.  A symmetric box of
    a mirrored census has real moments; only its nodes with Im >= 0 are kept.
    """
    re0, re1, im0, im1 = rect
    sym = mirror and im0 == -im1
    center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
    radius = 0.5 * np.hypot(re1 - re0, im1 - im0)
    s = _moments(_rect_boundary(rect, _PTS_PER_SIDE), vals, w, center, radius)
    fit = None if s is None else _hankel_nodes(s.real if sym else s)
    if fit is None:
        return None
    found = []
    for node, mult in zip(*fit):
        if sym and node.imag < 0:
            continue
        root, step = _newton_polish(f, center + radius * node, mult, max_iter=20, box=rect)
        if step > 1e-10 * (1.0 + abs(root)):
            return None
        taken = [r0 for r0, _m, _s in found]
        taken += [r0.conjugate() for r0 in taken + [root] if sym and r0.imag != 0.0]
        if any(abs(root - r0) <= 1e-7 * (1.0 + abs(root)) for r0 in taken):
            return None
        if mult > 1:
            h = 0.5e-5 * (1.0 + abs(root))
            box = (root.real - h, root.real + h, root.imag - h, root.imag + h)
            floor = _clear_winding(f, box, mirror)
            if floor is None or floor[0] != mult:
                return None
        found.append((root, int(mult), step))
    return found


def _clear_winding(f, rect, mirror):
    """(winding, boundary values) of rect, or None if its edge is not clear or does not settle."""
    vals = _clear_values(f, rect, mirror)
    if vals is None:
        return None
    try:
        return _winding(f, rect, vals, mirror), vals
    except WindingNumberError:
        return None


def _centroid(f, root, m, zeros, rect, mirror):
    """Root of multiplicity m moved to the mean of the zeros in |z - root| < rho.

    rho is half the distance to the nearest other zero or edge of rect.  g =
    log f - m log u, u = (z - root)/rho, is periodic there, so the trapezoid
    rule gives s_1 = -(1/2 pi) integral of g u dtheta spectrally, and the
    mean root + rho s_1/m is well conditioned where the cluster's members are
    not (Kato, Perturbation Theory, ch. II).  A real root of a mirrored
    census is real.  Returns root if the circle does not wind m times.
    """
    edges = [root.real - rect[0], rect[1] - root.real, root.imag - rect[2], rect[3] - root.imag]
    rho = 0.5 * min([abs(z - root) for z in zeros if z != root] + edges)
    theta = 2.0 * np.pi * np.arange(_CIRCLE_PTS) / _CIRCLE_PTS
    u = _mirror(np.exp(1j * theta[: _CIRCLE_PTS // 2 + 1]))
    sym = mirror and root.imag == 0.0
    vals = _contour_values(f, root + rho * u, sym)
    if np.any(vals == 0.0):
        return root
    ratios = _ratios(vals)
    dphi = np.angle(ratios)
    if np.max(np.abs(dphi)) >= 2.5 or round(dphi.sum() / (2.0 * np.pi)) != m:
        return root
    g = np.concatenate(([0.0], np.cumsum(np.log(ratios[:-1])))) - 1j * m * theta
    s1 = -np.mean(g * u)
    return root + rho * (s1.real if sym else s1) / m


def _subdivide(f, rect, w, roots, vals, mirror):
    """Isolate and polish the w zeros in rect (none below the axis if mirror); vals on its edge."""
    if w == 0:
        return
    if w <= _MOMENT_MAX_W:
        found = _moment_roots(f, rect, w, vals, mirror)
        if found is not None:
            roots.extend(found)
            return
    re0, re1, im0, im1 = rect
    center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
    if max(re1 - re0, im1 - im0) <= 1e-5 * (1.0 + abs(center)):
        # the floor box: its w zeros are one root of multiplicity w
        root, step = _newton_polish(f, center, mult=w)
        if not _inside(rect, root):
            raise WindingNumberError(f"root escaped its isolating box near {center}")
        roots.append((root, w, step))
        return
    try:
        children = _split_once(f, rect, w, mirror)
    except WindingNumberError:
        # w may be aliased at _PTS_PER_SIDE: recount from twice the points
        recount = _winding(f, rect, mirror=mirror, pts=2 * _PTS_PER_SIDE)
        if recount == w:
            raise
        children = _split_once(f, rect, recount, mirror) if recount else ()
    for child, wc, vc in children:
        _subdivide(f, child, wc, roots, vc, mirror)
