import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from itpencil import (
    BoundaryPair,
    CharacteristicFunction,
    PencilKind,
    char_det,
    find_roots,
    oracle,
    winding_number,
)
from itpencil.discretize import MediumProfile, assemble_pencil, make_grid
from itpencil.exceptions import WindingNumberError
from itpencil.spectra import linearize

H = PencilKind.HELMHOLTZ
S = PencilKind.SCHRODINGER


def _cf(kind=H, q=1.0, length=1.0, bc=(0, 1)):
    return CharacteristicFunction(kind, q, length, BoundaryPair(*bc))


def test_char_det_positive_axis_nonzero():
    cf = _cf()
    for lam in np.geomspace(0.5, 500.0, 25):
        assert abs(char_det(cf, complex(lam))) > 0
    # argument-principle count on a positive-axis rectangle is zero
    assert winding_number(cf, (1.0, 200.0, -5.0, 5.0)) == 0


def test_char_det_conjugation_symmetry():
    rng = np.random.default_rng(0)
    for cf in (_cf(), _cf(S, 2.0), _cf(H, 0.5, 1.0, (1, 3))):
        for _ in range(20):
            lam = complex(rng.uniform(-60, 10), rng.uniform(0.2, 40))
            a = char_det(cf, lam)
            b = char_det(cf, np.conj(lam))
            assert b == pytest.approx(np.conj(a), rel=1e-10)


def test_char_det_analytic():
    # Cauchy-Riemann by centered differences at random points
    cf = _cf()
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(10):
        lam = complex(rng.uniform(-40, 5), rng.uniform(0.5, 30))
        dre = (char_det(cf, lam + h) - char_det(cf, lam - h)) / (2 * h)
        dim = (char_det(cf, lam + 1j * h) - char_det(cf, lam - 1j * h)) / (2 * h)
        scale = max(abs(dre), abs(dim), 1e-30)
        assert abs(dre - (-1j) * dim) / scale < 1e-5


def test_scaling_law_interval_length():
    # roots for length L are the unit-interval roots divided by L^2
    rect = (-60.0, 5.0, -40.0, 40.0)
    base = find_roots(_cf(), rect, max_roots=40)
    L = 2.0
    rect_l = (rect[0] / L**2, 5.0, rect[2] / L**2, rect[3] / L**2)
    scaled = find_roots(_cf(length=L), rect_l, max_roots=40)
    assert len(base) == len(scaled)
    b = np.array([r for r, _m, _s in base]) / L**2
    s = np.array([r for r, _m, _s in scaled])
    # bijective nearest match: sorting swaps conjugates whose real parts tie
    i, j = linear_sum_assignment(np.abs(b[:, None] - s[None, :]))
    assert np.max(np.abs(b[i] - s[j]) / (1.0 + np.abs(s[j]))) < 1e-9


def test_confluent_fallback_matches_distinct_limit():
    # Helmholtz exponent pairs collide as q -> infinity at fixed lam; compare
    # determinants across a shrinking gap instead: values must agree smoothly
    cf = _cf()
    lam = -20.0 + 1e-4j
    near = char_det(cf, lam)
    nearer = char_det(cf, -20.0 + 1e-6j)
    on_axis = char_det(cf, -20.0 + 0j)
    assert nearer == pytest.approx(on_axis, rel=1e-3)
    assert near == pytest.approx(on_axis, rel=1e-1)


def test_find_roots_empty_rectangle():
    assert find_roots(_cf(), (100.0, 200.0, -3.0, 3.0)) == []


def test_find_roots_winding_consistency():
    cf = _cf()
    rect = (-60.0, 5.0, -40.0, 40.0)
    roots = find_roots(cf, rect, max_roots=40)
    total = sum(m for _r, m, _s in roots)
    assert winding_number(cf, rect) == total
    for r, _m, _s in roots:
        assert abs(char_det(cf, r)) < 1e-6


def test_find_roots_multiplicity_four_at_zero_for_23():
    # bc=(2,3) at lam=0: eigenfunctions {1, x} and each extends to a Jordan
    # chain of length two, so the algebraic multiplicity is 4
    cf = _cf(bc=(2, 3))
    roots = find_roots(cf, (-5.0, 5.0, -4.0, 4.0), max_roots=10)
    at_zero = [m for r, m, _s in roots if abs(r) < 1e-8]
    assert at_zero and at_zero[0] == 4


def test_find_roots_nudges_a_rectangle_through_a_root(monkeypatch):
    # the left edge's midpoint is the double root at 0 for bc=(1,3), so the
    # boundary is not clear; one nudge outward must find the same root
    nudges = []
    inner = oracle._nudge_rect

    def counted(rect, k):
        nudges.append(k)
        return inner(rect, k)

    monkeypatch.setattr(oracle, "_nudge_rect", counted)
    cf = _cf(bc=(1, 3))
    roots = find_roots(cf, (0.0, 8.0, -5.0, 5.0))
    assert nudges == [0]
    reference = find_roots(cf, (-0.1, 8.0, -5.0, 5.0))
    assert len(roots) == len(reference) == 1
    (r, m, _s), (r_ref, m_ref, _s_ref) = roots[0], reference[0]
    assert m == m_ref == 2
    assert abs(r) <= 1e-10 and abs(r_ref) <= 1e-10


def test_floor_box_resolves_a_fivefold_root(monkeypatch):
    # winding 5 is above _MOMENT_MAX_W, so every box around the root is split
    # down to the floor box, whose multiplicity-corrected Newton places it
    a = 0.3 + 0.2j

    def fivefold(cf, lam):
        lam = np.asarray(lam, dtype=complex)
        return (lam - a) ** 5 * np.exp(lam / 7.0)

    monkeypatch.setattr(oracle, "char_det", fivefold)
    roots = find_roots(_cf(), (-2.0, 2.0, -2.0, 2.0))
    assert len(roots) == 1
    root, mult, _step = roots[0]
    assert mult == 5
    assert abs(root - a) <= 1e-7


def test_find_roots_raises_when_the_boundary_never_clears():
    # the boundary values span more than 13 decades in modulus there, so
    # neither the rectangle nor any of its nudged copies counts as clear
    with pytest.raises(WindingNumberError, match="could not clear"):
        find_roots(_cf(), (-1000.0, 10.0, -500.0, 500.0))


def test_find_roots_raises_above_max_roots():
    with pytest.raises(WindingNumberError, match="exceed max_roots"):
        find_roots(_cf(), (-230.0, 8.0, -105.0, 105.0), max_roots=1)


def test_winding_number_raises_where_the_determinant_underflows():
    with pytest.raises(WindingNumberError, match="vanishes on the contour"):
        winding_number(_cf(), (-1e4, 1e4, -1e4, 1e4))


def test_q1_helmholtz_exponents():
    # factored exponents sqrt(lam), sqrt(2 lam) drive the determinant: the
    # entire function must vanish at the discretization-confirmed eigenvalue
    cf = _cf()
    lam = complex(-9.556623121614386, 13.058518053159935)
    assert abs(char_det(cf, lam)) < 1e-8


CENSUS_RECT = (-230.0, 8.0, -105.0, 105.0)


def _count_points(monkeypatch):
    """Route oracle.char_det through a counter of evaluated points."""
    points = [0]
    inner = oracle.char_det

    def counted(cf, lam):
        points[0] += np.size(lam)
        return inner(cf, lam)

    monkeypatch.setattr(oracle, "char_det", counted)
    return points


def test_find_roots_samples_each_contour_once(monkeypatch):
    # the clear check's boundary values are the winding count's first pass,
    # and a box of winding one starts Newton from its first moment on them;
    # sampling every contour twice costs 191,614 points on this census, and
    # shrinking single-root boxes to diameter 0.05 (1 + |c|) first 95,870
    points = _count_points(monkeypatch)
    cf = _cf()
    roots = find_roots(cf, CENSUS_RECT)
    assert points[0] <= 30_000
    assert sum(m for _r, m, _s in roots) == winding_number(cf, CENSUS_RECT)


def test_find_roots_orders_conjugate_pairs_by_imaginary_part():
    # the partners' real parts differ in the last bits; sorting on (re, im)
    # put the upper partner first in two of this census's four pairs
    roots = [r for r, _m, _s in find_roots(_cf(), CENSUS_RECT)]
    assert np.all(np.diff([r.real for r in roots]) >= -1e-10 * (1.0 + np.abs(roots[1:])))
    pairs = [(a, b) for a, b in zip(roots, roots[1:])
             if abs(a.real - b.real) <= 1e-10 * (1.0 + abs(a))]
    assert len(pairs) == 4
    assert all(a.imag < b.imag for a, b in pairs)


def test_first_moment_locates_simple_zero():
    # s_1 / s_0 = (1/2 pi i) contour integral of u f'/f dz / w is the zero itself
    a = 0.3 + 0.2j
    rect = (-1.0, 2.0, -1.5, 1.0)
    diam = 3.0
    z = oracle._rect_boundary(rect, 128)
    center, radius = 0.5 - 0.25j, 0.5 * np.hypot(3.0, 2.5)
    s = oracle._moments(z, (z - a) * np.exp(z / 7.0), 1, center, radius)
    assert s[0] == 1
    assert abs(center + radius * s[1] / s[0] - a) < 1e-3 * diam


def test_hankel_nodes_recover_a_rank_deficient_cluster():
    # winding four, two distinct zeros: H0 = [s_{i+j}] has rank two, and the
    # Vandermonde fit gives the multiplicities 3 and 1
    a, b = 0.3 + 0.2j, -0.4 - 0.7j
    rect = (-1.0, 2.0, -1.5, 1.0)
    center, radius = 0.5 - 0.25j, 0.5 * np.hypot(3.0, 2.5)
    z = oracle._rect_boundary(rect, 128)
    s = oracle._moments(z, (z - a) ** 3 * (z - b) * np.exp(z / 7.0), 4, center, radius)
    nodes, mult = oracle._hankel_nodes(s)
    found = sorted(zip(center + radius * nodes, mult), key=lambda t: -t[1])
    assert [m for _z, m in found] == [3, 1]
    assert abs(found[0][0] - a) < 1e-3 * 3.0 and abs(found[1][0] - b) < 1e-3 * 3.0
    # exact moments of the same nodes give them to roundoff
    u = (np.array([a, b]) - center) / radius
    exact = np.array([3 * u[0] ** k + u[1] ** k for k in range(8)])
    nodes, mult = oracle._hankel_nodes(exact)
    order = np.argsort(-mult)
    assert list(mult[order]) == [3, 1]
    assert np.max(np.abs(nodes[order] - u)) < 1e-10


def test_find_roots_certifies_a_double_root_beside_a_simple_one(monkeypatch):
    # at the box's scale the cluster looks like one triple zero; the floor-size
    # box centred on the Newton limit a holds only the double zero, so the
    # triple is refused and the box is split until the two zeros separate
    a = 0.3 + 0.2j
    monkeypatch.setattr(
        oracle, "char_det",
        lambda cf, lam: (lam - a) ** 2 * (lam - a - 2e-5) * np.exp(lam / 7.0),
    )
    roots = find_roots(_cf(), (-1.0, 2.0, -1.5, 1.0))
    assert [m for _r, m, _s in roots] == [2, 1]
    assert abs(roots[0][0] - a) < 1e-9
    assert abs(roots[1][0] - (a + 2e-5)) < 1e-9


@pytest.mark.parametrize(
    "kind,points_before",
    [pytest.param(H, 66_132, id="helmholtz"), pytest.param(S, 97_876, id="schrodinger")],
)
def test_find_roots_resolves_multiple_roots_from_moments(monkeypatch, kind, points_before):
    # bisecting the bc (2,3) double and quadruple roots down to the floor box
    # took points_before points, two fresh contours per level
    points = _count_points(monkeypatch)
    cf = _cf(kind, 1.3125, 1.0, (2, 3))
    roots = find_roots(cf, CENSUS_RECT)
    assert points[0] <= points_before // 2
    assert sum(m for _r, m, _s in roots) == winding_number(cf, CENSUS_RECT)


@pytest.mark.parametrize(
    "kind,q,bc,multiple",
    [
        # sqrt(s1) = 3 pi i and sqrt(s2) = 5 pi i at lam = -9 pi^2
        pytest.param(H, 0.5625, (0, 1), [(-9 * np.pi**2, 4)], id="helmholtz-0.5625-bc01"),
        pytest.param(H, 0.5625, (2, 3), [(-9 * np.pi**2, 4), (0.0, 4)],
                     id="helmholtz-0.5625-bc23"),
        pytest.param(S, 0.8125, (2, 3), [(0.0, 2), (1 / 0.8125, 2)],
                     id="schrodinger-0.8125-bc23"),
        pytest.param(S, 1.125, (2, 3), [(0.0, 2), (1 / 1.125, 2)], id="schrodinger-1.125-bc23"),
    ],
)
def test_find_roots_multiple_roots_on_the_real_axis(kind, q, bc, multiple):
    # these censuses raised "could not split rectangle" while every multiple
    # root was bisected down to a floor box on the real axis
    cf = _cf(kind, q, 1.0, bc)
    roots = find_roots(cf, CENSUS_RECT)
    assert sum(m for _r, m, _s in roots) == winding_number(cf, CENSUS_RECT)
    got = [(r, m) for r, m, _s in roots if m > 1]
    assert len(got) == len(multiple)
    for z, m in multiple:
        r, m_got = min(got, key=lambda t: abs(t[0] - z))
        assert m_got == m
        assert abs(r - z) <= 1e-6 * max(abs(z), 1.0)


@pytest.mark.parametrize("bc", [(0, 1), (2, 3)], ids=lambda bc: f"bc{bc[0]}{bc[1]}")
def test_quadruple_root_of_helmholtz_9_16(bc):
    # -9 pi^2 is one zero of multiplicity four, not a cluster: boxes down to
    # half-width 1e-3 keep winding four, and the n = 64 pencil has exactly
    # four eigenvalues near it (within 0.021 for bc (0,1), 0.069 for (2,3))
    cf = _cf(H, 0.5625, 1.0, bc)
    z = -9 * np.pi**2
    assert [winding_number(cf, (z - h, z + h, -h, h)) for h in (0.1, 0.01, 0.001)] == [4] * 3
    comp = linearize(assemble_pencil(MediumProfile.constant(H, 0.5625),
                                     make_grid(0.0, 1.0, 64), bc))
    dist = np.abs(scipy.linalg.eigvals(comp.matrix) - z)
    assert np.sum(dist < 0.1) == np.sum(dist < 10.0) == 4


def _mp_det(mp, cf, lam):
    """char_det at the working precision, for an mpc lam."""
    q = mp.mpf(cf.q_val)
    s1 = lam
    s2 = lam * (1 + 1 / q) if cf.kind is H else lam - 1 / q

    def traces(m, s, x):
        # order-m x-derivatives of cosh(r x) and sinh(r x)/r, r = sqrt(s)
        r = mp.sqrt(s)
        ch, sh = mp.cosh(r * x), mp.sinh(r * x)
        if m % 2 == 0:
            return r**m * ch, r ** (m - 1) * sh
        return r**m * sh, r ** (m - 1) * ch

    M = mp.matrix(4, 4)
    rows = [(cf.bc.m1, 0), (cf.bc.m2, 0), (cf.bc.m1, cf.length), (cf.bc.m2, cf.length)]
    for i, (m, x) in enumerate(rows):
        c1, e1 = traces(m, s1, mp.mpf(x))
        c2, e2 = traces(m, s2, mp.mpf(x))
        M[i, 0], M[i, 1] = c1, e1
        M[i, 2], M[i, 3] = (c2 - c1) / (s2 - s1), (e2 - e1) / (s2 - s1)
    return mp.det(M)


def _mp_char_det(mp, cf, lam):
    """char_det at 50 digits: closed-form traces, exact divided differences."""
    with mp.workdps(50):
        return complex(_mp_det(mp, cf, mp.mpc(lam.real, lam.imag)))


@pytest.mark.parametrize("kind", [H, S], ids=lambda k: k.value)
@pytest.mark.parametrize("bc", [(0, 1), (0, 2), (1, 3), (2, 3)], ids=lambda bc: f"bc{bc[0]}{bc[1]}")
@pytest.mark.parametrize("q", [0.7, 1.3])
def test_char_det_matches_mpmath(kind, bc, q):
    mp = pytest.importorskip("mpmath")
    cf = _cf(kind, q, 1.0, bc)
    rng = np.random.default_rng(11)
    lam = np.exp(rng.uniform(0.0, np.log(250.0), 8) + 1j * rng.uniform(-np.pi, np.pi, 8))
    got = char_det(cf, lam)
    ref = np.array([_mp_char_det(mp, cf, z) for z in lam])
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-10


@pytest.mark.parametrize(
    "kind,lam,rtol",
    [
        pytest.param(H, 1e-14 * (1 + 1j), 1e-12, id="helmholtz-tiny-lam"),
        pytest.param(S, -1e6 + 1e-3j, 1e-9, id="schrodinger-large-lam"),
    ],
)
def test_char_det_confluent_branch_matches_mpmath(kind, lam, rtol):
    # nearly colliding exponents: at 1e-14 both are tiny and float64 takes the
    # series columns, at -1e6 their square roots differ by 4e-4 and it takes
    # the plain quotient; mpmath takes the exact divided differences
    mp = pytest.importorskip("mpmath")
    cf = _cf(kind, 1.3, 1.0, (0, 1))
    ref = _mp_char_det(mp, cf, lam)
    assert abs(char_det(cf, lam) - ref) / abs(ref) < rtol


@pytest.mark.parametrize("kind", [H, S], ids=lambda k: k.value)
@pytest.mark.parametrize("bc", [(0, 1), (0, 2), (1, 3)], ids=lambda bc: f"bc{bc[0]}{bc[1]}")
@pytest.mark.parametrize("q", [0.7, 1.3])
def test_char_det_near_zero_matches_mpmath(kind, bc, q):
    # Helmholtz s1, s2 -> 0 together: the divided-difference columns come from
    # their series, with no cancellation.  bc (2, 3) is left out: there the 4x4
    # determinant of the exactly rounded entries is already 6e-8 off at 1e-8
    mp = pytest.importorskip("mpmath")
    cf = _cf(kind, q, 1.0, bc)
    angles = np.exp(1j * np.pi * np.array([0.25, 0.75, -0.75, -0.25]))
    lam = np.multiply.outer([1e-14, 1e-10, 1e-8, 1e-6, 1e-4], angles).ravel()
    got = char_det(cf, lam)
    ref = np.array([_mp_char_det(mp, cf, z) for z in lam])
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13


@pytest.mark.parametrize("kind", [H, S], ids=lambda k: k.value)
@pytest.mark.parametrize("bc", [(0, 1), (1, 3)], ids=lambda bc: f"bc{bc[0]}{bc[1]}")
def test_find_roots_match_mpmath_newton(kind, bc):
    # each simple census root is a fixed point of Newton on the 50-digit
    # determinant: two steps from it move it by at most 1e-10 relative
    mp = pytest.importorskip("mpmath")
    cf = _cf(kind, 1.3, 1.0, bc)
    simple = [r for r, m, _s in find_roots(cf, CENSUS_RECT) if m == 1 and abs(r) >= 1.0]
    assert simple
    with mp.workdps(50):
        h = mp.mpf("1e-20")
        for r in simple:
            z = mp.mpc(r.real, r.imag)
            for _ in range(2):
                deriv = (_mp_det(mp, cf, z + h) - _mp_det(mp, cf, z - h)) / (2 * h)
                z -= _mp_det(mp, cf, z) / deriv
            assert abs(r - complex(z)) / abs(complex(z)) < 1e-10
