import dataclasses
import warnings
from collections import Counter
from types import SimpleNamespace

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
from itpencil.exceptions import ConfigError, WindingNumberError
from itpencil.oracle import compare_spectrum
from itpencil.spectra import linearize, solve_spectrum

H = PencilKind.HELMHOLTZ
S = PencilKind.SCHRODINGER


def _cf(kind=H, q=1.0, length=1.0, bc=(0, 1)):
    return CharacteristicFunction(kind, q, length, BoundaryPair(*bc))


@pytest.mark.parametrize("q,length,match", [(0.0, 1.0, "q must"), (1.0, -1.0, "length must")])
def test_characteristic_function_rejects_nonpositive_q_and_length(q, length, match):
    with pytest.raises(ConfigError, match=match):
        _cf(q=q, length=length)


def test_char_det_positive_axis_nonzero():
    cf = _cf()
    for lam in np.geomspace(0.5, 500.0, 25):
        assert abs(char_det(cf, complex(lam))) > 0
    # argument-principle count on a positive-axis rectangle is zero
    assert winding_number(cf, (1.0, 200.0, -5.0, 5.0)) == 0


ORDERED_BC = [(m1, m2) for m1 in range(4) for m2 in range(4) if m1 != m2]


def test_char_det_conjugation_symmetry():
    # every step of the closed form commutes with conjugation bit for bit, so
    # the value on the real axis is exactly real
    rng = np.random.default_rng(0)
    lam = rng.uniform(-60, 10, 20) + 1j * rng.uniform(0.2, 40, 20)
    real = rng.uniform(-60, 10, 20) + 0j
    for bc in ORDERED_BC:
        for cf in (_cf(H, 1.0, 1.0, bc), _cf(S, 2.0, 1.0, bc), _cf(H, 0.5, 1.0, bc)):
            assert np.array_equal(char_det(cf, np.conj(lam)), np.conj(char_det(cf, lam)))
            assert np.all(char_det(cf, real).imag == 0.0)
    # s1 = s2 = 0 takes only the series divided differences: no division by
    # s2 - s1, so no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        at_zero = [char_det(_cf(H, 1.3, 1.0, bc), 0.0) for bc in ((0, 1), (0, 2), (1, 3))]
    assert at_zero == [pytest.approx(1 / 12, rel=1e-15), -1.0, 0.0]


@pytest.mark.parametrize("kind", [H, S], ids=lambda k: k.value)
def test_char_det_is_symmetric_in_the_bc_orders(kind):
    # swapping m1 and m2 swaps two pairs of rows of the 4x4 determinant
    rng = np.random.default_rng(5)
    lam = np.concatenate([
        rng.uniform(-200, 10, 30) + 1j * rng.uniform(-80, 80, 30),
        1e-6 * (rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)),
    ])
    for m1, m2 in ORDERED_BC:
        a = char_det(_cf(kind, 0.8, 1.0, (m1, m2)), lam)
        b = char_det(_cf(kind, 0.8, 1.0, (m2, m1)), lam)
        assert np.array_equal(a, b)


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


def test_find_roots_fivefold_root_near_a_box_edge():
    # the bisection of (-2, 2, -1.5, 1.5) leaves the box (0.28125, 0.3125,
    # 0.178125, 0.2001563) with its top edge 1.56e-4 above the root; at 128
    # points per side it reads winding 3 with every phase step below 2.5 rad,
    # so no split sums to 3 until the box is recounted from 256 points per side
    a = 0.3 + 0.2j
    roots = find_roots(lambda z: (z - a) ** 5 * np.exp(z / 7.0), (-2.0, 2.0, -1.5, 1.5))
    assert [m for _r, m, _s in roots] == [5]
    assert abs(roots[0][0] - a) <= 1e-7


def test_symmetric_floor_box_sets_its_root_real(monkeypatch):
    # real coefficients give exact conjugate values, so the census mirrors;
    # the real 5-fold root is split down to a floor box symmetric about the
    # axis, and a root alone there is real
    def fivefold(cf, lam):
        lam = np.asarray(lam, dtype=complex)
        d = lam - 0.3
        return d * d * d * d * d * (lam - 4.0)

    mirrors = []
    subdivide = oracle._subdivide

    def recorded(cf, rect, w, roots, vals, mirror):
        mirrors.append(mirror)
        return subdivide(cf, rect, w, roots, vals, mirror)

    monkeypatch.setattr(oracle, "char_det", fivefold)
    monkeypatch.setattr(oracle, "_subdivide", recorded)
    roots = find_roots(_cf(), (-2.0, 2.0, -1.5, 1.5))
    assert len(roots) == 1
    root, mult, _step = roots[0]
    assert mult == 5
    assert root.imag == 0.0
    assert abs(root - 0.3) <= 1e-7
    assert mirrors and all(mirrors)


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


def test_winding_number_raises_when_a_phase_jump_never_resolves(monkeypatch):
    # a 2.6 rad jump across Re = 0.3 stays above the 2.5 rad step test at every doubling
    sizes = []

    def jump(cf, lam):
        sizes.append(lam.size)
        return np.where(lam.real > 0.3, 1.0 + 0j, np.exp(2.6j))

    monkeypatch.setattr(oracle, "char_det", jump)
    with pytest.raises(WindingNumberError, match="did not settle"):
        winding_number(_cf(), (0.0, 1.0, -1.0, 1.0))
    assert sizes == [4 * n for n in (128, 256, 512, 1024, 2048, 4096)]


def _g(q):
    """Away from lam = 0 the Helmholtz constant-q eigenvalues lam = -k^2 of the
    pairs (0, 1), (1, 2) and (2, 3) on (0, 1) are the zeros of this even entire
    function of k, with beta = sqrt(1 + 1/q) and gamma = (1 + beta^2) / (2 beta)."""
    beta = np.sqrt(1.0 + 1.0 / q)
    gamma = (1.0 + beta**2) / (2.0 * beta)
    return lambda k: ((1.0 + gamma) * np.cos((beta - 1.0) * k)
                      - (gamma - 1.0) * np.cos((beta + 1.0) * k) - 2.0)


def test_a_count_that_aliases_below_zero_is_refined():
    # at 256 points per side every phase step of g on this rectangle reads
    # under 2.5 rad and the count reads -192; an entire function cannot wind
    # negatively, and from 512 points on the count is 320
    g, rect = _g(0.75), (0.05, 400.0, -3.5, 3.5)
    assert winding_number(g, rect) == 320
    boxes = [r for x0 in range(0, 400, 50)
             for r in find_roots(g, (max(x0, 0.05), x0 + 50.0, -3.5, 3.5))]
    whole = find_roots(g, rect, max_roots=400)
    assert [m for _r, m, _s in whole] == [m for _r, m, _s in boxes] == [1] * 320
    for (r, _m, _s), (z, _mz, _sz) in zip(whole, boxes):
        assert abs(r - z) <= 1e-12 * abs(z)


@pytest.mark.parametrize("make", [
    pytest.param(lambda kind: CharacteristicFunction(kind, 1.3, 1.0, (0, 1)), id="oracle"),
    pytest.param(lambda kind: MediumProfile.constant(kind, 1.3), id="profile"),
])
def test_a_kind_that_is_not_a_pencil_kind_is_rejected(make):
    # compared by identity, the string "helmholtz" fell through to the Schrodinger branch
    with pytest.raises(ConfigError, match="PencilKind"):
        make("helmholtz")
    made = make(H)
    assert made.kind is H
    with pytest.raises(dataclasses.FrozenInstanceError):  # nor can it be set afterwards
        made.kind = "helmholtz"


def test_find_roots_raises_when_no_split_is_consistent():
    # b = (2 - x)(x + 2)(2 - y)(y + 2) vanishes on the edges of the box, so
    # its boundary winds 5 times, but the phase 1e6 b turns so fast inside
    # that no cut line settles, even at _MAX_PTS points per side
    a = 0.3 + 0.2j

    def f(z):
        x, y = z.real, z.imag
        return (z - a) ** 5 * np.exp(1e6j * (2.0 - x) * (x + 2.0) * (2.0 - y) * (y + 2.0))

    rect = (-2.0, 2.0, -2.0, 2.0)
    assert winding_number(f, rect) == 5
    with pytest.raises(WindingNumberError, match="could not split rectangle .* consistently"):
        find_roots(f, rect)


@pytest.mark.parametrize(
    "rect", [pytest.param((-4.0, 3.0, -3.0, 3.0), id="mirrored"),
             pytest.param((-4.0, 3.0, -1.0, 3.0), id="unmirrored")],
)
def test_find_roots_zeros_a_plain_callable(rect):
    # any vectorized analytic function can be censused, not only char_det;
    # real coefficients give exact conjugate values on the symmetric box
    def f(z):
        return (z - 1.0) ** 3 * (z + 2.0) * ((z - 0.5) ** 2 + 4.0) * np.exp(z / 7.0)

    expected = [(-2.0, 1), (0.5 - 2j, 1), (0.5 + 2j, 1), (1.0, 3)]
    expected = [(z, m) for z, m in expected if rect[2] < z.imag < rect[3]]
    roots = find_roots(f, rect)
    assert sum(m for _r, m, _s in roots) == winding_number(f, rect)
    assert len(roots) == len(expected)
    for (r, m, _s), (z, m_want) in zip(roots, expected):
        assert m == m_want
        assert abs(r - z) <= 1e-9 * abs(z)
    if rect[2] == -rect[3]:
        assert all(r.imag == 0.0 for r, _m, _s in roots if abs(r.imag) < 1.0)
        assert roots[1][0] == roots[2][0].conjugate()


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
        # the centroid on an isolating circle, taken real in a symmetric census
        assert abs(r - z) <= 1e-12 * max(abs(z), 1.0)
        assert r.imag == 0.0


@pytest.mark.parametrize(
    "kind,q,bc,points_before",
    [
        pytest.param(H, 0.5, (0, 1), 5_749, id="helmholtz-0.5-bc01"),
        pytest.param(S, 1.3125, (2, 3), 10_851, id="schrodinger-1.3125-bc23"),
        pytest.param(H, 0.5625, (2, 3), 20_490, id="helmholtz-0.5625-bc23"),
    ],
)
def test_symmetric_census_mirrors_the_lower_half(monkeypatch, kind, q, bc, points_before):
    # char_det is exactly conjugate-symmetric, so the census evaluates the
    # upper half of each symmetric box and nothing below the axis; both
    # halves took points_before points
    z = oracle._rect_boundary(CENSUS_RECT, 128)
    assert np.array_equal(z[-np.arange(z.size)], np.conj(z))
    points = _count_points(monkeypatch)
    cf = _cf(kind, q, 1.0, bc)
    roots = find_roots(cf, CENSUS_RECT)
    assert points[0] <= 0.6 * points_before
    assert sum(m for _r, m, _s in roots) == winding_number(cf, CENSUS_RECT)
    # each root below the axis is the exact conjugate of one above it, and
    # no root is listed twice
    found = Counter((r, m) for r, m, _s in roots)
    assert found == Counter((r.conjugate(), m) for r, m, _s in roots)
    assert set(found.values()) == {1}
    assert any(r.imag < 0.0 for r, _m in found)


def test_census_of_a_rectangle_that_is_not_symmetric_agrees():
    # (-230, 8, -40, 105) takes the full route; its roots are those of the
    # mirrored census with Im > -40 (none lies within 3 of that edge)
    cf = _cf(H, 1.3, 1.0, (0, 1))
    mirrored = [(r, m) for r, m, _s in find_roots(cf, CENSUS_RECT) if r.imag > -40.0]
    plain = find_roots(cf, (-230.0, 8.0, -40.0, 105.0))
    assert len(plain) == len(mirrored) == 7
    for (r, m, _s), (r_ref, m_ref) in zip(plain, mirrored):
        assert m == m_ref
        assert abs(r - r_ref) <= 1e-12 * abs(r_ref)


@pytest.mark.parametrize("box", [(-2.0, 2.0, -1.5, 1.5), (-2.0, 2.0, -2.0, 2.0)])
def test_census_of_a_function_without_conjugate_symmetry_mirrors_nothing(monkeypatch, box):
    # a double zero at a and a simple one at conj(a): the boxes are symmetric
    # but the values are not, so no root is mirrored into a phantom
    a = 0.3 + 0.2j

    def skew(cf, lam):
        lam = np.asarray(lam, dtype=complex)
        return (lam - a) ** 2 * (lam - np.conj(a)) * np.exp(lam / 7.0)

    monkeypatch.setattr(oracle, "char_det", skew)
    roots = find_roots(_cf(), box)
    assert [m for _r, m, _s in roots] == [1, 2]
    assert abs(roots[0][0] - np.conj(a)) <= 1e-12
    assert abs(roots[1][0] - a) <= 1e-12


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


ALL_BC = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("kind", [H, S], ids=lambda k: k.value)
@pytest.mark.parametrize("bc", ALL_BC, ids=lambda bc: f"bc{bc[0]}{bc[1]}")
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
@pytest.mark.parametrize("bc", ALL_BC, ids=lambda bc: f"bc{bc[0]}{bc[1]}")
@pytest.mark.parametrize("q", [0.7, 1.3])
def test_char_det_near_zero_matches_mpmath(kind, bc, q):
    # Helmholtz s1, s2 -> 0 together: the divided differences come from their
    # series, with no cancellation, and the x = 0 rows are eliminated exactly
    mp = pytest.importorskip("mpmath")
    cf = _cf(kind, q, 1.0, bc)
    angles = np.exp(1j * np.pi * np.array([0.25, 0.75, -0.75, -0.25]))
    lam = np.multiply.outer([1e-14, 1e-10, 1e-8, 1e-6, 1e-4], angles).ravel()
    got = char_det(cf, lam)
    ref = np.array([_mp_char_det(mp, cf, z) for z in lam])
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13


@pytest.mark.parametrize(
    "kind,q",
    [
        pytest.param(H, 1.3, id="helmholtz-1.3"),
        pytest.param(S, 1.3, id="schrodinger-1.3"),
        pytest.param(S, 0.7, id="schrodinger-0.7"),
        # the quotient divided differences carry e^(2 Re sqrt(s2) L) terms that
        # cancel in F and in the {0,3} form, so the relative error grows like
        # eps e^((Re sqrt(s2) - Re sqrt(s1)) L): 3.1e-2 at lam = 3e3 for q = 0.7
        pytest.param(H, 0.7, id="helmholtz-0.7", marks=pytest.mark.xfail(
            strict=True, reason="F cancels off the negative axis at large |lam|")),
    ],
)
def test_char_det_at_3e3_matches_mpmath(kind, q):
    # |lam| = 3e3 off the negative axis, where c and e at x = L reach 1e31 and
    # a determinant that mixes them with the x = 0 rows loses every digit
    mp = pytest.importorskip("mpmath")
    lam = 3e3 * np.exp(1j * np.pi * np.array([0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75]))
    for bc in ALL_BC:
        cf = _cf(kind, q, 1.0, bc)
        ref = np.array([_mp_char_det(mp, cf, z) for z in lam])
        assert np.max(np.abs(char_det(cf, lam) - ref) / np.abs(ref)) < 1e-6


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


def test_winding_number_names_f_when_it_vanishes_on_the_contour():
    with pytest.raises(WindingNumberError, match="f vanishes on the contour"):
        winding_number(lambda z: z - 1.0, (1.0, 2.0, -1.0, 1.0))


def test_find_roots_raises_when_a_floor_box_root_escapes():
    # five zeros on a circle of radius 5e-6 about c, the centre of a floor box
    # of the bisection of the unit square, and a 5-fold zero at R outside it:
    # the winding is 5, above the moment route's 4, so the box is split down
    # to the floor, and from c, where the cluster's pull cancels, the
    # multiplicity-5 Newton step goes to R
    c = complex(45875.5, 45875.5) / 65536
    R = 2.0 + 2.0j
    with pytest.raises(WindingNumberError, match="root escaped its isolating box"):
        find_roots(lambda z: ((z - c) ** 5 - 5e-6**5) * (z - R) ** 5, (0.0, 1.0, 0.0, 1.0))


def _fake_solution(eigenvalues, trusted):
    """The fields of an EigenSolution that compare_spectrum reads."""
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    trust_mask = np.asarray(trusted, dtype=bool)
    return SimpleNamespace(eigenvalues=eigenvalues, trust_mask=trust_mask,
                           trusted_eigenvalues=eigenvalues[trust_mask])


def test_compare_spectrum_takes_any_f_and_names_each_root():
    # f = (z + 2)^2 (z + 50 - 10i) (z + 50 + 10i): a double root and a pair
    f = np.polynomial.Polynomial.fromroots([-2.0, -2.0, -50.0 + 10j, -50.0 - 10j])
    eig = [-2.0 + 1e-9, -2.0 - 1e-9, -50.0 + 10j + 1e-4, -50.0 - 10j, 300.0]
    rep = compare_spectrum(_fake_solution(eig, [1, 1, 0, 1, 1]), f)
    # |lam| <= 200 sets the box: the pair's |im| 10 gives +-15, and 300 stays out
    assert rep["rect"] == [-230.0, 8.0, -15.0, 15.0]
    assert rep["n_roots_weighted"] == 4 and rep["n_trusted_in_rect"] == 3
    assert not rep["count_match"]
    assert rep["max_rel_error"] == pytest.approx(1e-9 / 3.0, rel=1e-3)
    (r0, m0, _n0, tr0, rel0), (r1, m1, _n1, tr1, rel1), (r2, m2, near2, tr2, _rel2) = rep["roots"]
    assert (m0, m1, m2) == (1, 1, 2)
    assert r0 == pytest.approx(-50.0 - 10j) and tr0.tolist() == [True] and rel0[0] < 1e-12
    assert r1 == pytest.approx(-50.0 + 10j) and tr1.tolist() == [False]
    assert rel1[0] == pytest.approx(1e-4 / (1.0 + abs(eig[2])), rel=1e-9)
    assert r2 == pytest.approx(-2.0) and tr2.tolist() == [True, True]
    assert sorted(near2.tolist(), key=lambda z: z.real) == [eig[1], eig[0]]
    # no trusted eigenvalue: the default box, and no error without a root inside
    far = np.polynomial.Polynomial([1.0, 1.0 / 500.0])  # its root -500 lies outside
    rep = compare_spectrum(_fake_solution([1.0], [0]), far)
    assert rep["rect"] == [-230.0, 8.0, -5.0, 5.0]
    assert rep["roots"] == [] and rep["max_rel_error"] == 0.0 and rep["count_match"]


def test_compare_spectrum_shows_why_helmholtz_bc23_fails_below_n64():
    # `spectrum --verify-oracle` on Helmholtz q = 1, bc (2, 3) exits 1 at
    # n = 32 and 48 (an open defect); the per-root report says why
    cf = _cf(q=1.0, bc=(2, 3))

    def report(n):
        sol = solve_spectrum(MediumProfile.constant(H, 1.0), 0.0, 1.0, n, (2, 3))
        return compare_spectrum(sol, cf)

    # n = 48: three roots each have an untrusted nearest eigenvalue 2.4e-6 to
    # 2.7e-6 away, which trust rightly rejects; the trusted ones all lie within 1e-6
    rep = report(48)
    assert rep["n_roots_weighted"] == 13 and rep["n_trusted_in_rect"] == 10
    assert rep["max_rel_error"] <= 1e-6
    missed = [(r, rel[0]) for r, m, _near, trusted, rel in rep["roots"] if not trusted.any()]
    assert [r for r, _rel in missed] == pytest.approx(
        [-205.541, -142.93 - 41.8346j, -142.93 + 41.8346j], abs=1e-3)
    assert all(2.4e-6 <= rel <= 2.8e-6 for _r, rel in missed)
    kept = [rel for _r, _m, _near, trusted, rel in rep["roots"] if trusted.all()]
    assert len(kept) == len(rep["roots"]) - 3 and max(map(max, kept)) <= 1e-6
    # n = 32: the trusted pair near -9.557 +- 13.059i is just above the 1e-6 rtol
    rep = report(32)
    pair = [(trusted, rel[0]) for r, m, _near, trusted, rel in rep["roots"]
            if abs(abs(r) - abs(-9.557 + 13.059j)) < 1e-2]
    assert len(pair) == 2 and all(t.all() and 1e-6 < rel < 1.1e-6 for t, rel in pair)
    assert rep["max_rel_error"] == pytest.approx(max(rel for _t, rel in pair), rel=1e-2)
