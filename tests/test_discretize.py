import dataclasses

import numpy as np
import pytest

from itpencil import (
    DiscretePencil,
    MediumProfile,
    PencilKind,
    assemble_pencil,
    assemble_pencil_2d,
    eigen,
    linearize,
    discretize,
    make_grid,
)
from itpencil.exceptions import ConfigError, SingularPencilError

H = PencilKind.HELMHOLTZ
S = PencilKind.SCHRODINGER


def test_make_grid_endpoints_and_weights():
    g = make_grid(0.0, 1.0, 8)
    assert g.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert g.nodes[-1] == pytest.approx(1.0, abs=1e-15)
    assert len(g.nodes) == 8
    for n in (8, 16, 33, 96):
        g = make_grid(0.0, 1.0, n)
        assert np.sum(g.weights) == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(g.nodes) > 0)


def test_make_grid_symmetry():
    g = make_grid(-1.0, 1.0, 16)
    assert np.allclose(g.nodes + g.nodes[::-1], 0.0, atol=1e-14)


def test_make_grid_rejects_small():
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 7)


def _smooth_members(pencil):
    """Two smooth vectors inside the clamped boundary space."""
    x = pencil.grids[0].nodes
    u = pencil.project(x**2 * (1 - x) ** 2 * np.sin(3 * x))
    w = pencil.project(x**2 * (1 - x) ** 2 * np.cos(2 * x + 0.3))
    return u, w


def test_helmholtz_q1_factorization():
    # constant q=1: T(lam) = (D^2 - 2 lam)(D^2 - lam) tested weakly against
    # the assembled bilinear form on smooth members of the boundary space
    # (rough vectors alias the quadrature)
    grid = make_grid(0.0, 1.0, 32)
    pencil = assemble_pencil(MediumProfile.constant(H, 1.0), grid, (0, 1))
    u, w = _smooth_members(pencil)
    for lam in (2.3 - 1.1j, -7.0 + 4.0j):
        fac = _apply_factored(pencil, lam, u)
        lhs = np.vdot(pencil.prolong(w) * grid.weights, fac)
        rhs = np.vdot(w, pencil.T(lam) @ u)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def _apply_factored(pencil, lam, u, shifts=None):
    """(D^2 + s_out)(D^2 + s_in) u on the grid, via Chebyshev differentiation."""
    s_out, s_in = shifts if shifts is not None else (-2 * lam, -lam)
    n = pencil.grids[0].n_pts
    cheb = np.polynomial.chebyshev
    zeta = 2.0 / (pencil.grids[0].b - pencil.grids[0].a)
    xhat = np.cos(np.pi * np.arange(n) / (n - 1))
    up = pencil.prolong(u)
    c = cheb.chebfit(xhat, up[::-1], n - 1)
    d2 = cheb.chebder(c, 2) * zeta**2
    first = cheb.chebval(xhat, d2)[::-1] + s_in * up
    c1 = cheb.chebfit(xhat, first[::-1], n - 1)
    d21 = cheb.chebder(c1, 2) * zeta**2
    return cheb.chebval(xhat, d21)[::-1] + s_out * first


def test_schrodinger_q1_factorization():
    # constant q=1: T(lam) = (D^2 - lam)(D^2 - lam + 1) weakly
    grid = make_grid(0.0, 1.0, 32)
    pencil = assemble_pencil(MediumProfile.constant(S, 1.0), grid, (0, 1))
    lam = 1.4 + 0.9j
    u, w = _smooth_members(pencil)
    fac = _apply_factored(pencil, lam, u, shifts=(-lam, 1.0 - lam))
    lhs = np.vdot(pencil.prolong(w) * grid.weights, fac)
    rhs = np.vdot(w, pencil.T(lam) @ u)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_t0_symmetric_for_constant_q():
    # formally self-adjoint at lam = 0; quadrature leaves discretization-level
    # asymmetry in the lower-order blocks
    grid = make_grid(0.0, 1.0, 24)
    for kind in (H, S):
        pencil = assemble_pencil(MediumProfile.constant(kind, 1.0), grid, (0, 1))
        A0 = pencil.T(0.0)
        assert np.max(np.abs(A0 - A0.T)) <= 1e-5 * np.max(np.abs(A0))


def test_apply_pencil_quadratic_in_lambda():
    grid = make_grid(0.0, 1.0, 20)
    pencil = assemble_pencil(MediumProfile.constant(H, 2.0), grid, (0, 1))
    rng = np.random.default_rng(1)
    u = rng.standard_normal(pencil.dim) + 1j * rng.standard_normal(pencil.dim)
    v = rng.standard_normal(pencil.dim)
    lam, h = 0.7 + 0.2j, 0.5
    assert np.allclose(
        pencil.T(lam) @ (u + v), pencil.T(lam) @ u + pencil.T(lam) @ v, rtol=1e-12
    )
    second = (
        pencil.T(lam + h) @ u - 2 * pencil.T(lam) @ u + pencil.T(lam - h) @ u
    ) / h**2
    assert np.allclose(second, 2 * pencil.A2 @ u, rtol=1e-9)
    assert np.allclose(pencil.T(0.0) @ u, pencil.A0 @ u, rtol=1e-12)


def test_bc_traces_vanish_on_recombined_basis():
    # endpoint traces of order m carry an eps * n^{2m} rounding floor, so the
    # second and third derivative traces are checked against the trace-row
    # scale instead of absolutely
    grid = make_grid(0.0, 1.0, 28)
    n = grid.n_pts
    cheb = np.polynomial.chebyshev
    zeta = 2.0 / (grid.b - grid.a)
    xhat = np.cos(np.pi * np.arange(n) / (n - 1))
    for bc in ((0, 1), (0, 2), (1, 3), (2, 3)):
        pencil = assemble_pencil(MediumProfile.constant(H, 1.0), grid, bc)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(pencil.dim)
        up = pencil.prolong(u)
        c = cheb.chebfit(xhat, up[::-1], n - 1)
        for m in bc:
            dm = cheb.chebder(c, m) * zeta**m if m else c
            vals = np.max(np.abs(cheb.chebval(np.array([-1.0, 1.0]), dm)))
            if m <= 1:
                assert vals <= 1e-8 * np.linalg.norm(up)
            else:
                row_scale = abs(cheb.chebder(np.eye(n)[n - 1], m)).sum() * zeta**m
                assert vals <= 1e-10 * row_scale * np.linalg.norm(up)


def test_dimension_after_recombination():
    grid = make_grid(0.0, 1.0, 40)
    pencil = assemble_pencil(MediumProfile.constant(H, 1.0), grid, (0, 1))
    assert pencil.dim == 40 - 4
    assert pencil.A0.shape == pencil.A1.shape == pencil.A2.shape


def test_variable_q_positivity_enforced():
    grid = make_grid(0.0, 1.0, 20)
    profile = MediumProfile.polynomial(H, [0.5, -1.0])  # crosses zero on (0,1)
    with pytest.raises(ValueError):
        assemble_pencil(profile, grid, (0, 1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("profile", [
    MediumProfile.constant(H, float("nan")),
    MediumProfile.constant(S, float("inf")),
    MediumProfile.polynomial(H, [1.0, float("inf")]),
    MediumProfile.sampled(H, [1.0] * 19 + [float("nan")]),
    MediumProfile.polynomial(H, [1.0, 1e308, 1e308]),  # finite, overflows at x = 1
])
def test_non_finite_q_rejected(profile):
    # NaN compares false against every bound, so it must be caught on its own
    with pytest.raises(ValueError, match="finite"):
        profile.values(make_grid(0.0, 1.0, 20).nodes)


def test_grid_refinement_stability():
    # first eigenvalues settle between consecutive grids at constant q
    profile = MediumProfile.constant(H, 1.0)
    eigs = []
    for n in (64, 72):
        pencil = assemble_pencil(profile, make_grid(0.0, 1.0, n), (0, 1))
        sol = eigen(linearize(pencil))
        lam = sol.eigenvalues
        # complete conjugate pairs, then order lexicographically
        lam = lam[np.argsort(np.abs(lam))][:6]
        eigs.append(lam[np.lexsort((lam.imag, lam.real.round(6)))])
    a, b = eigs
    assert np.max(np.abs(a - b) / (1.0 + np.abs(a))) < 1e-8


def test_2d_assembly_separates():
    # q=1 Helmholtz tensor square: size of the tensor basis and a mass-weighted A2
    profile = MediumProfile.constant(H, 1.0)
    gx = make_grid(0.0, 1.0, 12)
    gy = make_grid(0.0, 1.0, 12)
    p2 = assemble_pencil_2d(profile, gx, gy, (0, 1))
    assert p2.dim == (12 - 4) * (12 - 4)
    # A2 = (1 + q) times the quadrature mass of the tensor basis
    assert np.allclose(p2.A2, 2.0 * p2.mass, rtol=0.0, atol=1e-14 * np.abs(p2.A2).max())


def test_2d_size_cap():
    profile = MediumProfile.constant(H, 1.0)
    gx = make_grid(0.0, 1.0, 80)
    gy = make_grid(0.0, 1.0, 80)
    with pytest.raises(ValueError):
        assemble_pencil_2d(profile, gx, gy, (0, 1))


P = np.polynomial.polynomial


def _bc_poly(bc, a, b, base):
    """base plus the minimal-norm quintic correction meeting the bc traces at a and b."""
    traces = [(m, x) for m in bc for x in (a, b)]
    rows = [[P.polyval(x, P.polyder(np.eye(6)[k], m)) for k in range(6)] for m, x in traces]
    rhs = [-P.polyval(x, P.polyder(base, m)) for m, x in traces]
    return P.polyadd(base, np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0])


def _strong_blocks(kind, q, p, r, x, y):
    """Strong-form A0, A1, A2 applied to u = p(x) r(y) with q = q(x), on the tensor nodes."""
    px = [P.polyval(x, P.polyder(p, m))[:, None] for m in range(5)]
    ry = [P.polyval(y, P.polyder(r, m))[None, :] for m in range(5)]
    q0, q1, q2 = (P.polyval(x, P.polyder(q, m))[:, None] for m in range(3))
    u, ux = px[0] * ry[0], px[1] * ry[0]
    lap = px[2] * ry[0] + px[0] * ry[2]
    lap_x = px[3] * ry[0] + px[1] * ry[2]
    bilap = px[4] * ry[0] + 2 * px[2] * ry[2] + px[0] * ry[4]
    lap_q_lap = q2 * lap + 2 * q1 * lap_x + q0 * bilap
    lap_q = q2 * u + 2 * q1 * ux + q0 * lap
    if kind is H:
        return lap_q_lap, -(lap_q + q0 * lap + lap), (1 + q0) * u
    return lap_q_lap + lap, -(lap_q + q0 * lap + u), q0 * u


@pytest.mark.parametrize("q", [[1.3], [1.3, 0.4, 0.2]], ids=["constant", "polynomial"])
@pytest.mark.parametrize("bc", [(0, 1), (0, 2), (1, 3), (2, 3)], ids=lambda bc: "bc%d%d" % bc)
@pytest.mark.parametrize("kind", [H, S], ids=lambda k: k.value)
def test_2d_manufactured_weak_form(kind, bc, q):
    # product polynomials u, w that satisfy the bc: the assembled w^H T(lam) u
    # must equal the quadrature of w (T u) in strong form, which is exact for
    # these degrees on 28 x 24 points (distinct sizes catch swapped axes)
    x0, x1, y0, y1 = 0.0, 1.0, -0.5, 0.7
    gx, gy = make_grid(x0, x1, 28), make_grid(y0, y1, 24)
    q = np.array(q)
    if q.size == 1:
        profile = MediumProfile.constant(kind, q[0])
    else:
        profile = MediumProfile.polynomial(kind, q)
    pencil = assemble_pencil_2d(profile, gx, gy, bc)
    u_x = _bc_poly(bc, x0, x1, np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.7]))
    u_y = _bc_poly(bc, y0, y1, np.array([-0.1, 0.4, 0.2, -0.3, 0.1, 0.5, 0.3]))
    w_x = _bc_poly(bc, x0, x1, np.array([0.2, 0.1, -0.3, 0.6, 0.2, -0.5, 0.4]))
    w_y = _bc_poly(bc, y0, y1, np.array([0.5, -0.2, 0.1, 0.3, -0.6, 0.2, -0.3]))
    x, y = gx.nodes, gy.nodes
    u_grid = np.outer(P.polyval(x, u_x), P.polyval(y, u_y)).ravel()
    w_grid = np.outer(P.polyval(x, w_x), P.polyval(y, w_y)).ravel()
    u, w = pencil.project(u_grid), pencil.project(w_grid)
    assert np.allclose(pencil.prolong(u), u_grid, rtol=0.0, atol=1e-12)
    strong = _strong_blocks(kind, q, u_x, u_y, x, y)
    lam = 0.8 - 1.7j
    t_u = (strong[0] + lam * strong[1] + lam**2 * strong[2]).ravel()
    exact = np.sum(pencil.weights * w_grid * t_u)
    assert np.vdot(w, pencil.T(lam) @ u) == pytest.approx(exact, rel=1e-8)


def test_2d_samples_respect_the_positive_rule():
    # a negative sample is rejected in 2D as in 1D; a large positive one assembles
    gx, gy = make_grid(0.0, 1.0, 10), make_grid(0.0, 2.0, 12)
    samples = np.full((10, 12), 1.5)
    samples[3, 4] = -0.5
    with pytest.raises(ConfigError, match="positive everywhere"):
        assemble_pencil_2d(MediumProfile(H, "samples", samples), gx, gy, (0, 1))
    with pytest.raises(ConfigError, match="positive everywhere"):
        assemble_pencil(MediumProfile(H, "samples", samples[:, 4]), gx, (0, 1))
    samples[3, 4] = 2.5
    assert assemble_pencil_2d(MediumProfile(H, "samples", samples), gx, gy, (0, 1)).dim == 6 * 8
    assert assemble_pencil(MediumProfile(H, "samples", samples[:, 4]), gx, (0, 1)).dim == 6


@pytest.mark.parametrize("q_type,data,match", [
    ("constant", [1.0], "constant q takes a single number"),
    ("polynomial", 1.0, "polynomial q takes an array of numbers"),
    ("samples", 1.0, "samples q takes an array of numbers"),
    ("tabulated", [1.0, 1.1], "unknown q type: 'tabulated'"),
])
def test_profile_checks_q_format_at_construction(q_type, data, match):
    # the format is the profile's to check, before any grid is built
    with pytest.raises(ConfigError, match=match):
        MediumProfile(H, q_type, data)


def test_2d_samples_match_polynomial_q():
    # samples of a quadratic q(x) stand for q itself: on their own 12 x 10
    # grid, on the refined grids of the two-grid solve (+4 per axis in 2D,
    # n + 8 in 1D) their interpolated values and edge slopes are exact up to
    # roundoff, so the pencil equals the polynomial-q one
    gx, gy = make_grid(0.0, 1.0, 12), make_grid(-0.5, 0.7, 10)
    coeffs = [1.3, 0.4, 0.2]
    q_x = P.polyval(gx.nodes, coeffs)
    samples = np.repeat(q_x[:, None], gy.n_pts, axis=1)
    cases = [
        (samples, (gx, gy)),
        (samples, (make_grid(0.0, 1.0, 16), make_grid(-0.5, 0.7, 14))),
        (q_x, (make_grid(0.0, 1.0, 20),)),
    ]
    for kind in (H, S):
        for data, grids in cases:
            assemble = assemble_pencil_2d if len(grids) == 2 else assemble_pencil
            exact = assemble(MediumProfile.polynomial(kind, coeffs), *grids, (2, 3))
            sampled = assemble(MediumProfile.sampled(kind, data), *grids, (2, 3))
            for A, B in ((exact.A0, sampled.A0), (exact.A1, sampled.A1), (exact.A2, sampled.A2)):
                assert np.max(np.abs(A - B)) <= 1e-12 * np.max(np.abs(A))


def _refuse_assembly(*args):
    raise AssertionError("axis blocks formed before the samples were checked")


def test_samples_need_one_axis_per_grid(monkeypatch):
    monkeypatch.setattr(discretize, "_axis_blocks", _refuse_assembly)
    g = make_grid(0.0, 1.0, 12)
    with pytest.raises(ConfigError, match="q samples have 1 axis, the grid 2"):
        assemble_pencil_2d(MediumProfile.sampled(H, np.full(12, 1.5)), g, g, (0, 1))
    with pytest.raises(ConfigError, match="q samples have 2 axes, the grid 1"):
        assemble_pencil(MediumProfile.sampled(H, np.full((12, 12), 1.5)), g, (0, 1))


def test_samples_need_two_values_per_axis(monkeypatch):
    monkeypatch.setattr(discretize, "_axis_blocks", _refuse_assembly)
    g = make_grid(0.0, 1.0, 12)
    with pytest.raises(ConfigError, match="need at least 2"):
        assemble_pencil(MediumProfile.sampled(H, [1.5]), g, (0, 1))
    with pytest.raises(ConfigError, match="need at least 2"):
        assemble_pencil_2d(MediumProfile.sampled(H, np.full((12, 1), 1.5)), g, g, (0, 1))


def test_from_matrices_and_norms():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 5))
    pencil = DiscretePencil.from_matrices(A, np.eye(5), np.eye(5))
    u = rng.standard_normal(5)
    assert np.array_equal(pencil.mass, np.eye(5))
    assert pencil.vector_norm(u) == pytest.approx(np.linalg.norm(u), rel=1e-12)


def test_pencil_blocks_must_be_square():
    with pytest.raises(ConfigError, match="square"):
        DiscretePencil.from_matrices(np.ones((2, 3)), np.eye(2), np.eye(2))


def test_a_mass_that_is_not_positive_definite_is_rejected():
    pencil = DiscretePencil(A0=np.eye(2), A1=np.eye(2), A2=np.eye(2), mass=np.diag([1.0, -1.0]))
    with pytest.raises(SingularPencilError, match="not positive definite"):
        pencil.companion_norm(np.eye(4))


def test_weighted_norm_matches_quadrature():
    grid = make_grid(0.0, 1.0, 24)
    pencil = assemble_pencil(MediumProfile.constant(H, 1.0), grid, (0, 1))
    rng = np.random.default_rng(4)
    u = rng.standard_normal(pencil.dim) + 1j * rng.standard_normal(pencil.dim)
    up = pencil.prolong(u)
    direct = np.sqrt(np.sum(grid.weights * np.abs(up) ** 2))
    assert pencil.vector_norm(u) == pytest.approx(direct, rel=1e-10)


def test_project_prolong_roundtrip():
    grid = make_grid(0.0, 1.0, 24)
    pencil = assemble_pencil(MediumProfile.constant(H, 1.0), grid, (0, 1))
    rng = np.random.default_rng(5)
    u = rng.standard_normal(pencil.dim) + 1j * rng.standard_normal(pencil.dim)
    back = pencil.project(pencil.prolong(u))
    assert np.allclose(back, u, rtol=1e-9, atol=1e-12)


def _pencil_arrays(p):
    return [p.A0, p.A1, p.A2, p.mass, p.basis]


def test_assembling_twice_gives_the_same_bits():
    # the second assembly takes the axis blocks the first one computed
    discretize._axis_blocks.cache_clear()
    for bc in ((0, 1), (2, 3)):
        grid = make_grid(0.0, 1.0, 48)
        first = assemble_pencil(MediumProfile.polynomial(S, [1.0, 0.5, -0.3]), grid, bc)
        second = assemble_pencil(MediumProfile.polynomial(S, [1.0, 0.5, -0.3]), grid, bc)
        for a, b in zip(_pencil_arrays(first), _pencil_arrays(second)):
            assert a.tobytes() == b.tobytes()


def test_pencil_basis_is_read_only():
    pencil = assemble_pencil(MediumProfile.constant(H, 1.0), make_grid(0.0, 1.0, 24), (0, 1))
    with pytest.raises(ValueError):
        pencil.basis[0, 0] = 1.0


def test_axis_blocks_are_kept_per_interval_and_boundary_pair():
    # the same n_pts on another interval, or with another bc, must not take
    # the blocks computed first: each pencil equals its own cold assembly
    cases = [((0.0, 1.0), (0, 2)), ((0.0, 2.0), (0, 2)), ((0.0, 1.0), (1, 3))]

    def assembled(interval, bc):
        return assemble_pencil(MediumProfile.constant(H, 1.3), make_grid(*interval, 32), bc)

    cold = []
    for case in cases:
        discretize._axis_blocks.cache_clear()
        cold.append(_pencil_arrays(assembled(*case)))
    discretize._axis_blocks.cache_clear()
    warm = [_pencil_arrays(assembled(*case)) for case in cases]
    assert not np.array_equal(cold[0][0], cold[1][0])
    assert not np.array_equal(cold[0][0], cold[2][0])
    for c, w in zip(cold, warm):
        for a, b in zip(c, w):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("change", ["A0", "mass"])
def test_replaced_pencil_derives_from_its_own_matrices(change):
    # a copy made by dataclasses.replace after the parent's derived data are
    # warm must compute its own: scaled samples, norm scale, companion norm
    p = assemble_pencil(MediumProfile.constant(H, 1.0), make_grid(0.0, 1.0, 24), (0, 1))
    G = np.random.default_rng(6).standard_normal((2 * p.dim, 2 * p.dim))

    def derived(q):
        return q._scaled_T(1.0), q.coefficient_scale(0), q.companion_norm(G)

    derived(p)
    scale = {"A0": 2.0, "mass": 4.0}[change]
    copy = dataclasses.replace(p, **{change: scale * getattr(p, change)})
    fresh = DiscretePencil(A0=copy.A0, A1=p.A1, A2=p.A2, mass=copy.mass)
    for got, want in zip(derived(copy), derived(fresh)):
        assert np.array_equal(got, want)
    assert not np.array_equal(derived(copy)[0], derived(p)[0])


def test_grids_hold_one_axis_per_dimension():
    gx, gy = make_grid(0.0, 1.0, 10), make_grid(0.0, 2.0, 12)
    profile = MediumProfile.constant(H, 1.0)
    assert assemble_pencil(profile, gx, (0, 1)).grids == (gx,)
    assert assemble_pencil_2d(profile, gx, gy, (0, 1)).grids == (gx, gy)
    assert DiscretePencil.from_matrices([[1.0]], [[0.0]], [[1.0]]).grids == ()
