"""Resolvent norms, ray decay, product bounds, Laurent data, circle averages."""

import tracemalloc

import numpy as np
import pytest

from itpencil import MediumProfile, PencilKind, resolvent, solve_spectrum
from itpencil._blas import lapack, single_blas_thread
from itpencil.discretize import DiscretePencil, assemble_pencil, make_grid
from itpencil.exceptions import (
    BoundViolationError,
    ClusterAmbiguityError,
    ConfigError,
    MaskedSampleError,
    PoleOnRayError,
    QuadratureConvergenceError,
    SingularAtLambdaError,
)
from itpencil.resolvent import (
    WeierstrassProduct,
    _resolvent_norms,
    _unit_ring,
    carleman_check,
    circle_growth_scan,
    companion_block_inverse_check,
    laurent_coefficients,
    log_phi,
    phi_eval,
    pole_avoiding_radii,
    ray_scan,
    resolvent_identity_check,
    resolvent_norm,
    t_infinity_estimate,
)
from itpencil.spectra import _checked_inverse, _sigma_range, linearize


def _scalar(a0, a1, a2):
    return DiscretePencil.from_matrices(
        np.array([[a0]], dtype=complex),
        np.array([[a1]], dtype=complex),
        np.array([[a2]], dtype=complex),
    )


@pytest.fixture(scope="module")
def h48_pencil():
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.0)
    return assemble_pencil(profile, make_grid(0.0, 1.0, 48), (0, 1))


def test_resolvent_norm_scalar_value():
    pen = _scalar(0.0, 1.0, 1.0)
    assert resolvent_norm(pen, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_resolvent_norm_blows_up_near_pole():
    pen = _scalar(0.0, 1.0, 1.0)
    seq = [resolvent_norm(pen, -1.0 + 10.0 ** (-k)) for k in (2, 3, 4)]
    assert seq[0] < seq[1] < seq[2]
    assert seq[2] > 1e3


def test_cached_scaled_coefficients_match_explicit_scaling():
    # resolvent_norm samples B0 + lam B1 + lam^2 B2 with B_k = S^-1 A_k S^-1
    # cached per pencil; the explicit S^-1 T(lam) S^-1 differs by rounding,
    # which moves sigma_min by at most about eps ||X|| = eps cond(X) sigma_min
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.3)
    sol = solve_spectrum(profile, 0.0, 1.0, 64, (0, 1))
    pen = sol.pencil
    Sinv = pen._scaling[1]
    radii = np.geomspace(10.0, 1000.0, 40)
    lams = [r * np.exp(1j * np.pi * f) for f in (0.0, 0.25, 0.5, 0.75) for r in radii]
    ring = np.exp(2j * np.pi * np.arange(64) / 64)
    circles = pole_avoiding_radii(sol.trusted_eigenvalues, 8.0, 1024.0)
    lams += [r * w for r in circles for w in ring]
    eps = np.finfo(float).eps
    for lam in lams:
        sv = np.linalg.svd(Sinv @ pen.T(lam) @ Sinv, compute_uv=False)
        rel = abs(resolvent_norm(pen, lam) * sv[-1] - 1.0)
        assert rel <= eps * sv[0] / sv[-1], lam


@pytest.mark.parametrize("bc", [(0, 1), (2, 3)])
@pytest.mark.parametrize("kind", [PencilKind.HELMHOLTZ, PencilKind.SCHRODINGER])
def test_scaled_norm_bound_never_underestimates(kind, bc):
    # the certificate's ||C||_F is the cached sum_k |lam|^k ||B_k||_F; on a
    # ray and on a circle it must stay above the norm of the formed sample
    profile = MediumProfile.polynomial(kind, [1.0, 0.2, 0.3])
    pen = assemble_pencil(profile, make_grid(0.0, 1.0, 48), bc)
    ray = np.geomspace(0.1, 1e6, 29) * np.exp(0.3j * np.pi)
    circles = [r * _unit_ring(64) for r in (37.0, 1e6)]
    for lam in np.concatenate([ray, *circles]):
        assert pen._scaled_norm_bound(lam) >= np.linalg.norm(pen._scaled_T(lam)), lam


def test_resolvent_norm_rejects_nan_point():
    # the SVD of a NaN sample does not converge; that is a failed check too
    with pytest.raises(SingularAtLambdaError):
        resolvent_norm(_scalar(0.0, 1.0, 1.0), complex("nan"))


def test_resolvent_norm_rejects_singular_point():
    pen = _scalar(0.0, 1.0, 1.0)
    with pytest.raises(SingularAtLambdaError):
        resolvent_norm(pen, -1.0)


def test_imaginary_axis_quadratic_decay_band(h48_pencil):
    # r^2 * ||T(ir)^{-1}|| stays within a fixed band over two decades
    for r in np.geomspace(10.0, 1000.0, 7):
        scaled = r * r * resolvent_norm(h48_pencil, 1j * r)
        assert 0.05 <= scaled <= 5.0


def test_ray_scan_scalar_slope():
    pen = _scalar(0.0, 1.0, 1.0)
    scan = ray_scan(pen, 1.0, np.geomspace(10.0, 1000.0, 13))
    assert abs(scan.fitted_slope + 2.0) <= 0.05
    assert np.all(np.isfinite(scan.norms))


def test_ray_scan_fits_every_radius_when_the_top_decade_holds_one():
    pen = _scalar(1.0, 1.0, 1.0)
    radii = np.array([1.0, 5.0, 100.0])
    scan = ray_scan(pen, 1.0, radii)
    slope = np.polyfit(np.log(radii), np.log(scan.norms), 1)[0]
    assert scan.fitted_slope == pytest.approx(slope, rel=1e-12)


def test_ray_scan_pencil_slopes(h48_pencil):
    for direction in (1j, np.exp(1j * np.pi / 4)):
        scan = ray_scan(h48_pencil, direction, np.geomspace(10.0, 1000.0, 13))
        assert abs(scan.fitted_slope + 2.0) <= 0.15


def test_ray_scan_rejects_negative_axis():
    pen = _scalar(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ray_scan(pen, -1.0, np.geomspace(10.0, 1000.0, 5))


def test_ray_scan_pole_on_ray():
    pen = _scalar(-50.0, -49.0, 1.0)  # roots 50 and -1
    with pytest.raises(PoleOnRayError):
        ray_scan(pen, 1.0, np.array([10.0, 50.0, 100.0]))


def test_block_inverse_random_pencil():
    rng = np.random.default_rng(9)
    N = 4
    A0 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A1 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A2 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) + 3.0 * np.eye(N)
    pen = DiscretePencil.from_matrices(A0, A1, A2)
    assert companion_block_inverse_check(pen, 0.3 + 0.7j) <= 1e-10


def test_block_inverse_scalar_matches_direct_inverse():
    pen = _scalar(2.0, -3.0, 1.0)
    lam = 0.4 + 0.3j
    assert companion_block_inverse_check(pen, lam) <= 1e-12
    G = linearize(pen).matrix
    direct = np.linalg.inv(G - lam * np.eye(2))
    T = 2.0 - 3.0 * lam + lam * lam
    block = np.array([[-(-3.0 + lam) / T, -1.0 / T], [1.0 - lam * (-3.0 + lam) / T, -lam / T]])
    assert np.allclose(block, direct, rtol=1e-12)


def test_block_inverse_norm_inequality_sweep():
    rng = np.random.default_rng(31)
    N = 5
    A0 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A1 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A2 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) + 3.0 * np.eye(N)
    pen = DiscretePencil.from_matrices(A0, A1, A2)
    checked = 0
    while checked < 20:
        lam = 3.0 * (rng.standard_normal() + 1j * rng.standard_normal())
        try:
            err = companion_block_inverse_check(pen, lam)  # raises on violation
        except SingularAtLambdaError:
            continue
        assert err <= 1e-9
        checked += 1


def test_resolvent_identity_at_same_point():
    comp = linearize(_scalar(0.0, 1.0, 1.0))
    assert resolvent_identity_check(comp, 0.5, 0.5) == 0.0


def test_resolvent_identity_random():
    rng = np.random.default_rng(9)
    N = 6
    A0 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A1 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A2 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) + 3.0 * np.eye(N)
    comp = linearize(DiscretePencil.from_matrices(A0, A1, A2))
    assert resolvent_identity_check(comp, 0.9 + 0.2j, -0.4 + 1.1j) <= 1e-9


def test_resolvent_identity_scalar_geometric():
    comp = linearize(_scalar(2.0, -3.0, 1.0))
    assert resolvent_identity_check(comp, 0.3 + 0.1j, -0.2) <= 1e-12


def test_phi_at_reference_and_zeros():
    wp = WeierstrassProduct(lambda_prime=0.0, zeros=np.array([2.0, -2.0]), p=1.0)
    assert phi_eval(wp, 0.0) == 1.0 + 0j
    assert phi_eval(wp, 2.0) == 0j
    assert wp.k == 1


def test_product_over_no_zeros_is_one():
    # the empty product runs the general sums: no special case for no zeros
    wp = WeierstrassProduct(lambda_prime=0.5, zeros=[], p=1.5)
    assert wp.zero_sum() == 0.0
    assert log_phi(wp, 3.0 - 2.0j) == 0j
    phi = phi_eval(wp, 3.0 - 2.0j)
    assert (phi.real, phi.imag) == (1.0, 0.0) and not np.signbit(phi.imag)


def test_results_do_not_alias_the_callers_arrays():
    # a profile, scan or product keeps a read-only copy: writing into the caller's
    # array afterwards changes neither it nor the next assembly
    coeffs, samples = np.array([1.0, 0.3]), np.array([1.0, 1.2, 1.1])
    radii, zeros = np.array([2.0, 4.0, 8.0]), np.array([2.0, -2.0 + 1.0j])
    profiles = [MediumProfile.polynomial(PencilKind.HELMHOLTZ, coeffs),
                MediumProfile.sampled(PencilKind.HELMHOLTZ, samples)]
    grid = make_grid(0.0, 1.0, 16)
    A0s = [assemble_pencil(prof, grid, (0, 1)).A0 for prof in profiles]
    pen = _scalar(1.0, 0.0, 1.0)
    kept = {
        "polynomial q": (profiles[0].q_data, coeffs),
        "sampled q": (profiles[1].q_data, samples),
        "ray radii": (ray_scan(pen, 1.0, radii).radii, radii),
        "circle radii": (circle_growth_scan(pen, radii, 1.0).radii, radii),
        "zeros": (WeierstrassProduct(lambda_prime=0.0, zeros=zeros, p=1.0).zeros, zeros),
    }
    before = {name: held.copy() for name, (held, _given) in kept.items()}
    coeffs[1], samples[1], radii[0], zeros[0] = 5.0, 0.2, 1.0, 3.0
    for name, (held, given) in kept.items():
        assert not np.shares_memory(held, given), name
        assert not held.flags.writeable, name
        np.testing.assert_array_equal(held, before[name], err_msg=name)
    for prof, A0 in zip(profiles, A0s):
        np.testing.assert_array_equal(assemble_pencil(prof, grid, (0, 1)).A0, A0)


def test_weierstrass_genus_validation():
    wp = WeierstrassProduct(lambda_prime=0.0, zeros=np.array([1.0]), p=1.5)
    assert wp.k == 2
    with pytest.raises(ValueError):
        WeierstrassProduct(lambda_prime=2.0, zeros=np.array([2.0]), p=1.0)


@pytest.mark.parametrize("p,k", [(1.5, 2), (2.5, 3)])
def test_phi_higher_genus_matches_direct_product(p, k):
    lamp = 0.5 - 0.25j
    zeros = np.array([-1.0 + 0.5j, -1.0 - 0.5j, -3.0, 2.0 + 4.0j, -7.5 + 1.0j])
    wp = WeierstrassProduct(lambda_prime=lamp, zeros=zeros, p=p)
    assert wp.k == k
    for lam in (1.3 + 0.7j, -0.4 - 1.1j, 2.2 - 0.3j, -2.0 + 2.0j):
        z = (lam - lamp) / (zeros - lamp)
        direct = np.prod((1 - z) * np.exp(sum(z**m / m for m in range(1, k))))
        assert abs(phi_eval(wp, lam) - direct) <= 1e-12 * abs(direct)


def test_phi_truncation_tail_bound():
    # far-away zeros move log phi by at most twice their inverse-distance sum
    lamp = 1.0
    trusted = np.array([-1.0, -2.0, -4.0])
    tail = np.array([-100.0, -150.0, -300.0])
    wp1 = WeierstrassProduct(lambda_prime=lamp, zeros=trusted, p=1.0)
    wp2 = WeierstrassProduct(lambda_prime=lamp, zeros=np.concatenate([trusted, tail]), p=1.0)
    wpt = WeierstrassProduct(lambda_prime=lamp, zeros=tail, p=1.0)
    for lam in lamp + 3.0 * np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False)):
        diff = abs(log_phi(wp2, lam).real - log_phi(wp1, lam).real)
        assert diff <= 2.0 * abs(lam - lamp) * wpt.zero_sum()


def test_carleman_diagonal_closed_form():
    # matrix diag(2,-2), lambda'=0, circle |lam|=1: the product cancels each
    # pole, leaving max(|2-lam|, |2+lam|)/2 with maximum 3/2 at lam = -+1
    wp = WeierstrassProduct(lambda_prime=0.0, zeros=np.array([2.0, -2.0]), p=1.0)
    M = np.diag([2.0 + 0j, -2.0 + 0j])
    rep = carleman_check(M, wp, 1.0, n_samples=64)
    assert rep["max_lhs"] == pytest.approx(1.5, rel=1e-12)
    assert rep["max_probe_lhs"] is None
    assert rep["max_probe_cond"] is None


def test_carleman_at_reference_only():
    wp = WeierstrassProduct(lambda_prime=0.0, zeros=np.array([2.0, -2.0]), p=1.0)
    rep = carleman_check(np.diag([2.0 + 0j, -2.0 + 0j]), wp, 0.0)
    assert rep["max_lhs"] == pytest.approx(1.0, rel=1e-12)


def test_carleman_skips_a_sample_on_a_zero():
    # the first of 3 samples on |lam| = 2 is the zero 2 itself, where (Id - K) is
    # singular; the other two give max(|1 + lam/2|, |1 - lam/2|) = sqrt(3)
    wp = WeierstrassProduct(lambda_prime=0.0, zeros=np.array([2.0, -2.0]), p=1.0)
    rep = carleman_check(np.diag([2.0 + 0j, -2.0 + 0j]), wp, 2.0, n_samples=3)
    assert rep["circle_median"] == pytest.approx(np.sqrt(3.0), rel=1e-12)


def test_carleman_bounded_through_eigenvalue():
    # sampling next to an eigenvalue stays bounded: phi removes the pole
    wp = WeierstrassProduct(lambda_prime=0.0, zeros=np.array([2.0, -2.0]), p=1.0)
    rep = carleman_check(np.diag([2.0 + 0j, -2.0 + 0j]), wp, 2.5, n_samples=64)
    assert rep["n_probes"] > 0
    assert np.isfinite(rep["max_probe_lhs"])
    assert rep["max_probe_lhs"] <= 10.0 * rep["circle_median"]
    # each sample is diag(1 - lam/2, 1 + lam/2): the worst probe, 2 + 1e-3,
    # has condition 2.0005 / 5e-4
    assert rep["max_probe_cond"] == pytest.approx(4001.0, rel=1e-9)


def test_pole_avoiding_radii_properties():
    ev = np.array([-1.0, -10.0, -100.0])
    radii = pole_avoiding_radii(ev, 1.0, 1000.0)
    assert radii.size >= 4
    assert np.all(np.diff(radii) > 0)
    assert radii.min() >= 1.0 and radii.max() <= 1000.0
    dists = np.min(np.abs(np.abs(ev)[:, None] - radii[None, :]), axis=0)
    assert np.all(dists / radii >= 0.001)


def test_pole_avoiding_radii_without_poles_takes_band_starts():
    # every candidate is infinitely far from no pole, so argmax takes the first
    assert pole_avoiding_radii([], 1.0, 8.0).tolist() == [1.0, 2.0, 4.0]


def test_circle_growth_without_eigenvalues_reports_infinite_pole_distances():
    pen = _scalar(0.0, 1.0, 1.0)
    for eigenvalues in (None, []):
        rep = circle_growth_scan(pen, [2.0, 20.0, 200.0], p=1.0, eigenvalues=eigenvalues)
        assert rep.min_pole_distances.tolist() == [np.inf] * 3


def test_circle_growth_scalar_decays():
    pen = _scalar(0.0, 1.0, 1.0)
    ev = np.array([0.0, -1.0])
    radii = pole_avoiding_radii(ev, 2.0, 200.0)
    rep = circle_growth_scan(pen, radii, p=1.0, eigenvalues=ev)
    assert rep.fitted_exponent <= 1.1
    assert np.all(rep.min_pole_distances > 0)
    # inverse decays, so the max log norm is negative on every circle
    assert np.all(rep.max_log_norms < 0)


def test_laurent_scalar_geometric_series():
    pen = _scalar(0.0, 1.0, 1.0)
    ld = laurent_coefficients(pen, 0.0, 0.5, n_coeffs=3)
    assert ld.order == 1
    assert ld.coefficients[-1].ravel()[0] == pytest.approx(1.0, abs=1e-12)
    assert ld.coefficients[0].ravel()[0] == pytest.approx(-1.0, abs=1e-12)
    assert ld.coefficients[1].ravel()[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(ld.relation_residuals) <= 1e-12
    assert ld.quadrature_error <= 1e-10


def test_laurent_second_order_pole():
    pen = _scalar(0.0, 0.0, 1.0)  # T = lam^2
    ld = laurent_coefficients(pen, 0.0, 0.5, n_coeffs=3)
    assert ld.order == 2
    assert ld.coefficients[-2].ravel()[0] == pytest.approx(1.0, abs=1e-12)


def test_laurent_order_overflow_rejected():
    pen = _scalar(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        laurent_coefficients(pen, 0.0, 0.5, n_coeffs=1)


def test_laurent_two_clusters_rejected():
    pen = _scalar(0.0, 1.0, 1.0)
    with pytest.raises(ClusterAmbiguityError):
        laurent_coefficients(pen, 0.0, 2.0, eigenvalues=np.array([0.0, -1.0]))


# each entry point at a point where the matrix it factors is singular
_SINGULAR_CASES = {
    "resolvent_norm": lambda: resolvent_norm(_scalar(0.0, 1.0, 1.0), -1.0),
    "companion_block_inverse_check": lambda: companion_block_inverse_check(
        _scalar(0.0, 1.0, 1.0), -1.0
    ),
    "resolvent_identity_check": lambda: resolvent_identity_check(
        np.diag([2.0 + 0j, -2.0 + 0j]), 2.0, 0.5
    ),
    "carleman_check": lambda: carleman_check(
        np.diag([2.0 + 0j, -2.0 + 0j]),
        WeierstrassProduct(lambda_prime=2.0, zeros=np.array([-2.0]), p=1.0),
        1.0,
    ),
    # the circle |lam| = 2 has its first node at lam = 2, a pole that the
    # product (zero at -2 only) does not cancel; then the pole 1e-15 off it
    "carleman_check_circle_on_pole": lambda: carleman_check(
        np.diag([2.0 + 0j, -2.0 + 0j]),
        WeierstrassProduct(lambda_prime=0.0, zeros=np.array([-2.0]), p=1.0),
        2.0,
    ),
    "carleman_check_circle_near_pole": lambda: carleman_check(
        np.diag([2.0 + 1e-15j, -2.0 + 0j]),
        WeierstrassProduct(lambda_prime=0.0, zeros=np.array([-2.0]), p=1.0),
        2.0,
    ),
    # T(lam) = diag(lam, 1); the contour |lam - 1| = 1 has a node at lam = 0
    "laurent_coefficients": lambda: laurent_coefficients(
        DiscretePencil.from_matrices(
            np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), np.zeros((2, 2))
        ),
        1.0, 1.0, n_quad=16,
    ),
    # T(lam) = lam (1 + lam); the circle |lam| = 1 runs through the listed pole -1
    "laurent_coefficients_contour_on_pole": lambda: laurent_coefficients(
        _scalar(0.0, 1.0, 1.0), 0.0, 1.0, eigenvalues=[0.0, -1.0]
    ),
}


@pytest.mark.parametrize("entry", list(_SINGULAR_CASES))
def test_singular_sample_raises(entry):
    with pytest.raises(SingularAtLambdaError):
        _SINGULAR_CASES[entry]()


# each entry point given a NaN or infinite argument, which would otherwise turn
# a gate off, return nothing, or surface as a pole at nan
_NON_FINITE_CASES = {
    "circle_growth_scan-p-nan": lambda: circle_growth_scan(
        _scalar(0.0, 1.0, 1.0), [2.0, 4.0], np.nan
    ),
    "circle_growth_scan-radius-nan": lambda: circle_growth_scan(
        _scalar(0.0, 1.0, 1.0), [2.0, np.nan], 1.0
    ),
    "circle_growth_scan-radius-inf": lambda: circle_growth_scan(
        _scalar(0.0, 1.0, 1.0), [2.0, np.inf], 1.0
    ),
    "pole_avoiding_radii-r_max-nan": lambda: pole_avoiding_radii([], 1.0, np.nan),
    "pole_avoiding_radii-r_max-inf": lambda: pole_avoiding_radii([], 1.0, np.inf),
    "laurent_coefficients-radius-nan": lambda: laurent_coefficients(
        _scalar(0.0, 1.0, 1.0), 0.0, np.nan
    ),
    "laurent_coefficients-radius-inf": lambda: laurent_coefficients(
        _scalar(0.0, 1.0, 1.0), 0.0, np.inf
    ),
    "carleman_check-radius-nan": lambda: carleman_check(
        np.diag([2.0 + 0j, -2.0 + 0j]),
        WeierstrassProduct(lambda_prime=0.0, zeros=np.array([2.0, -2.0]), p=1.0),
        np.nan,
    ),
    "t_infinity_estimate-radius-nan": lambda: t_infinity_estimate(
        _scalar(0.0, 1.0, 1.0), np.nan
    ),
    "t_infinity_estimate-radius-inf": lambda: t_infinity_estimate(
        _scalar(0.0, 1.0, 1.0), np.inf
    ),
    "ray_scan-radius-nan": lambda: ray_scan(_scalar(0.0, 1.0, 1.0), 1j, [1.0, np.nan]),
    "WeierstrassProduct-p-nan": lambda: WeierstrassProduct(
        lambda_prime=0.0, zeros=np.array([2.0]), p=np.nan
    ),
    "WeierstrassProduct-p-inf": lambda: WeierstrassProduct(
        lambda_prime=0.0, zeros=np.array([2.0]), p=np.inf
    ),
}


@pytest.mark.parametrize("case", list(_NON_FINITE_CASES))
def test_non_finite_arguments_raise_config_error(case, svd_calls, getrf_calls):
    with pytest.raises(ConfigError):
        _NON_FINITE_CASES[case]()
    assert not svd_calls and not getrf_calls


# each entry point given a finite argument out of its range, with the typed
# error it raises before any sample is factored
_OUT_OF_RANGE_CASES = {
    "ray_scan-direction-zero": (
        ConfigError, lambda: ray_scan(_scalar(0.0, 1.0, 1.0), 0, [1.0, 2.0])
    ),
    "laurent_coefficients-n_coeffs-zero": (
        ConfigError, lambda: laurent_coefficients(_scalar(0.0, 1.0, 1.0), 0.0, 0.5, n_coeffs=0)
    ),
    "laurent_coefficients-n_quad-8": (
        ConfigError, lambda: laurent_coefficients(_scalar(0.0, 1.0, 1.0), 0.0, 0.5, n_quad=8)
    ),
    # 2000 pole moduli spaced 3.5e-4 apart in ratio over the band [1, 2] leave
    # each of its 128 candidates within 1e-3 of its radius of one
    "pole_avoiding_radii-no-admissible-radius": (
        PoleOnRayError, lambda: pole_avoiding_radii(np.geomspace(1.0, 2.0, 2000), 1.0, 2.0)
    ),
}


@pytest.mark.parametrize("case", list(_OUT_OF_RANGE_CASES))
def test_out_of_range_arguments_raise_typed_errors(case, svd_calls, getrf_calls):
    error, call = _OUT_OF_RANGE_CASES[case]
    with pytest.raises(error):
        call()
    assert not svd_calls and not getrf_calls


# each entry point whose samples are all factored but fail the property it
# checks, with the typed error and the message that names the failure
_FAILED_CHECK_CASES = {
    # ||T^-1|| = 1 / |1 - 1e-4 r^2| grows past exp(C r^{1.1}) from r = 10 to 90
    "circle_growth_scan-exponent": (
        BoundViolationError, r"growth exponent 2\.324",
        lambda: circle_growth_scan(_scalar(1.0, 0.0, 1e-4), [10.0, 90.0], 1.0),
    ),
    # T(lam) = lam^2 - 4 has a pole at lam = 2, the first node of the circle |lam| = 2
    "circle_growth_scan-circle-on-pole": (
        PoleOnRayError, "touches a pole",
        lambda: circle_growth_scan(_scalar(-4.0, 0.0, 1.0), [2.0, 3.0], 1.0),
    ),
    # T(lam) = lam^2 - 1 has its other pole -1 just 0.1 outside the contour
    # |lam - 1| = 1.9, so the 16-node rule and its halved 8-node rule disagree
    "laurent_coefficients-halved-rule": (
        QuadratureConvergenceError, "halved-rule disagreement",
        lambda: laurent_coefficients(_scalar(-1.0, 0.0, 1.0), 1.0, 1.9, n_quad=16),
    ),
}


@pytest.mark.parametrize("case", list(_FAILED_CHECK_CASES))
def test_failed_checks_raise_typed_errors(case):
    error, match, call = _FAILED_CHECK_CASES[case]
    with pytest.raises(error, match=match):
        call()


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts np.linalg.svd calls made after the fixture is set up."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _getri_inverse(X):
    """X^-1 by LAPACK getrf + getri through the binding, the route _checked_inverse takes."""
    return lapack().lu_inverse(X)


def _outcome(f):
    """The exception class f raises, or None."""
    try:
        f()
    except (SingularAtLambdaError, np.linalg.LinAlgError) as exc:
        return type(exc)
    return None


def _guard_matrix(n, case):
    """n x n complex matrix with 2-norm condition `case`, or a singular or
    non-finite one."""
    rng = np.random.default_rng(11)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    cond = case if isinstance(case, float) else 1e3
    C = (U * np.geomspace(1.0, 1.0 / cond, n)) @ V.conj().T
    if case == "singular":
        C[:, 3] = 0.0
    elif case in ("inf", "nan"):
        C[2, 5] = np.inf if case == "inf" else np.nan
    return C


_GUARD_CASES = [1e6, 1e12, 9e13, 1.1e14, 1e16, "singular", "inf", "nan"]


@pytest.fixture(scope="module")
def h64_pencil():
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.0)
    return assemble_pencil(profile, make_grid(0.0, 1.0, 64), (0, 1))


@pytest.mark.parametrize("case", _GUARD_CASES)
def test_checked_inverse_decides_as_sigma_min(case, h64_pencil, svd_calls):
    # the Frobenius certificate only skips the SVD: it raises, with the same
    # class, exactly where _sigma_range on the check matrix raises, and returns
    # the getrf + getri inverse otherwise
    n = h64_pencil.dim
    C = _guard_matrix(n, case)
    S = h64_pencil._scaling[0]
    with np.errstate(invalid="ignore"):  # inf * 0 in the non-finite case
        A0 = S @ C @ S
    weak = DiscretePencil(A0=A0, A1=np.zeros((n, n)), A2=np.zeros((n, n)), mass=h64_pencil.mass)
    for X, pencil, check in ((C, None, C), (weak.T(0.5), weak, weak._scaled_T(0.5))):
        expected = _outcome(lambda: _sigma_range(check, 0.5)[1])
        if pencil is None:
            wanted = None if isinstance(case, float) and case < 1e14 else SingularAtLambdaError
            assert expected is wanted
        del svd_calls[:]
        assert _outcome(lambda: _checked_inverse(X, 0.5, pencil)) is expected
        if case == 1e6:
            assert len(svd_calls) == 0
        if expected is None:
            assert np.array_equal(_checked_inverse(X, 0.5, pencil), _getri_inverse(X))


@single_blas_thread
def _laurent_reference(pen, lam0, radius, n_quad, orders, old_route=False,
                       chunk=resolvent._LAURENT_CHUNK):
    """Contour coefficients by the route "_sigma_range of the mass-scaled
    sample, then the getrf + getri inverse of T(lam)", summed with one weight
    matrix product per chunk of samples (one product when chunk is None), at
    the library's one BLAS thread.  old_route inverts with np.linalg.inv and
    sums with one tensordot per order instead."""
    ring = radius * np.exp(1j * 2 * np.pi * np.arange(n_quad) / n_quad)
    inverse = np.linalg.inv if old_route else _getri_inverse
    invs = []
    for lam in lam0 + ring:
        _sigma_range(pen._scaled_T(lam), lam)
        invs.append(inverse(pen.T(lam)))
    invs = np.array(invs)
    orders = np.arange(min(orders), max(orders) + 1)
    if old_route:
        # integer-array orders: numpy's scalar power takes another route for
        # a Python int exponent of -1
        return {int(nn): np.tensordot(ring ** (-nn), invs, axes=(0, 0)) / n_quad
                for nn in orders}
    W = ring ** -orders[:, None]
    flat = invs.reshape(n_quad, -1)
    step = chunk or n_quad
    sums = sum(W[:, s : s + step] @ flat[s : s + step] for s in range(0, n_quad, step)) / n_quad
    return dict(zip(orders.tolist(), sums.reshape(orders.size, *invs.shape[1:])))


def test_laurent_needs_no_svd_and_keeps_its_coefficients(h1_solution, svd_calls, getrf_calls):
    # criterion 06's poles: every sample is certified by its own inverse from
    # one LU, and the coefficients equal those of the route "SVD check of the
    # mass-scaled sample, then the getrf + getri inverse" bit for bit; the
    # np.linalg.inv + tensordot route they replace agrees to 1e-13
    pen = h1_solution.pencil
    tr = h1_solution.trusted_eigenvalues
    n_quad = 256
    for lam0 in tr[np.lexsort((tr.imag, tr.real, np.abs(tr)))][:3]:
        others = tr[np.abs(tr - lam0) > 1e-6 * (1.0 + abs(lam0))]
        radius = 0.4 * float(np.min(np.abs(others - lam0)))
        del svd_calls[:], getrf_calls[:]
        ld = laurent_coefficients(pen, lam0, radius, n_coeffs=3, n_quad=n_quad, eigenvalues=tr)
        assert len(svd_calls) == 0
        assert len(getrf_calls) == n_quad
        ref = _laurent_reference(pen, lam0, radius, n_quad, list(ld.coefficients))
        old = _laurent_reference(pen, lam0, radius, n_quad, list(ld.coefficients), True)
        one = _laurent_reference(pen, lam0, radius, n_quad, list(ld.coefficients), chunk=None)
        scale = max(np.abs(c).max() for c in ld.coefficients.values())
        for nn, coeff in ld.coefficients.items():
            assert np.array_equal(coeff, ref[nn])
            assert np.abs(coeff - old[nn]).max() <= 1e-13 * scale
            assert np.abs(coeff - one[nn]).max() <= 1e-13 * scale


@pytest.fixture(scope="module")
def h64_solution():
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.0)
    return solve_spectrum(profile, 0.0, 1.0, 64, (0, 1))


def test_laurent_memory_does_not_grow_with_n_quad(h64_solution):
    # the contour sums stream through one chunk of samples, so the traced peak
    # at criterion 06's first pole stays a few MB at any n_quad, where keeping
    # every n = 64 inverse takes about 28 MB at n_quad 256 and 113 MB at 1024
    pen, tr = h64_solution.pencil, h64_solution.trusted_eigenvalues
    lam0 = tr[np.lexsort((tr.imag, tr.real, np.abs(tr)))][0]
    others = tr[np.abs(tr - lam0) > 1e-6 * (1.0 + abs(lam0))]
    radius = 0.4 * float(np.min(np.abs(others - lam0)))
    peaks = []
    for n_quad in (256, 1024):
        tracemalloc.start()
        try:
            laurent_coefficients(pen, lam0, radius, n_coeffs=3, n_quad=n_quad, eigenvalues=tr)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 6.0
    assert abs(peaks[1] - peaks[0]) <= 1.0


def _p_fallback(M, lamp):
    """Whether Carleman's P = (M - lamp)^-1 falls back to the exact SVD check."""
    X = M - lamp * np.eye(M.shape[0])
    return not np.linalg.norm(X) * np.linalg.norm(_getri_inverse(X)) <= 1e12


def test_carleman_takes_one_svd_per_sample(h1_solution, svd_calls):
    # a real companion matrix and a real lambda' make every sample's matrix the
    # conjugate of its mirror image's, so each pair takes one SVD, probes
    # included; P adds one SVD only when its Frobenius bound falls back
    comp = h1_solution.companion
    tr = h1_solution.trusted_eigenvalues
    lamp = h1_solution.lambda_prime
    assert lamp.imag == 0 and not np.iscomplexobj(comp.matrix)
    wp = WeierstrassProduct(lambda_prime=lamp, zeros=tr, p=1.0)
    radius = float(sorted(set(np.round(np.abs(tr - lamp), 6)))[1])
    inside = tr[np.abs(tr - lamp) <= radius]
    probes = [z + d for z in inside for d in (1e-3, -1e-3, 1e-3j, -1e-3j)]
    distinct_probes = len({(z.real, abs(z.imag)) for z in probes})
    assert distinct_probes == len(probes) // 2  # the trusted zeros pair exactly
    fallback = _p_fallback(comp.matrix, lamp)
    del svd_calls[:]
    rep = carleman_check(comp, wp, radius, n_samples=64)
    assert rep["n_probes"] == len(probes)
    assert len(svd_calls) == 64 // 2 + 1 + distinct_probes + int(fallback)
    assert 1.0 < rep["max_probe_cond"] < 1e14


@pytest.mark.parametrize(
    "top, lamp, svds",
    [
        # 9 circle keys; per zero z, z +- 1e-3 apart and z +- 1e-3j one pair
        (2.0, 0.5, 9 + 2 * 3),
        # a complex lambda' or a complex P: no sample matrix is the conjugate
        # of another, so each of the 16 circle and 8 probe samples is an SVD
        (2.0, 0.5 + 0.25j, 16 + 8),
        (2.0 + 0.5j, 0.5, 16 + 8),
    ],
)
def test_carleman_pairs_samples_only_for_a_real_centre_and_p(top, lamp, svds, svd_calls):
    M = np.diag([top, -2.0, 5.0])
    wp = WeierstrassProduct(lambda_prime=lamp, zeros=np.diag(M), p=1.0)
    assert not _p_fallback(M, lamp)
    del svd_calls[:]
    rep = carleman_check(M, wp, 3.0, n_samples=16)
    assert (rep["n_samples"], rep["n_probes"]) == (16, 8)
    assert len(svd_calls) == svds


def test_t_infinity_scalar_pole_term():
    # |T^{-1}| < 1 everywhere on |lam| = 10, so only the pole term remains:
    # ln r for the zero at the origin plus ln(r/1) for the root at -1
    pen = _scalar(0.0, 1.0, 1.0)
    est = t_infinity_estimate(pen, 10.0, eigenvalues=np.array([0.0, -1.0]))
    assert est == pytest.approx(2.0 * np.log(10.0), rel=1e-12)


def test_t_infinity_without_eigenvalues_equals_an_empty_list():
    pen = _scalar(2.0, 1.0, 1.0)
    for r in (0.5, 3.0):
        est = t_infinity_estimate(pen, r, eigenvalues=None)
        assert est == t_infinity_estimate(pen, r, eigenvalues=[])
        assert est == t_infinity_estimate(pen, r)


def test_t_infinity_monotone_in_radius():
    pen = _scalar(0.0, 1.0, 1.0)
    ev = np.array([0.0, -1.0])
    vals = [t_infinity_estimate(pen, r, eigenvalues=ev) for r in (10.0, 30.0, 90.0)]
    assert vals[0] <= vals[1] <= vals[2]


def test_t_infinity_masked_sample_limit():
    pen = _scalar(-50.0, -49.0, 1.0)  # root exactly at radius 50, theta 0
    with pytest.raises(MaskedSampleError):
        t_infinity_estimate(pen, 50.0, n_samples=8)


@pytest.mark.parametrize("n", [8, 63, 64, 256])
def test_unit_ring_upper_half_unchanged_and_lower_half_conjugate(n):
    ring = _unit_ring(n)
    direct = np.exp(1j * (2 * np.pi * np.arange(n) / n))
    upper = np.arange(n // 2 + 1)
    assert np.array_equal(ring[upper], direct[upper])
    lower = np.arange(1, (n + 1) // 2)
    assert np.array_equal(ring[n - lower], ring[lower].conj())
    assert np.max(np.abs(ring - direct)) <= 8 * np.finfo(float).eps  # roundoff of exp


@pytest.fixture(scope="module")
def s64_pencil():
    profile = MediumProfile.polynomial(PencilKind.SCHRODINGER, [1.0, 0.2, 0.3])
    return assemble_pencil(profile, make_grid(0.0, 1.0, 64), (0, 1))


@pytest.mark.parametrize("kind", ["helmholtz", "schrodinger"])
def test_reused_norms_equal_direct_norms(kind, h64_pencil, s64_pencil):
    # the conjugate partner's norm is taken over bit for bit, and the SVD of
    # the conjugate sample would have given the same bits
    pen = h64_pencil if kind == "helmholtz" else s64_pencil
    assert not any(np.iscomplexobj(A) for A in (pen.A0, pen.A1, pen.A2))
    for r in (8.3, 40.0, 300.0):
        lams = r * _unit_ring(64)
        direct = np.array([resolvent_norm(pen, lam) for lam in lams])
        assert np.array_equal(_resolvent_norms(pen, lams), direct)


def test_circle_scans_take_one_svd_per_conjugate_pair(h64_pencil, svd_calls):
    n = 64
    radii = np.array([10.3, 37.0, 150.0])
    del svd_calls[:]
    circle_growth_scan(h64_pencil, radii, 1.0, n_theta=n)
    assert len(svd_calls) == radii.size * (n // 2 + 1)
    del svd_calls[:]
    t_infinity_estimate(h64_pencil, 10.3, n_samples=n)
    assert len(svd_calls) == n // 2 + 1


def test_complex_pencil_takes_one_svd_per_sample(h64_pencil, svd_calls):
    # a complex A1 breaks T(conj lam) = conj T(lam); each sample is its own SVD
    pen = h64_pencil
    damped = DiscretePencil(A0=pen.A0, A1=pen.A1 + 0.5j * pen.mass, A2=pen.A2, mass=pen.mass)
    lams = 10.3 * _unit_ring(16)
    del svd_calls[:]
    norms = _resolvent_norms(damped, lams)
    assert len(svd_calls) == lams.size
    assert np.array_equal(norms, [resolvent_norm(damped, lam) for lam in lams])
    assert norms[1] != norms[-1]
