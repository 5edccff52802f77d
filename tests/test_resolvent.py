"""Resolvent norms, ray decay, product bounds, Laurent data, circle averages."""

import numpy as np
import pytest

from itpencil import MediumProfile, PencilKind, solve_spectrum
from itpencil.discretize import DiscretePencil, assemble_pencil, make_grid
from itpencil.exceptions import (
    ClusterAmbiguityError,
    MaskedSampleError,
    PoleOnRayError,
    SingularAtLambdaError,
)
from itpencil.resolvent import (
    WeierstrassProduct,
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
from itpencil.spectra import linearize


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
    _, Sinv = pen._scaling()
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


def test_weierstrass_genus_validation():
    wp = WeierstrassProduct(lambda_prime=0.0, zeros=np.array([1.0]), p=1.5)
    assert wp.k == 2
    with pytest.raises(ValueError):
        WeierstrassProduct(lambda_prime=0.0, zeros=np.array([1.0]), p=1.0, k=3)
    with pytest.raises(ValueError):
        WeierstrassProduct(lambda_prime=2.0, zeros=np.array([2.0]), p=1.0)


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


def test_carleman_at_reference_only():
    wp = WeierstrassProduct(lambda_prime=0.0, zeros=np.array([2.0, -2.0]), p=1.0)
    rep = carleman_check(np.diag([2.0 + 0j, -2.0 + 0j]), wp, 0.0)
    assert rep["max_lhs"] == pytest.approx(1.0, rel=1e-12)


def test_carleman_bounded_through_eigenvalue():
    # sampling next to an eigenvalue stays bounded: phi removes the pole
    wp = WeierstrassProduct(lambda_prime=0.0, zeros=np.array([2.0, -2.0]), p=1.0)
    rep = carleman_check(np.diag([2.0 + 0j, -2.0 + 0j]), wp, 2.5, n_samples=64)
    assert rep["n_probes"] > 0
    assert np.isfinite(rep["max_probe_lhs"])
    assert rep["max_probe_lhs"] <= 10.0 * rep["circle_median"]


def test_pole_avoiding_radii_properties():
    ev = np.array([-1.0, -10.0, -100.0])
    radii = pole_avoiding_radii(ev, 1.0, 1000.0, n_candidates=64)
    assert radii.size >= 4
    assert np.all(np.diff(radii) > 0)
    assert radii.min() >= 1.0 and radii.max() <= 1000.0
    dists = np.min(np.abs(np.abs(ev)[:, None] - radii[None, :]), axis=0)
    assert np.all(dists / radii >= 0.001)


def test_circle_growth_scalar_decays():
    pen = _scalar(0.0, 1.0, 1.0)
    ev = np.array([0.0, -1.0])
    radii = pole_avoiding_radii(ev, 2.0, 200.0, n_candidates=64)
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
}


@pytest.mark.parametrize("entry", list(_SINGULAR_CASES))
def test_singular_sample_raises(entry):
    with pytest.raises(SingularAtLambdaError):
        _SINGULAR_CASES[entry]()


def test_t_infinity_scalar_pole_term():
    # |T^{-1}| < 1 everywhere on |lam| = 10, so only the pole term remains:
    # ln r for the zero at the origin plus ln(r/1) for the root at -1
    pen = _scalar(0.0, 1.0, 1.0)
    est = t_infinity_estimate(pen, 10.0, eigenvalues=np.array([0.0, -1.0]))
    assert est == pytest.approx(2.0 * np.log(10.0), rel=1e-12)


def test_t_infinity_monotone_in_radius():
    pen = _scalar(0.0, 1.0, 1.0)
    ev = np.array([0.0, -1.0])
    vals = [t_infinity_estimate(pen, r, eigenvalues=ev) for r in (10.0, 30.0, 90.0)]
    assert vals[0] <= vals[1] <= vals[2]


def test_t_infinity_masked_sample_limit():
    pen = _scalar(-50.0, -49.0, 1.0)  # root exactly at radius 50, theta 0
    with pytest.raises(MaskedSampleError):
        t_infinity_estimate(pen, 50.0, n_samples=8)
