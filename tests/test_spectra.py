"""Companion linearization, chains, counting, and completeness checks."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from itpencil import MediumProfile, PencilKind, ray_scan, solve_spectrum, solve_spectrum_2d
from itpencil.discretize import DiscretePencil, assemble_pencil, assemble_pencil_2d, make_grid
from itpencil.exceptions import (
    ClusterAmbiguityError,
    ConfigError,
    EigensolverError,
    SingularAtLambdaError,
    SingularPencilError,
)
from itpencil.spectra import (
    KeldyshChain,
    _build_clusters,
    _eig_residuals,
    chain_matrix,
    completeness_residual,
    counting,
    eigen,
    find_reference_point,
    jordan_from_keldysh,
    keldysh_from_jordan,
    linearize,
    schatten_norm,
    torus_embedding_sum,
    verify_chain,
)


def _scalar(a0, a1, a2):
    return DiscretePencil.from_matrices(
        np.array([[a0]], dtype=complex),
        np.array([[a1]], dtype=complex),
        np.array([[a2]], dtype=complex),
    )


@pytest.fixture(scope="module")
def h48():
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.0)
    return solve_spectrum(profile, 0.0, 1.0, 48, (0, 1))


@pytest.fixture(scope="module")
def h64():
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.0)
    return solve_spectrum(profile, 0.0, 1.0, 64, (0, 1))


def test_linearize_scalar_companion():
    comp = linearize(_scalar(2.0, -3.0, 1.0))
    assert np.allclose(comp.matrix, [[0.0, 1.0], [-2.0, 3.0]])
    sol = eigen(comp)
    assert np.allclose(sorted(sol.eigenvalues.real), [1.0, 2.0], atol=1e-12)
    assert np.allclose(sol.eigenvalues.imag, 0.0, atol=1e-12)


def test_eigen_scalar_zero_and_minus_one():
    sol = eigen(linearize(_scalar(0.0, 1.0, 1.0)))
    assert np.allclose(sorted(sol.eigenvalues.real), [-1.0, 0.0], atol=1e-12)


def test_linearize_blocks():
    rng = np.random.default_rng(11)
    N = 5
    A0 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A1 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A2 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) + 3.0 * np.eye(N)
    comp = linearize(DiscretePencil.from_matrices(A0, A1, A2))
    G = comp.matrix
    assert np.all(G[:N, :N] == 0.0)
    assert np.max(np.abs(G[:N, N:] @ A2 - np.eye(N))) <= 1e-10
    assert np.max(np.abs(G[N:, :N] + A0)) <= 1e-12


def test_companion_matrix_built_once():
    comp = linearize(_scalar(2.0, -3.0, 1.0))
    assert comp.matrix is comp.matrix
    assert not comp.matrix.flags.writeable


def test_linearize_rejects_singular_a2():
    with pytest.raises(SingularPencilError):
        linearize(
            DiscretePencil.from_matrices(
                np.eye(2, dtype=complex), np.eye(2, dtype=complex), np.zeros((2, 2), complex)
            )
        )


def test_eigen_trusted_near_negative_axis(h64):
    # distance to the negative real axis shrinks relative to |lambda|
    tr = h64.trusted_eigenvalues
    dist = np.where(tr.real <= 0, np.abs(tr.imag), np.abs(tr))
    ratio = dist / np.abs(tr)
    order = np.argsort(np.abs(tr))
    half = tr.size // 2
    small_max = ratio[order[:half]].max()
    large_max = ratio[order[half:]].max()
    assert tr.size >= 20
    assert large_max < small_max
    assert large_max < 0.2


def test_spectrum_equivalence_small_pencils():
    # companion eigenvalues equal the roots of det(A0 + lam A1 + lam^2 A2)
    rng = np.random.default_rng(7)
    for _ in range(6):
        N = int(rng.integers(2, 9))
        A0 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        A1 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        A2 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) + 3.0 * np.eye(N)
        deg = 2 * N
        ts = 2.0 * np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
        vals = np.array([np.linalg.det(A0 + t * A1 + t * t * A2) for t in ts])
        roots = np.polynomial.polynomial.polyroots(
            np.polynomial.polynomial.polyfit(ts, vals, deg)
        )
        ev = np.linalg.eigvals(linearize(DiscretePencil.from_matrices(A0, A1, A2)).matrix)
        C = np.abs(roots[:, None] - ev[None, :])
        r, c = linear_sum_assignment(C)
        assert (C[r, c] / (1.0 + np.abs(ev[c]))).max() <= 1e-8


@pytest.mark.parametrize("lambda_prime", ["auto", 3.0])
def test_solve_spectrum_one_eig_per_grid(monkeypatch, lambda_prime):
    calls = []
    eig = np.linalg.eig

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted)
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.0)
    sol = solve_spectrum(profile, 0.0, 1.0, 24, (0, 1), lambda_prime=lambda_prime)
    assert len(calls) == 2
    assert sol.trust_mask.any()


def test_eigen_auto_equals_explicit_reference_point():
    profile = MediumProfile.constant(PencilKind.SCHRODINGER, 1.5)
    comp = linearize(assemble_pencil(profile, make_grid(0.0, 1.0, 32), (1, 3)))
    auto = eigen(comp, lambda_prime="auto")
    explicit = eigen(comp, lambda_prime=find_reference_point(eigen(comp).trusted_eigenvalues))
    assert auto.lambda_prime == explicit.lambda_prime
    assert np.array_equal(auto.eigenvalues, explicit.eigenvalues)
    assert np.array_equal(auto.trust_mask, explicit.trust_mask)


def test_simple_cluster_chain_is_right_u_column(h48):
    simple = [cl for cl in h48.clusters if cl.multiplicity == 1]
    assert len(simple) >= 20
    for cl in simple:
        (chain,) = cl.chains
        assert np.array_equal(chain.vectors[0], h48.right_u[:, cl.indices[0]])
        assert max(chain.residuals) <= 1e-10


def test_simple_chain_residual_is_eigen_residual(h48):
    # verify_chain scales by the same coefficient scale as eigen's residuals,
    # so a simple cluster's one chain residual is its eigenvalue's residual
    for cl in (c for c in h48.clusters if c.multiplicity == 1):
        (chain,) = cl.chains
        (res,) = chain.residuals
        ref = h48.residuals[cl.indices[0]]
        if ref == 0.0:
            assert res == 0.0
        else:
            assert res == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_real_pencil_linearizes_in_real_arithmetic(h48):
    # a real pencil gets a real companion matrix, so the eigensolve keeps
    # every conjugate pair exact
    assert linearize(h48.pencil).matrix.dtype == np.float64
    lam = h48.eigenvalues
    assert np.array_equal(np.sort_complex(lam), np.sort_complex(lam.conj()))


def test_complex_pencil_linearizes_complex():
    rng = np.random.default_rng(5)
    A0, A1 = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
    comp = linearize(DiscretePencil.from_matrices(A0, A1, np.eye(4)))
    assert comp.matrix.dtype == np.complex128


def _columnwise_residuals(sol):
    pen = sol.pencil
    return np.array([
        pen.vector_norm(pen.T(lam) @ u) / (pen.vector_norm(u) * pen.coefficient_scale(lam))
        for lam, u in zip(sol.eigenvalues, sol.right_u.T)
    ])


@pytest.mark.parametrize("case", ["h48", "2d"])
def test_batched_residuals_equal_columnwise_formula(case, request):
    if case == "h48":
        sol = request.getfixturevalue("h48")
    else:
        profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.3)
        sol = solve_spectrum_2d(profile, (0.0, 1.0, 0.0, 1.0), 8, 8, (0, 1))
    ref = _columnwise_residuals(sol)
    assert np.abs(sol.residuals - ref).max() <= 1e-12


def test_keldysh_from_eigenpair(h48):
    pen, comp = h48.pencil, h48.companion
    j = int(np.flatnonzero(h48.trust_mask)[0])
    lam0, u0 = h48.eigenvalues[j], h48.right_u[:, j]
    v0 = lam0 * (pen.A2 @ u0)
    ch = keldysh_from_jordan(comp, [np.concatenate([u0, v0])], lam0)
    assert len(ch.vectors) == 1
    assert max(ch.residuals) <= 1e-7
    assert np.allclose(ch.vectors[0], u0)


def test_keldysh_length_two_planted_chain():
    rng = np.random.default_rng(21)
    N, lam0 = 6, 0.7 - 0.4j
    A1 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A2 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) + 4.0 * np.eye(N)
    u0 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    u1 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    B1 = A1 + 2.0 * lam0 * A2
    X = np.column_stack([u0, u1] + [rng.standard_normal(N) + 1j * rng.standard_normal(N)
                                    for _ in range(N - 2)])
    Y = np.column_stack([np.zeros(N, complex), -(B1 @ u0)]
                        + [rng.standard_normal(N) + 1j * rng.standard_normal(N)
                           for _ in range(N - 2)])
    B0 = Y @ np.linalg.inv(X)
    A0 = B0 - lam0 * A1 - lam0 * lam0 * A2
    pen = DiscretePencil.from_matrices(A0, A1, A2)
    comp = linearize(pen)
    x0 = np.concatenate([u0, lam0 * (A2 @ u0)])
    x1 = np.concatenate([u1, lam0 * (A2 @ u1) + A2 @ u0])
    ch = keldysh_from_jordan(comp, [x0, x1], lam0)
    assert len(ch.vectors) == 2
    assert max(ch.residuals) <= 1e-7
    # B1 u0 + B0 u1 = 0 is exactly the second chain equation
    r = np.linalg.norm(B1 @ ch.vectors[0] + B0 @ ch.vectors[1])
    assert r / np.linalg.norm(u0) <= 1e-7
    # round trip back to companion form reproduces the u components exactly
    back = jordan_from_keldysh(pen, ch)
    for j, x in enumerate(back):
        assert np.array_equal(x[:N], ch.vectors[j])


def test_keldysh_rejects_non_eigenvector():
    comp = linearize(_scalar(2.0, -3.0, 1.0))
    with pytest.raises(ValueError):
        keldysh_from_jordan(comp, [np.array([1.0, 0.0], complex)], 1.0)


def test_keldysh_rejects_a_broken_jordan_relation():
    # (1, 1) is the companion eigenvector at the simple eigenvalue 1, which has no chain
    comp = linearize(_scalar(2.0, -3.0, 1.0))
    x0, x1 = np.array([1.0, 1.0], complex), np.array([1.0, 0.0], complex)
    with pytest.raises(ValueError, match="Jordan relation violated at position 1"):
        keldysh_from_jordan(comp, [x0, x1], 1.0)


def test_non_finite_eigenvalues_raise(monkeypatch):
    monkeypatch.setattr(np.linalg, "eig", lambda M: (np.array([np.nan, 1.0]), np.eye(2)))
    with pytest.raises(EigensolverError, match="non-finite"):
        eigen(linearize(_scalar(2.0, -3.0, 1.0)))


def test_verify_chain_exact_and_perturbed(h48):
    pen = h48.pencil
    j = int(np.flatnonzero(h48.trust_mask)[0])
    lam0, u0 = h48.eigenvalues[j], h48.right_u[:, j]
    good = KeldyshChain(lambda0=lam0, vectors=[u0], residuals=[])
    assert max(verify_chain(pen, good)) <= 1e-7
    noise = np.random.default_rng(0).standard_normal(u0.size)
    bad = KeldyshChain(
        lambda0=lam0,
        vectors=[u0 + 0.1 * np.linalg.norm(u0) * noise],
        residuals=[],
    )
    assert max(verify_chain(pen, bad)) > 1e-3


def test_verify_chain_scalar_double_root():
    # T(lam) = (lam-1)^2, chain {1, 0} at lam0 = 1: B0 = B1 = 0 there
    pen = _scalar(1.0, -2.0, 1.0)
    ch = KeldyshChain(
        lambda0=1.0 + 0j,
        vectors=[np.array([1.0 + 0j]), np.array([0.0 + 0j])],
        residuals=[],
    )
    assert verify_chain(pen, ch) == [0.0, 0.0]


def test_verify_chain_rejects_an_empty_chain_and_zero_vectors():
    pen = _scalar(1.0, -2.0, 1.0)
    with pytest.raises(ValueError, match="empty chain"):
        verify_chain(pen, KeldyshChain(lambda0=1.0 + 0j, vectors=[]))
    zero = KeldyshChain(lambda0=1.0 + 0j, vectors=[np.zeros(1, dtype=complex)])
    with pytest.raises(ValueError, match="chain of zero vectors"):
        verify_chain(pen, zero)


def test_cluster_multiplicity_four_at_zero_for_23():
    # bc=(2,3): kernel {1, x} at lam=0, each with a length-2 Jordan chain
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.0)
    eig = solve_spectrum(profile, 0.0, 1.0, 48, (2, 3))
    zero = [c for c in eig.clusters if abs(c.center) < 1e-3]
    assert len(zero) == 1
    assert zero[0].multiplicity == 4
    assert sorted(len(ch.vectors) for ch in zero[0].chains) == [2, 2]


def test_clusters_follow_chains_of_close_pairs():
    # 1 ~ b and b ~ c within _TRUST_RTOL (1 + 1) = 2e-6, but |1 - c| = 3e-6:
    # one cluster of three all the same, and the far eigenvalue 5 alone.
    # Sorted by real part, c reaches the position of 1 only through b.
    b, c = 1.0 + 1.5e-6, 1.0 + 3e-6
    pen = DiscretePencil.from_matrices(
        np.diag([5.0, 20.0 * b, 30.0 * c]), -np.diag([6.0, 20.0 + b, 30.0 + c]), np.eye(3)
    )
    comp = linearize(pen)
    lam, U, residuals = _eig_residuals(comp)
    order = np.argsort(lam.real)
    lam, U, residuals = lam[order], U[:, order], residuals[order]
    trust = (np.abs(lam - 1.0) < 1e-3) | (np.abs(lam - 5.0) < 1e-3)
    assert trust.sum() == 4 and residuals[trust].max() <= 1e-7
    clusters = _build_clusters(comp, lam, U, residuals, trust)
    assert [cl.multiplicity for cl in clusters] == [3, 1]
    assert sorted(lam[clusters[0].indices].real) == pytest.approx([1.0, b, c], abs=1e-12)
    assert [len(ch.vectors) for ch in clusters[0].chains] == [1, 1, 1]
    assert clusters[1].center == pytest.approx(5.0, abs=1e-12)


def test_schatten_small_cases():
    assert schatten_norm(np.eye(2), 1.0) == pytest.approx(2.0, rel=1e-12)
    assert schatten_norm(np.diag([3.0, 4.0]), 2.0) == pytest.approx(5.0, rel=1e-12)


def test_schatten_unitary_invariance():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    U, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    V, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    for p in (1.0, 2.0, 3.5):
        assert schatten_norm(U @ M @ V, p) == pytest.approx(schatten_norm(M, p), rel=1e-10)


def test_schatten_frobenius_identity():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    assert schatten_norm(M, 2.0) ** 2 == pytest.approx(np.sum(np.abs(M) ** 2), rel=1e-12)


def test_schatten_rejects_small_p():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 0.5)


def test_torus_sum_coth_limit():
    ts = torus_embedding_sum(1, 1.0, 100000)
    exact = np.pi / np.tanh(np.pi)
    assert ts.partial <= exact <= ts.partial + ts.tail_bound
    assert ts.tail_bound <= 5e-5


def test_torus_sum_divergent_rejected():
    with pytest.raises(ValueError):
        torus_embedding_sum(1, 0.5, 100)
    with pytest.raises(ValueError):
        torus_embedding_sum(2, 2.0, 0)


def test_torus_sum_rejects_a_fractional_dimension_and_a_large_window():
    with pytest.raises(ConfigError, match="positive integer"):
        torus_embedding_sum(1.5, 2.0, 10)
    # (2 * 200 + 1)^3 lattice points exceed the 5e7 window; it raises before allocating
    with pytest.raises(ConfigError, match="lattice window too large"):
        torus_embedding_sum(3, 2.0, 200)


def test_torus_sum_2d_tail_formula():
    # tail bound is (1+n)^p times the integral of (1+|x|^2)^(-p) outside
    # the half-open cell boundary R = cutoff + 1/2; in 2D with p=2 that
    # integral is pi / (1 + R^2)
    ts = torus_embedding_sum(2, 2.0, 50)
    R = 50.5
    assert ts.tail_bound == pytest.approx(9.0 * np.pi / (1.0 + R * R), rel=1e-9)
    assert ts.partial > 1.0


def test_counting_hand_example():
    rep = counting(np.array([1.0, 2.0, 4.0]), 0.0, 1.0, [3.0])
    assert rep.counts.tolist() == [2]
    assert rep.discrete_bounds[0] == pytest.approx(5.25, rel=1e-12)
    assert rep.schatten_bounds is None


def test_counting_below_minimum_distance():
    rep = counting(np.array([1.0, 2.0, 4.0]), 0.0, 1.0, [0.5, 0.99])
    assert rep.counts.tolist() == [0, 0]


def test_counting_monotone_and_bounded(h48):
    lp = h48.lambda_prime
    t_values = np.geomspace(1.0, 300.0, 25)
    rep = counting(h48, lp, 1.0, t_values)
    assert np.all(np.diff(rep.counts) >= 0)
    assert np.all(rep.counts <= rep.discrete_bounds)


def test_counting_rejects_an_empty_spectrum():
    with pytest.raises(ValueError, match="no trusted eigenvalues"):
        counting(np.array([], complex), 1.0, 1.0, [1.0])


def test_eigen_with_an_empty_reference_trusts_none():
    # both eigenvalues +-1 of lam^2 - 1 pass the residual filter, but an empty
    # refined-grid reference has no partner for either
    sol = eigen(linearize(_scalar(-1.0, 0.0, 1.0)), reference=[])
    assert np.all(sol.residuals <= 1e-7)
    assert not sol.trust_mask.any() and sol.clusters == []


def test_counting_rejects_reference_on_eigenvalue():
    with pytest.raises(SingularAtLambdaError):
        counting(np.array([1.0, 2.0, 4.0]), 1.0, 1.0, [3.0])


def test_counting_rejects_reference_on_untrusted_eigenvalue(h48):
    # the distance test sees only trusted eigenvalues; the checked inverse of
    # A - lambda' sees this untrusted companion eigenvalue, hundreds away
    # from every trusted one
    untrusted = h48.eigenvalues[~h48.trust_mask]
    lp = untrusted[np.argmin(np.abs(untrusted))]
    assert np.min(np.abs(h48.trusted_eigenvalues - lp)) > 100.0
    with pytest.raises(SingularAtLambdaError):
        counting(h48, lp, 1.0, [1.0, 10.0])


def test_counting_rejects_a_schatten_p_below_one_before_the_inverse(h48, getrf_calls):
    # the Schatten bound needs p >= 1, so the companion inverse, an LU of
    # twice the pencil size, is not formed for a p that would be rejected
    assert h48.companion is not None
    with pytest.raises(ConfigError, match="Schatten norms need p >= 1"):
        counting(h48, h48.lambda_prime, 0.5, [1.0, 10.0])
    assert getrf_calls == []


def test_completeness_own_eigenvector(h64):
    cl = sorted(h64.clusters, key=lambda c: abs(c.center - h64.lambda_prime))[0]
    f = cl.chains[0].vectors[0]
    assert completeness_residual(h64, f, 1) <= 1e-8


def test_completeness_nonincreasing_and_small(h64):
    pen = h64.pencil
    rng = np.random.default_rng(3)
    x = pen.grids[0].nodes
    coeffs = (rng.standard_normal(12) + 1j * rng.standard_normal(12)) / (
        1.0 + np.arange(12)
    ) ** 2
    fg = sum(c * np.cos(k * np.pi * x) for k, c in enumerate(coeffs))
    f = pen.project(fg)
    ms = [1, 2, 4, 8, 16, len(h64.clusters)]
    rs = [completeness_residual(h64, f, m) for m in ms]
    assert all(rs[i + 1] <= rs[i] + 1e-9 for i in range(len(rs) - 1))
    assert rs[-1] < 0.1


def test_rank_deficient_warning_names_the_caller(h1_solution):
    # the warning must point past the single-BLAS-thread wrapper to this file
    pen = h1_solution.pencil
    f = pen.project(np.cos(np.pi * pen.grids[0].nodes))
    with pytest.warns(UserWarning, match=r"rank deficient \(81 of 87\)") as record:
        completeness_residual(h1_solution, f, len(h1_solution.clusters))
    assert [w.filename for w in record] == [__file__]


def test_completeness_rejects_oversized_m(h64):
    pen = h64.pencil
    f = np.ones(pen.dim, dtype=complex)
    with pytest.raises(ValueError):
        completeness_residual(h64, f, len(h64.clusters) + 1)


def test_completeness_rejects_a_zero_sample(h64):
    with pytest.raises(ValueError, match="zero sample vector"):
        completeness_residual(h64, np.zeros(h64.pencil.dim, dtype=complex), 1)


def test_chain_matrix_of_no_clusters_is_an_error(h64):
    with pytest.raises(ValueError, match="no chains available"):
        chain_matrix(h64, 0)


def test_chain_matrix_width_counts_chain_vectors(h64):
    X1 = chain_matrix(h64, 1)
    Xall = chain_matrix(h64, len(h64.clusters))
    total = sum(len(ch.vectors) for cl in h64.clusters for ch in cl.chains)
    assert X1.shape == (h64.pencil.dim, sum(
        len(ch.vectors)
        for ch in sorted(h64.clusters, key=lambda c: abs(c.center - h64.lambda_prime))[0].chains
    ))
    assert Xall.shape == (h64.pencil.dim, total)


def test_find_reference_point_prefers_far_candidates():
    assert find_reference_point(np.array([-1.0, -2.0])) == 1.0 + 0j


def test_find_reference_point_without_eigenvalues_takes_the_first_candidate():
    assert find_reference_point(np.array([], complex)) == 1.0 + 0j
    # an auto reference point over an empty trusted set
    sol = eigen(linearize(_scalar(-1.0, 0.0, 1.0)), lambda_prime="auto", reference=[])
    assert sol.lambda_prime == 1.0 + 0j and not sol.trust_mask.any()


def test_find_reference_point_all_candidates_blocked():
    # eigenvalues at each of the 13 fixed candidates
    with pytest.raises(SingularAtLambdaError):
        find_reference_point(np.geomspace(1.0, 100.0, 13).astype(complex))


@pytest.mark.parametrize("bc", [(0, 1), (0, 2), (1, 3), (2, 3)], ids=lambda bc: "bc%d%d" % bc)
@pytest.mark.parametrize("kind", list(PencilKind), ids=lambda k: k.value)
def test_solve_spectrum_on_samples_trusts_the_polynomial_spectrum(kind, bc):
    # samples of 1 + 0.5 x - 0.3 x^2 on the n = 48 grid are interpolated onto
    # the refined grid, so the two-grid solve trusts what the polynomial-q
    # solve trusts, with the same eigenvalues up to roundoff
    coeffs = [1.0, 0.5, -0.3]
    samples = np.polynomial.polynomial.polyval(make_grid(0.0, 1.0, 48).nodes, coeffs)
    exact = solve_spectrum(MediumProfile.polynomial(kind, coeffs), 0.0, 1.0, 48, bc)
    sampled = solve_spectrum(MediumProfile.sampled(kind, samples), 0.0, 1.0, 48, bc)
    ref, tr = exact.trusted_eigenvalues, sampled.trusted_eigenvalues
    assert tr.size == ref.size > 0
    for lam in tr[np.abs(tr) <= 200.0]:
        assert np.min(np.abs(ref - lam)) <= 1e-9 * (1.0 + abs(lam))


def test_solve_spectrum_2d_trusts_low_spectrum():
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.3)
    sol = solve_spectrum_2d(profile, (0.0, 1.0, 0.0, 1.0), 12, 12, (1, 3))
    assert sol.eigenvalues.size == 2 * 8 * 8
    assert np.count_nonzero(sol.trust_mask) >= 8


@pytest.mark.xfail(raises=ClusterAmbiguityError, strict=True,
                   reason="the cluster at -9 pi^2 captures 3 Schur eigenvalues, 2 trusted (FOUND)")
def test_solve_spectrum_2d_builds_the_chains_of_q1_bc13():
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.0)
    sol = solve_spectrum_2d(profile, (0.0, 1.0, 0.0, 1.0), 12, 12, (1, 3))
    assert any(cl.multiplicity > 1 for cl in sol.clusters)


def _held_arrays(obj):
    """Every array held by obj through dataclass fields, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _held_arrays(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _held_arrays(item)


def test_grids_pencils_and_solutions_hold_read_only_arrays():
    H = PencilKind.HELMHOLTZ
    grid, q = make_grid(0.0, 1.0, 32), MediumProfile.constant(H, 1.3)
    samples = MediumProfile.sampled(H, 1.0 + 0.2 * make_grid(0.0, 1.0, 12).nodes)
    double = solve_spectrum(q, 0.0, 1.0, 48, (1, 3))  # the double eigenvalue at 0: a Schur chain
    assert any(cl.multiplicity > 1 for cl in double.clusters)
    made = [
        grid,
        assemble_pencil(q, grid, (0, 1)),
        assemble_pencil_2d(q, make_grid(0.0, 1.0, 8), make_grid(0.0, 2.0, 9), (0, 2)),
        solve_spectrum(q, 0.0, 1.0, 32, (0, 1)),
        solve_spectrum(samples, 0.0, 1.0, 32, (2, 3)),
        double,
        solve_spectrum_2d(q, (0.0, 1.0, 0.0, 1.0), 8, 8, (1, 3)),
    ]
    for obj in made:
        arrays = list(_held_arrays(obj))
        assert len(arrays) >= 2
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array
    # a pencil from explicit matrices keeps the caller's arrays, writable, through a solve
    A = [np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]])]
    pencil = DiscretePencil.from_matrices(*A)
    eigen(linearize(pencil))
    assert all(M is a and a.flags.writeable for M, a in zip((pencil.A0, pencil.A1, pencil.A2), A))


def test_2d_ray_decay():
    # ||T(lam)^{-1}|| decays like |lam|^{-2} along rays, as in 1D
    profile = MediumProfile.constant(PencilKind.HELMHOLTZ, 1.3)
    grid = make_grid(0.0, 1.0, 12)
    pencil = assemble_pencil_2d(profile, grid, grid, (0, 1))
    radii = np.geomspace(10.0, 1e4, 13)
    for frac in (0.0, 0.5):
        scan = ray_scan(pencil, np.exp(1j * np.pi * frac), radii)
        assert abs(scan.fitted_slope + 2.0) <= 0.15
