import math

import numpy as np
import pytest

from itpencil import (
    BoundaryPair,
    Cone,
    PencilKind,
    SymbolPoint,
    characteristic_roots,
    check_condition1,
    check_condition2,
    condition1_roots,
    lopatinsky_determinant,
    principal_symbol,
)
from itpencil.exceptions import ConfigError, DegenerateInputError
from itpencil.symbols import _cone_samples

H = PencilKind.HELMHOLTZ
S = PencilKind.SCHRODINGER


def test_principal_symbol_values():
    assert principal_symbol(H, SymbolPoint(1.0, 1.0, 1.0)) == pytest.approx(6.0)
    assert principal_symbol(S, SymbolPoint(2.0, 1.0, -1.0)) == pytest.approx(0.0)
    assert principal_symbol(H, SymbolPoint(1.0, 1.0, -1.0)) == pytest.approx(0.0)


def test_principal_symbol_weight_two_homogeneity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = float(rng.uniform(0.2, 5.0))
        xs = float(rng.uniform(0.0, 3.0))
        lam = complex(rng.standard_normal(), rng.standard_normal())
        t = float(rng.uniform(0.1, 10.0))
        for kind in (H, S):
            a = principal_symbol(kind, SymbolPoint(q, t * xs, t * lam))
            b = principal_symbol(kind, SymbolPoint(q, xs, lam))
            assert a == pytest.approx(t**2 * b, rel=1e-12)


def test_condition1_roots_values():
    r = condition1_roots(H, 1.0, 1.0)
    assert sorted(x.real if isinstance(x, complex) else x for x in r) == [-1.0, -0.5]
    assert condition1_roots(H, 1.0, 0.0) == (0.0, 0.0)
    assert condition1_roots(S, 3.0, 2.0) == (-2.0, -2.0)


def test_condition1_roots_annihilate_symbol():
    # roots lie on the closed negative axis and kill the symbol exactly
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = float(rng.uniform(0.1, 8.0))
        xs = float(rng.uniform(0.0, 4.0))
        for kind in (H, S):
            for lam in condition1_roots(kind, q, xs):
                assert lam.real <= 0.0 and abs(lam.imag) == 0.0
                v = principal_symbol(kind, SymbolPoint(q, xs, complex(lam)))
                assert abs(v) <= 1e-12 * (1.0 + q * xs**2)


def test_characteristic_roots_reproduce_squares():
    rng = np.random.default_rng(2)
    for _ in range(60):
        q = float(rng.uniform(0.3, 4.0))
        xp = float(rng.uniform(0.0, 2.0))
        lam = complex(rng.standard_normal(), rng.standard_normal())
        if lam.real < 0 and abs(lam.imag) < 0.1:
            continue
        r = characteristic_roots(H, q, xp, lam)
        assert r.r1**2 == pytest.approx(lam + xp, rel=1e-12)
        assert r.r3**2 == pytest.approx(lam * (1 + 1 / q) + xp, rel=1e-12)
        assert r.r1.real > 0 > r.r2.real
        assert r.r3.real > 0 > r.r4.real
        rs = characteristic_roots(S, q, xp, lam)
        assert rs.r3 == rs.r1


def test_characteristic_roots_degenerate_rejected():
    with pytest.raises(DegenerateInputError):
        characteristic_roots(H, 1.0, 0.0, -1.0)
    with pytest.raises(DegenerateInputError, match="excluded"):
        lopatinsky_determinant(H, (0, 1), 1.0, 0.0, 0.0)


def test_lopatinsky_single_point_value():
    # clamped pair at lam=1, xi'=0, q=1: decaying roots r2 = -1, r4 = -sqrt(2),
    # rows (1, 0) and (-1, 1) on the divided-difference basis
    d = lopatinsky_determinant(H, (0, 1), 1.0, 0.0, 1.0)
    assert d == pytest.approx(1.0, rel=1e-12)
    # times r4 - r2: the determinant on the basis e^{r2 t}, e^{r4 t}
    r = characteristic_roots(H, 1.0, 0.0, 1.0)
    assert (r.r4 - r.r2) * d == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-12)


def test_lopatinsky_schrodinger_confluent_value():
    d = lopatinsky_determinant(S, (0, 1), 1.0, 0.0, 1.0)
    assert d == pytest.approx(1.0, rel=1e-12)


def test_lopatinsky_antisymmetry():
    rng = np.random.default_rng(3)
    pairs = [(0, 1), (0, 2), (1, 3), (2, 3)]
    for _ in range(40):
        q = float(rng.uniform(0.3, 4.0))
        xp = float(rng.uniform(0.0, 2.0))
        lam = complex(rng.standard_normal(), rng.standard_normal())
        for m1, m2 in pairs:
            a = lopatinsky_determinant(H, (m1, m2), q, xp, lam)
            b = lopatinsky_determinant(H, (m2, m1), q, xp, lam)
            assert a == pytest.approx(-b, rel=1e-12)


def test_check_condition1_valid_cone_passes():
    rep = check_condition1(H, (0.5, 2.0), Cone(-np.pi / 2, np.pi / 2), samples=1000)
    assert rep.passed and rep.min_modulus > 1e-3
    rep = check_condition1(S, (0.5, 2.0), Cone(-np.pi / 2, np.pi / 2), samples=1000)
    assert rep.passed


def test_check_condition1_positive_ray_schrodinger():
    # on arg lam = 0 the symbol is q (xi_sq + lam)^2, positive on the slice
    rep = check_condition1(S, (1.0, 1.0), Cone(0.0, 0.0), samples=500)
    assert rep.passed
    pt = rep.witness
    assert rep.min_modulus == pytest.approx(
        abs(pt.q_val * (pt.xi_sq + pt.lam) ** 2), rel=1e-12
    )


def test_check_condition1_touching_cone_fails_on_axis_root():
    rep = check_condition1(H, (1.0, 1.0), Cone(2.4, np.pi), samples=1000)
    assert not rep.passed
    assert abs(rep.witness.lam + rep.witness.xi_sq) <= 1e-9


def test_check_condition2_valid_cones():
    cone = Cone(-3 * np.pi / 4, 3 * np.pi / 4)
    rep = check_condition2(H, (0, 1), (0.5, 2.0), cone, samples=1000)
    assert rep.passed and rep.min_modulus > 0
    rep = check_condition2(H, (2, 3), (1.0, 1.0), cone, samples=1000)
    assert rep.passed and rep.min_modulus > 0


def test_check_condition2_independent_of_sample_count():
    # the divided-difference basis stays well conditioned as lam -> 0, so a
    # finer scan of a valid cone finds no smaller minimum
    for samples in (500, 2000, 20000):
        rep = check_condition2(H, (0, 1), (0.5, 2.0), Cone(1.0, 2.2), samples=samples)
        assert rep.min_modulus == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert rep.passed


ORDERED_PAIRS = [(m1, m2) for m1 in range(4) for m2 in range(4) if m1 < m2]
ORDERED_PAIRS += [(m2, m1) for m1, m2 in ORDERED_PAIRS]


@pytest.mark.parametrize("bc", ORDERED_PAIRS)
def test_lopatinsky_continuous_at_lam_zero(bc):
    d0 = lopatinsky_determinant(H, bc, 1.3, 0.7, 0.0)
    d = lopatinsky_determinant(H, bc, 1.3, 0.7, 1e-12 * np.exp(0.4j))
    assert abs(d - d0) <= 1e-10 * abs(d0)


def _reference_condition2(kind, bc, q_range, cone, samples):
    """Per-sample scan on the subtraction form of the divided-difference rows."""
    qs, xi_sq, lam = _cone_samples(q_range, cone, samples, 0)
    best = math.inf
    for q, xs, lm in zip(qs, xi_sq, lam):
        r2 = -np.sqrt(complex(lm + xs))
        r4 = -np.sqrt(complex(lm * (1.0 + 1.0 / q) + xs)) if kind is H else r2

        def row(m):
            if r4 == r2:
                return r2**m, (m * r2 ** (m - 1) if m else 0.0)
            return r2**m, (r4**m - r2**m) / (r4 - r2)

        (a1, b1), (a2, b2) = row(bc[0]), row(bc[1])
        scale = math.hypot(abs(a1), abs(b1)) * math.hypot(abs(a2), abs(b2))
        best = min(best, abs(a1 * b2 - a2 * b1) / max(scale, 1e-300))
    return best


@pytest.mark.parametrize("kind", [H, S])
@pytest.mark.parametrize("bc", ORDERED_PAIRS[:6])
def test_check_condition2_matches_per_sample_reference(kind, bc):
    # a valid cone and one touching the negative axis; minima, not witness
    # indices, are compared, since exact ties at xi' = 0 may pick either sample
    for cone in (Cone(-3 * np.pi / 4, 3 * np.pi / 4), Cone(2.4, np.pi)):
        rep = check_condition2(kind, bc, (0.5, 2.0), cone, samples=300)
        ref = _reference_condition2(kind, bc, (0.5, 2.0), cone, 300)
        assert rep.min_modulus == pytest.approx(ref, rel=1e-12)


def test_cone_touches_negative_axis():
    assert Cone(2.4, np.pi).touches_negative_axis()
    assert not Cone(-np.pi / 2, np.pi / 2).touches_negative_axis()


def test_boundary_pair_validation():
    with pytest.raises(ValueError):
        BoundaryPair(1, 1)
    with pytest.raises(ValueError):
        BoundaryPair(0, 4)
    with pytest.raises(ValueError):
        BoundaryPair(-1, 2)


@pytest.mark.parametrize("q,xi_sq", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
@pytest.mark.parametrize("call", [
    lambda q, xs: SymbolPoint(q, xs, 1.0j),
    lambda q, xs: condition1_roots(H, q, xs),
    lambda q, xs: characteristic_roots(H, q, xs, 1.0j),
    lambda q, xs: lopatinsky_determinant(H, (0, 1), q, xs, 1.0j),
], ids=["SymbolPoint", "condition1_roots", "characteristic_roots", "lopatinsky_determinant"])
def test_scalar_symbol_checks_raise_config_error(call, q, xi_sq):
    # q <= 0 or xi^2 < 0 is a bad argument; ConfigError is also a ValueError
    with pytest.raises(ConfigError, match="q must be positive" if q <= 0 else "nonnegative") as exc:
        call(q, xi_sq)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("call", [
    lambda kind: principal_symbol(kind, SymbolPoint(1.0, 1.0, 1.0j)),
    lambda kind: check_condition1(kind, (0.5, 2.0), Cone(1.0, 2.2), samples=16),
    lambda kind: check_condition2(kind, (0, 1), (0.5, 2.0), Cone(1.0, 2.2), samples=16),
    lambda kind: condition1_roots(kind, 1.0, 1.0),
    lambda kind: characteristic_roots(kind, 1.0, 1.0, 1.0j),
    lambda kind: lopatinsky_determinant(kind, (0, 1), 1.0, 1.0, 1.0j),
], ids=["principal_symbol", "check_condition1", "check_condition2", "condition1_roots",
        "characteristic_roots", "lopatinsky_determinant"])
def test_a_kind_given_as_its_string_is_config_error(call):
    # the symbol functions take a PencilKind; its value string is not one
    with pytest.raises(ConfigError, match="unknown pencil kind: 'helmholtz'"):
        call("helmholtz")
