"""Prime field and cubic extension arithmetic.

Oracles used here:
  - exhaustive inverse scan over F_p
  - exhaustive sweep of F_{p^3} inverses and multiply-by-x matrices, p <= 7
  - schoolbook polynomial multiply + long division for extension products
  - full lex enumeration of monic cubics for the irreducibility search
"""

import random
from itertools import product

import numpy as np
import pytest

from rsdel import field
from rsdel.errors import FieldMismatchError, ParameterError
from rsdel.field import (
    CubicField,
    MonicCubic,
    _no_root_by_gcd,
    _pow_x_mod_cubic,
    is_irreducible_cubic,
    is_prime,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for x in range(-2, 42):
        assert is_prime(x) == (x in primes)


def test_is_prime_large():
    assert is_prime(10007)
    assert not is_prime(10005)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_is_prime_matches_sieve():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, limit, q)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


# OEIS A014233: psi_k, the least odd composite that is a strong probable prime
# to the first k prime bases (psi_7 = psi_8, psi_9 = psi_10 = psi_11), each
# with the first prime above it
_PSI = [
    (2047, 2053),
    (1373653, 1373677),
    (25326001, 25326023),
    (3215031751, 3215031767),
    (2152302898747, 2152302898771),
    (3474749660383, 3474749660401),
    (341550071728321, 341550071728361),
    (3825123056546413051, 3825123056546413057),
    (318665857834031151167461, 318665857834031151167483),
]
_PSI_13 = 3317044064679887385961981


@pytest.mark.parametrize("psi, next_prime", _PSI)
def test_is_prime_at_each_proven_bound(psi, next_prime):
    assert not is_prime(psi)
    assert is_prime(next_prime)
    assert all(not is_prime(m) for m in range(psi + 2, next_prime, 2))


def test_is_prime_refuses_past_the_last_proven_bound():
    assert 318665857834031151167461 == 399165290221 * 798330580441
    # below psi_13 the first 13 prime bases still decide
    assert is_prime(3317044064679887385961813)   # the last prime below psi_13
    assert not is_prime(_PSI_13 - 2)             # 17 * 1709 * 1366183751 * 83570142193
    for n in (_PSI_13, _PSI_13 + 142, (1 << 90) + 1):
        with pytest.raises(ParameterError, match="no proven primality test"):
            is_prime(n)
    with pytest.raises(ParameterError, match="no proven primality test"):
        CubicField(_PSI_13)
    with pytest.raises(ParameterError, match="modulus must be an odd prime"):
        CubicField(318665857834031151167461)


def test_field_parameters_are_integers():
    # p and g's coefficients are read through operator.index: a float or a
    # string raised TypeError, and a plain tuple g AttributeError
    for bad in (7.0, 7.5, "7", None, (7,)):
        with pytest.raises(ParameterError, match="must be integers"):
            CubicField(bad)
    for bad in (7.0, "7", None):
        with pytest.raises(ParameterError, match="must be integers"):
            is_prime(bad)
    assert is_prime(np.int64(10007)) and not is_prime(np.int64(10005))
    field7 = CubicField(np.int64(7))
    assert type(field7.p) is int and field7 == CubicField(7)
    want = CubicField(7, MonicCubic(1, 1, 0))
    for g in ((1, 1, 0), [1, 1, 0], np.array([1, 1, 0]), (8, -6, 7),
              [np.int64(8), np.int64(-6), 7]):
        ext = CubicField(7, g)
        assert ext == want and type(ext.g) is MonicCubic
        assert all(type(c) is int for c in ext.g)
    for g in ((1.0, 1, 0), ("1", 1, 0), (1, 1, None), 5, "110"):
        with pytest.raises(ParameterError, match="cubic coefficients must be integers"):
            CubicField(7, g)
    for g in ((1, 1), (1, 1, 0, 0), ()):
        with pytest.raises(ParameterError, match="three coefficients"):
            CubicField(7, g)
    with pytest.raises(ParameterError, match="has a root"):
        CubicField(7, (0, 0, 0))
    # is_irreducible_cubic reads p and g the same way
    assert is_irreducible_cubic(7, (1, 1, 0)) and is_irreducible_cubic(np.int64(7), [8, -6, 7])
    assert not is_irreducible_cubic(7, (0, 0, 0))
    for p, g in ((7.0, (1, 1, 0)), (7, (1.0, 1, 0)), (7, ("1", 1, 0)), (7, (1, 1)), (7, 5)):
        with pytest.raises(ParameterError):
            is_irreducible_cubic(p, g)


@pytest.mark.parametrize("n, bases", [
    (3, 1), (10007, 2), (1073741789, 4), (2147483659, 4),
    (2**61 - 1, 7), (2**64 - 59, 7), (2**64 + 13, 12)])
def test_is_prime_uses_the_smallest_proven_base_set(monkeypatch, n, bases):
    # one pow per Miller-Rabin base: p = 10007 takes 2, and every p from
    # psi_7 up to 2^64 takes Sinclair's 7 bases
    calls = []
    monkeypatch.setattr(field, "pow", lambda *a: calls.append(a) or pow(*a), raising=False)
    assert is_prime(n)
    assert len(calls) == bases


def test_prime_field_rejects_bad_modulus():
    with pytest.raises(ParameterError):
        CubicField(6)
    with pytest.raises(ParameterError):
        CubicField(2)  # odd primes only
    with pytest.raises(ParameterError):
        CubicField(1)


def test_monic_cubic_evaluate():
    g = MonicCubic(1, 1, 0)  # x^3 + x + 1
    assert g.evaluate(0, 5) == 1
    assert g.evaluate(1, 5) == 3
    assert g.evaluate(4, 5) == (64 + 4 + 1) % 5


# --- irreducibility ---------------------------------------------------------


def brute_force_has_root(p, g):
    return any(g.evaluate(x, p) == 0 for x in range(p))


def test_no_root_backends_agree_exhaustively():
    # the gcd test against a brute-force root scan, on every monic cubic
    # over each small field: 27 + 125 + 343 + 1331 + 2197 of them
    for p in (3, 5, 7, 11, 13):
        for g0, g1, g2 in product(range(p), repeat=3):
            g = MonicCubic(g0, g1, g2)
            assert _no_root_by_gcd(p, g) == (not brute_force_has_root(p, g)), (p, g)


def test_is_irreducible_known_cases():
    assert is_irreducible_cubic(5, MonicCubic(1, 1, 0))
    assert not is_irreducible_cubic(5, MonicCubic(1, 0, 0))  # x^3+1 has root 4
    assert not is_irreducible_cubic(5, MonicCubic(0, 0, 0))  # x^3
    # degree-3 polys are irreducible iff rootless, so the scan is an oracle
    for p in (3, 5, 11):
        for g0 in range(p):
            for g1 in range(p):
                g = MonicCubic(g0, g1, 0)
                assert is_irreducible_cubic(p, g) == (not brute_force_has_root(p, g))


def brute_force_first_irreducible(p):
    for g2 in range(p):
        for g1 in range(p):
            for g0 in range(p):
                g = MonicCubic(g0, g1, g2)
                if not brute_force_has_root(p, g):
                    return g
    raise AssertionError("no irreducible cubic found")


def test_cubic_field_g_matches_brute_force():
    for p in (3, 5, 7, 11, 13):
        assert CubicField(p).g == brute_force_first_irreducible(p)


def test_cubic_field_g_frozen_values():
    assert CubicField(5).g == MonicCubic(1, 1, 0)
    assert CubicField(3).g == MonicCubic(1, 2, 0)
    # deterministic: same answer every call
    assert CubicField(10007).g == CubicField(10007).g
    # read at the version that searched after a primality test of its own
    # and tested the winner again in CubicField
    for p, g in ((7, (2, 0, 0)), (10007, (1, 1, 0)), (1073741789, (1, 1, 0)),
                 (2147483659, (2, 0, 0)), (2**61 - 1, (5, 0, 0)),
                 (2**64 - 59, (1, 1, 0)), (2**64 + 13, (3, 1, 0))):
        assert CubicField(p).g == MonicCubic(*g), p


def test_cubic_field_rejects_bad_modulus():
    for p in (2, 9, 10005, 318665857834031151167461):
        with pytest.raises(ParameterError, match=f"modulus must be an odd prime, got {p}"):
            CubicField(p)


def mul_mod_cubic(p, g, x, y):
    """x*y mod the monic cubic g (reducible or not): the degree-4 product,
    then long division by g."""
    z = [0] * 5
    for i, j in product(range(3), repeat=2):
        z[i + j] += x[i] * y[j]
    for d in (4, 3):  # x^d = -x^(d-3) * (g2*x^2 + g1*x + g0) mod g
        z[d - 1] -= z[d] * g.g2
        z[d - 2] -= z[d] * g.g1
        z[d - 3] -= z[d] * g.g0
    return (z[0] % p, z[1] % p, z[2] % p)


def pow_x_right_to_left(p, g, e):
    """x^e mod g by right-to-left square-and-multiply with full products."""
    result, base = (1, 0, 0), (0, 1, 0)
    while e:
        if e & 1:
            result = mul_mod_cubic(p, g, result, base)
        base = mul_mod_cubic(p, g, base, base)
        e >>= 1
    return result


@pytest.mark.parametrize("p", [3, 5, 10007, 2**61 - 1, 2**64 - 59])
def test_pow_x_ladder_matches_square_and_multiply(p):
    rng = random.Random(p)
    for _ in range(30):
        g = MonicCubic(rng.randrange(p), rng.randrange(p), rng.randrange(p))
        for e in (0, 1, 2, 3, p, p - 1, rng.randrange(1, p * p)):
            assert _pow_x_mod_cubic(p, g, e) == pow_x_right_to_left(p, g, e), (p, g, e)


def test_cubic_field_g_irreducible_at_large_primes():
    for p in (10007, 2**61 - 1):
        g = CubicField(p).g
        assert is_irreducible_cubic(p, g)


# --- extension field --------------------------------------------------------


def test_cubic_field_rejects_reducible_modulus():
    with pytest.raises(ParameterError):
        CubicField(5, MonicCubic(1, 0, 0))


def ext_mul_oracle(p, g, x, y):
    """Schoolbook multiply then long-divide by the modulus."""
    prod = [0] * 5
    for i in range(3):
        for j in range(3):
            prod[i + j] = (prod[i + j] + x[i] * y[j]) % p
    div = [g.g0, g.g1, g.g2, 1]
    for d in range(4, 2, -1):
        coef = prod[d]
        if coef:
            for k in range(4):
                prod[d - 3 + k] = (prod[d - 3 + k] - coef * div[k]) % p
    assert prod[3] == 0 and prod[4] == 0
    return (prod[0], prod[1], prod[2])


def test_ext_mul_against_schoolbook_oracle():
    rng = random.Random(412)
    for p in (5, 13, 10007):
        F = CubicField(p)
        for _ in range(4000):
            x = F.rand(rng)
            y = F.rand(rng)
            got = (x * y).coords
            assert got == ext_mul_oracle(p, F.g, x.coords, y.coords)


def test_gamma_powers_frozen():
    # gamma^3 = -x - 1 = (4, 4, 0) when the modulus is x^3 + x + 1 over F_5
    F = CubicField(5, MonicCubic(1, 1, 0))
    gamma = F.gamma
    assert (gamma * gamma * gamma).coords == (4, 4, 0)
    assert (F.elem(0, 1, 0) * F.elem(0, 0, 1)).coords == (4, 4, 0)


def test_ext_field_axioms_random():
    rng = random.Random(77)
    for p in (5, 10007):
        F = CubicField(p)
        one = F.one
        zero = F.zero
        for _ in range(3000):
            a, b, c = F.rand(rng), F.rand(rng), F.rand(rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert a + zero == a
            assert a * one == a
            assert a - a == zero
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)


def test_ext_inverse():
    rng = random.Random(5150)
    for p in (5, 13, 10007, 2**61 - 1):
        F = CubicField(p)
        n_checked = 0
        while n_checked < 500:
            a = F.rand(rng)
            if a == 0:
                continue
            assert a * (1 / a) == F.one
            assert (F.one / a) * a == F.one
            n_checked += 1
        with pytest.raises(ZeroDivisionError):
            1 / F.zero


def test_ext_inverse_and_mul_matrix_exhaustive_small():
    # every element under every irreducible monic cubic for p <= 7; the
    # nonzero ones also go through inv_many as one batch
    gamma, gamma2 = (0, 1, 0), (0, 0, 1)
    for p in (3, 5, 7):
        for g in map(MonicCubic._make, product(range(p), repeat=3)):
            if not is_irreducible_cubic(p, g):
                continue
            F = CubicField(p, g)
            nonzero = list(product(range(p), repeat=3))[1:]
            for x in nonzero:
                assert F.mul_matrix(x) == (x, F.mul(x, gamma), F.mul(x, gamma2))
                assert F.mul(x, F.inv(x)) == (1, 0, 0)
            assert F.mul_matrix((0, 0, 0)) == ((0, 0, 0),) * 3
            with pytest.raises(ZeroDivisionError):
                F.inv((0, 0, 0))
            batch = F.inv_many(np.array(nonzero).T)
            assert batch.dtype == np.int64
            assert list(map(tuple, batch.T.tolist())) == [F.inv(x) for x in nonzero]
            for at in (0, len(nonzero) // 2, len(nonzero)):
                with pytest.raises(ZeroDivisionError):
                    F.inv_many(np.array(nonzero[:at] + [(0, 0, 0)] + nonzero[at:]).T)


@pytest.mark.parametrize("p", [1073741789, 2**61 - 1])
def test_inv_many_exact_at_dtype_boundary(p):
    # 1073741789 is the largest prime <= 2^30, the last int64 regime.
    # Coordinates next to p maximise every product in the adjugate and the
    # product tree; batch lengths around powers of two exercise the padding.
    F = CubicField(p)
    dtype = np.int64 if p <= 1 << 30 else object
    rng = random.Random(p)
    near = [p - 1 - d for d in range(4)] + [0, 1]
    elems = [x for x in product(near, repeat=3) if x != (0, 0, 0)]
    elems += [F.rand(rng).coords for _ in range(40)]
    for size in (1, 2, 3, 31, 32, 33, len(elems)):
        got = F.inv_many(np.array(elems[:size], dtype=dtype).T)
        assert got.dtype == dtype and got.shape == (3, size)
        assert list(map(tuple, got.T.tolist())) == [F.inv(x) for x in elems[:size]]
    assert F.inv_many(np.zeros((3, 0), dtype=dtype)).shape == (3, 0)


@pytest.mark.parametrize("p", [3, 10007, 1073741789, 2**61 - 1])
def test_reduce_mod_matches_percent(p):
    # oracle: numpy's % (Python's % on object arrays), on zeros, p - 1,
    # multiples of p and their neighbours, the largest matmul entry
    # 3p^2 + p, negatives, and random blocks, with and without a scratch
    dtype = np.int64 if p < 1 << 30 else object
    rng = random.Random(p)
    top = 3 * p * p + p
    edges = [0, 1, p - 1, p, p + 1, 2 * p, p * p - 1, p * p, top - 1, top, -1, -p, -top]
    blocks = [
        np.zeros(7, dtype=dtype),
        np.full(1536, p - 1, dtype=dtype),
        np.array(edges, dtype=dtype),
        np.array([rng.randrange(-top, top + 1) for _ in range(1536)], dtype=dtype),
        np.array([rng.randrange(top + 1) for _ in range(3 * 97)], dtype=dtype).reshape(97, 3),
        np.zeros(0, dtype=dtype),
    ]
    for a in blocks:
        want = a % p
        for scratch in (None, np.empty_like(a)):
            got = a.copy()
            assert field.reduce_mod(got, p, scratch) is got  # in place
            assert got.dtype == a.dtype
            assert np.array_equal(got, want)
            assert ((0 <= got) & (got < p)).all()


def test_ext_int_embedding_and_mismatch():
    F5 = CubicField(5, MonicCubic(1, 1, 0))
    F7 = CubicField(7)
    a = F5.elem(2, 1, 0)
    assert (a + 3).coords == (0, 1, 0)
    assert (3 + a).coords == (0, 1, 0)
    assert (2 * a).coords == (4, 2, 0)
    assert F5.elem(3, 0, 0) == 3
    assert F5.elem(3, 1, 0) != 3
    # equal to an int only on its canonical coordinates, and hashed like it
    assert F5.elem(3, 0, 0) != 8
    assert hash(F5.elem(3, 0, 0)) == hash(3)
    assert len({F5.one, 1}) == 1
    b = F7.elem(2, 1, 0)
    assert a != b  # different fields never compare equal
    with pytest.raises(FieldMismatchError):
        a + b


def test_int_minus_ext_elem():
    F = CubicField(5, MonicCubic(1, 1, 0))
    a = F.elem(2, 1, 3)
    assert (3 - a).coords == (1, 4, 2)
    assert 3 - a == -(a - 3) and (3 - a) + a == 3
    with pytest.raises(TypeError):
        "3" - a


def test_decompose():
    F = CubicField(5, MonicCubic(1, 1, 0))
    e = F.elem(4, 0, 3)
    assert e.coords == (4, 0, 3)
    assert e.coords[0] == 4 and e.coords[1] == 0 and e.coords[2] == 3


def test_elem_canonicalizes_inputs():
    F = CubicField(5, MonicCubic(1, 1, 0))
    assert F.elem(-1, 7, 10).coords == (4, 2, 0)
    assert F.elem(9).coords == (4, 0, 0)
