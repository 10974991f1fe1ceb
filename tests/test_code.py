"""Code construction, encoding, interpolation, and the on-disk formats."""

import random
import tracemalloc

import numpy as np
import pytest

from rsdel import field
from rsdel.code import (
    CodeSpec,
    Message,
    build_code,
    encode,
    encode_many,
    gamma_map,
    interpolate,
    load_codeword,
    load_spec,
    load_symbols,
    lookup_delta,
    random_message,
    save_spec,
    save_symbols,
)
from rsdel.errors import (
    DegenerateInterpolationError,
    FieldMismatchError,
    ParameterError,
)
from rsdel.field import MonicCubic, find_irreducible_cubic

from conftest import get_spec


def test_build_code_frozen_small():
    spec = get_spec(5, 4)
    assert spec.p == 5
    assert spec.g == MonicCubic(1, 1, 0)
    assert spec.delta == (1, 2, 3, 4)
    # evaluation point i has coordinates (d, d^2 mod p, 0)
    assert [spec.alpha_coords(i) for i in range(1, 5)] == [
        (1, 1, 0),
        (2, 4, 0),
        (3, 4, 0),
        (4, 1, 0),
    ]


def test_build_code_custom_locators():
    spec = build_code(7, 3, delta_override=(2, 5, 6))
    assert spec.n == 3
    assert spec.alpha_coords(1) == (2, 4, 0)
    assert spec.alpha_coords(2) == (5, 4, 0)
    assert spec.alpha_coords(3) == (6, 1, 0)


def test_build_code_validation():
    with pytest.raises(ParameterError):
        build_code(5, 2)  # need at least 3 positions
    with pytest.raises(ParameterError):
        build_code(5, 5)  # at most p-1 distinct nonzero locators
    with pytest.raises(ParameterError):
        build_code(7, 3, delta_override=(1, 2, 2))
    with pytest.raises(ParameterError):
        build_code(7, 3, delta_override=(0, 1, 2))
    with pytest.raises(ParameterError):
        build_code(6, 4)


def test_build_code_validation_messages():
    # the O(n) delta checks keep their messages, and their order
    for p, n, delta, message in (
            (7, 3, (1, 2, 2), "delta entries must be distinct"),
            (7, 3, (0, 1, 2), "delta entries must be nonzero residues mod p"),
            (7, 3, (1, 2, 7), "delta entries must be nonzero residues mod p"),
            (7, 3, (2, 2, 9), "delta entries must be nonzero residues mod p"),
            (7, 7, None, "blocklength must satisfy 3 <= n <= p - 1, got n=7 p=7"),
            (6, 4, None, "modulus must be an odd prime, got 6"),
            (318665857834031151167461, 5, None,
             "modulus must be an odd prime, got 318665857834031151167461")):
        with pytest.raises(ParameterError) as exc:
            build_code(p, n, delta_override=delta)
        assert str(exc.value) == message


def test_build_code_refuses_oversized_n_unread():
    # n is checked before delta = (1, ..., n) exists: 10^6 entries took
    # 48.6 MB to refuse while they were built first
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="got n=1000000 p=5"):
            build_code(5, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with pytest.raises(ParameterError, match="delta must be a sequence"):
        CodeSpec(5, None, 5)


def count_checks(monkeypatch):
    """Record every primality test and every gcd irreducibility test."""
    primes, gcds = [], []
    is_prime, no_root = field.is_prime, field._no_root_by_gcd
    monkeypatch.setattr(field, "is_prime", lambda n: primes.append(n) or is_prime(n))
    monkeypatch.setattr(field, "_no_root_by_gcd",
                        lambda p, g: gcds.append((p, tuple(g))) or no_root(p, g))
    return primes, gcds


@pytest.mark.parametrize("p, gcd_tests", [
    (5, 1), (7, 0), (10007, 1), (1073741789, 1), (2147483659, 0),
    (2**61 - 1, 0), (2**64 + 13, 3)])
def test_build_code_runs_each_check_once(monkeypatch, p, gcd_tests):
    # one primality test; each cubic candidate tested at most once and the
    # winner never again (for p = 1 mod 3 the pure-cube family wins on
    # Euler tests alone, and takes no gcd test)
    primes, gcds = count_checks(monkeypatch)
    spec = build_code(p, 4)
    assert primes == [p]
    assert len(gcds) == len(set(gcds)) == gcd_tests
    if gcds:
        assert gcds[-1] == (p, tuple(spec.g))
    assert spec.g == CodeSpec(p, None, spec.delta).g == find_irreducible_cubic(p)


def test_load_spec_runs_each_check_once(monkeypatch, tmp_path):
    path = tmp_path / "code.spec"
    spec = get_spec(10007, 40)
    save_spec(spec, path)
    primes, gcds = count_checks(monkeypatch)
    assert load_spec(path) == spec
    assert primes == [10007]
    assert gcds == [(10007, tuple(spec.g))]


def test_lookup_delta():
    spec = build_code(7, 3, delta_override=(2, 5, 6))
    assert lookup_delta(spec, 2) == 1
    assert lookup_delta(spec, 5) == 2
    assert lookup_delta(spec, 6) == 3
    assert lookup_delta(spec, 3) is None
    assert lookup_delta(spec, 0) is None
    assert lookup_delta(spec, np.int64(5)) == 2
    # floats were truncated (2.9 found position 1) and strings parsed
    for d in (2.9, 5.0, "6", None):
        with pytest.raises(ParameterError):
            lookup_delta(spec, d)


def test_encode_frozen_example():
    # m = (0, 1): codeword symbol i is just alpha_i
    spec = get_spec(5, 4)
    m = Message(spec.ext.zero, spec.ext.one)
    cw = encode(spec, m)
    assert cw.symbol_tuples() == [(1, 1, 0), (2, 4, 0), (3, 4, 0), (4, 1, 0)]
    # m = (1+gamma, 0): constant word
    m = Message(spec.ext.elem(1, 1, 0), spec.ext.zero)
    assert encode(spec, m).symbol_tuples() == [(1, 1, 0)] * 4


@pytest.mark.parametrize("p, dtype", [(10007, np.int64), ((1 << 61) - 1, object)])
def test_symbol_tuples_match_row_tuples(p, dtype):
    spec = get_spec(p, 40)
    rng = random.Random(89)
    for _ in range(5):
        cw = encode(spec, random_message(spec, rng))
        assert cw.coords.dtype == dtype
        rows = cw.symbol_tuples()
        assert rows == list(map(tuple, cw.coords.tolist()))
        assert all(type(c) is int for row in rows for c in row)


def test_encode_linearity():
    rng = random.Random(88)
    for p, n in ((5, 4), (10007, 40)):
        spec = get_spec(p, n)
        for _ in range(40):
            ma = random_message(spec, rng)
            mb = random_message(spec, rng)
            summed = Message(ma.m1 + mb.m1, ma.m2 + mb.m2)
            ca, cb, cs = encode(spec, ma), encode(spec, mb), encode(spec, summed)
            for i in range(n):
                assert ca[i] + cb[i] == cs[i]


def test_encode_matches_scalar_evaluation():
    # oracle: evaluate m1 + m2*alpha_i one symbol at a time with ExtElem ops
    rng = random.Random(3)
    spec = get_spec(10007, 17)
    for _ in range(25):
        m = random_message(spec, rng)
        cw = encode(spec, m)
        for i in range(1, spec.n + 1):
            assert cw[i - 1] == m.m1 + m.m2 * spec.alpha_at(i)


@pytest.mark.parametrize("p", [1073741789, 2**61 - 1])
def test_encode_exact_at_dtype_boundary(p):
    # 1073741789 is the largest prime <= 2^30, the last int64 regime: a
    # matmul entry can reach 3p^2 + p, which must stay below 2^63 and be
    # reduced exactly.  The n largest residues put alpha's first coordinates
    # next to p, and a message of all p-1 coordinates maximises M_{m2}'s
    # inputs.  The alpha_rows spec (w = 3) has every coordinate within n of
    # p - 1, and its m2 is the first seeded draw whose M_{m2} has a column
    # of three entries above 0.97p, so that column's sums come near 3p^2 + p.
    n = 40
    quadratic = get_spec(p, n, tuple(range(p - n, p)))
    ext = quadratic.ext
    rows = [(p - 1 - i, p - 1 - 7 * i % n, p - 1 - 13 * i % n) for i in range(n)]
    offplane = CodeSpec(p, quadratic.g, range(1, n + 1), alpha_rows=rows)
    assert offplane._lifted.shape == (n, 4)
    rng = random.Random(5)
    while True:
        m2 = ext.rand(rng).coords
        columns = zip(*ext.mul_matrix(m2))
        if any(min(column) > 0.97 * p for column in columns):
            break
    m1 = (p - 1, p - 1, p - 1)
    for spec, m2 in ((quadratic, m1), (offplane, m2)):
        assert spec.ext.dtype == (np.int64 if p <= 1 << 30 else object)
        message = Message(ext.from_coords(m1), ext.from_coords(m2))
        if spec is offplane:
            raw = spec._lifted @ np.array((m1, *ext.mul_matrix(m2)), dtype=spec.ext.dtype)
            assert raw.max() > 2.8 * p * p
        got = encode(spec, message).symbol_tuples()
        assert {type(c) for sym in got for c in sym} == {int}  # never np.int64
        for i in range(1, n + 1):
            assert got[i - 1] == ext.add(m1, ext.mul(m2, spec.alpha_coords(i)))


@pytest.mark.parametrize("p", [10007, 2**61 - 1, 2**64 - 59])
def test_alpha_coords_are_python_ints(p):
    # int64 rows below 2^30, object rows above; both read as Python ints
    n = 12
    for spec in (get_spec(p, n), CodeSpec(p, get_spec(p, n).g, range(1, n + 1),
                                          alpha_rows=[(p - i, i, p - 2 * i) for i in range(1, n + 1)])):
        for i in range(1, n + 1):
            coords = spec.alpha_coords(i)
            assert type(coords) is tuple and len(coords) == 3
            assert all(type(c) is int for c in coords)
            assert coords == tuple(int(c) for c in spec._alpha[i - 1])
        for i in (0, n + 1):
            with pytest.raises(ParameterError):
                spec.alpha_coords(i)


@pytest.mark.parametrize("p", [10007, 2**61 - 1])
def test_encode_every_lifted_width(p):
    # oracle: m1 + m2*alpha_i by CubicField.mul, one symbol at a time, for
    # lifted widths 1 (base-field points), 2 (the quadratic map, and points
    # with a zero first coordinate, one of them zero) and 3
    rng = random.Random(4)
    n = 12
    g = get_spec(p, n).g
    cases = [
        (1, CodeSpec(p, g, range(1, n + 1), alpha_rows=[(d, 0, 0) for d in range(1, n + 1)])),
        (2, get_spec(p, n)),
        (2, CodeSpec(p, g, range(1, n + 1), alpha_rows=[(0, d, 0) for d in range(n)])),
        (3, CodeSpec(p, g, range(1, n + 1),
                     alpha_rows=[(rng.randrange(p), rng.randrange(p), d) for d in range(1, n + 1)])),
    ]
    for width, spec in cases:
        assert spec._lifted.shape == (n, 1 + width)
        ext = spec.ext
        for _ in range(5):
            m = random_message(spec, rng)
            got = encode(spec, m).symbol_tuples()
            for i in range(1, n + 1):
                want = ext.add(m.m1.coords, ext.mul(m.m2.coords, spec.alpha_coords(i)))
                assert got[i - 1] == want


def test_encode_rejects_foreign_message():
    spec5 = get_spec(5, 4)
    spec7 = get_spec(7, 4)
    m = Message(spec7.ext.zero, spec7.ext.one)
    with pytest.raises(FieldMismatchError):
        encode(spec5, m)


def test_interpolate_roundtrip():
    rng = random.Random(13)
    spec = get_spec(10007, 24)
    for _ in range(60):
        m = random_message(spec, rng)
        cw = encode(spec, m)
        i = rng.randrange(1, spec.n)
        j = rng.randrange(i + 1, spec.n + 1)
        got = interpolate(spec, i, j, cw[i - 1], cw[j - 1])
        assert got == m


def test_interpolate_rejects_repeated_position():
    spec = get_spec(5, 4)
    y = spec.ext.elem(1, 0, 0)
    with pytest.raises(DegenerateInterpolationError):
        interpolate(spec, 2, 2, y, y)


def test_gamma_map_frozen_example():
    spec = get_spec(5, 4)
    assert gamma_map(spec, 1, 2, 3).coords == (1, 3, 0)
    assert gamma_map(spec, 1, 2, 4) != gamma_map(spec, 1, 2, 3)


def test_gamma_map_requires_increasing():
    spec = get_spec(5, 4)
    for bad in ((2, 1, 3), (1, 1, 2), (1, 3, 3), (0, 1, 2), (2, 3, 5)):
        with pytest.raises(ParameterError):
            gamma_map(spec, *bad)


def test_gamma_map_injective_exhaustive_small():
    # cross-checked at scale by the dedicated checker; here just (11, 10)
    spec = get_spec(11, 10)
    seen = {}
    for i in range(1, 11):
        for j in range(i + 1, 11):
            for k in range(j + 1, 11):
                v = gamma_map(spec, i, j, k).coords
                assert v not in seen, (seen[v], (i, j, k))
                seen[v] = (i, j, k)
    assert len(seen) == 120


# --- files ------------------------------------------------------------------


def test_save_spec_golden_bytes(tmp_path):
    path = tmp_path / "code.spec"
    save_spec(get_spec(5, 4), path)
    assert path.read_text() == "p 5\ng 1 1 0\ndelta 1 2 3 4\n"


def test_spec_file_roundtrip(tmp_path):
    path = tmp_path / "code.spec"
    for spec in (get_spec(5, 4), get_spec(10007, 40), build_code(7, 3, delta_override=(2, 5, 6))):
        save_spec(spec, path)
        loaded = load_spec(path)
        assert loaded == spec
        assert loaded.g == spec.g and loaded.delta == spec.delta


def test_load_spec_rejects_malformed(tmp_path):
    cases = [
        "p 5\ng 1 1 0\n",  # missing delta
        "p 5\ng 1 1 0\ndelta 1 2 2 4\n",  # duplicate locator
        "p 5\ng 1 1 0\ndelta 0 1 2 3\n",  # zero locator
        "p 5\ng 1 0 0\ndelta 1 2 3 4\n",  # reducible modulus
        "p 6\ng 1 1 0\ndelta 1 2 3 4\n",  # composite
        "p 5\ng 1 1\ndelta 1 2 3 4\n",  # short g line
        "p 5\ng 1 1 0\ndelta 1 2 3 4\np 5\n",  # duplicate key
        "p 5\ng 1 1 0\ndelta 1 2 3 4\nextra 1\n",  # unknown key
        "p five\ng 1 1 0\ndelta 1 2 3 4\n",  # not an int
        "",
    ]
    path = tmp_path / "bad.spec"
    for text in cases:
        path.write_text(text)
        with pytest.raises(ParameterError):
            load_spec(path)


def test_symbols_file_roundtrip(tmp_path):
    rng = random.Random(21)
    spec = get_spec(10007, 12)
    cw = encode(spec, random_message(spec, rng))
    path = tmp_path / "word.sym"
    save_symbols(path, cw)
    assert load_codeword(path, spec) == cw
    # arbitrary-length symbol lists pass through load_symbols
    save_symbols(path, [cw[0], cw[4], cw[7]])
    got = load_symbols(path, spec)
    assert list(got) == [cw[0], cw[4], cw[7]]


def test_symbols_file_golden(tmp_path):
    spec = get_spec(5, 4)
    cw = encode(spec, Message(spec.ext.zero, spec.ext.one))
    path = tmp_path / "word.sym"
    save_symbols(path, cw)
    assert path.read_text() == "1,1,0\n2,4,0\n3,4,0\n4,1,0\n"


def test_load_symbols_validation(tmp_path):
    spec = get_spec(5, 4)
    path = tmp_path / "word.sym"
    for text in ("1,1\n", "1,1,5\n", "1,1,-1\n", "a,b,c\n", "1 1 0\n"):
        path.write_text(text)
        with pytest.raises(ParameterError):
            load_symbols(path, spec)
    path.write_text("1,1,0\n2,4,0\n")
    with pytest.raises(ParameterError):
        load_codeword(path, spec)  # wrong length for a codeword


def test_codeword_container_behaviour():
    spec = get_spec(5, 4)
    cw = encode(spec, Message(spec.ext.zero, spec.ext.one))
    assert len(cw) == 4
    assert list(cw)[2] == cw[2]
    assert cw[0].coords == (1, 1, 0)
    same = encode(spec, Message(spec.ext.zero, spec.ext.one))
    assert cw == same and hash(cw) == hash(same)


def test_spec_equality_and_hash():
    a = get_spec(5, 4)
    b = build_code(5, 4)
    assert a == b and hash(a) == hash(b)
    assert a != build_code(7, 4)


def test_direct_spec_construction_rejects_bad_alpha_rows():
    with pytest.raises(ParameterError):
        CodeSpec(5, MonicCubic(1, 1, 0), (1, 2, 3), alpha_rows=[(1, 0, 0), (1, 0, 0), (2, 0, 0)])


def test_spec_entries_must_be_integers():
    # floats were truncated, and an alpha entry of 2^63 or more overflowed
    # int64; now every entry is read through operator.index and reduced
    # mod p as a Python int
    g = find_irreducible_cubic(101)
    for delta in ((1.5, 2, 3), (1, "2", 3), (1, 2, 3.0)):
        with pytest.raises(ParameterError):
            CodeSpec(101, g, delta)
    for rows in ([(1.5, 0, 0), (2, 0, 0), (3, 0, 0)], [(1, 0, 0), (2, 0.0, 0), (3, 0, 0)],
                 [(1, 0, 0), (2, 0), (3, 0, 0)], [(1, 0, 0), (2, 0, 0)]):
        with pytest.raises(ParameterError):
            CodeSpec(101, g, (1, 2, 3), alpha_rows=rows)
    spec = CodeSpec(101, g, [np.int64(1), 2, 3],
                    alpha_rows=[(1, 0, 0), (2 + 101, -101, 0), (np.int64(3), 0, 101 << 70)])
    assert spec.delta == (1, 2, 3) and all(type(d) is int for d in spec.delta)
    assert [spec.alpha_coords(i) for i in (1, 2, 3)] == [(1, 0, 0), (2, 0, 0), (3, 0, 0)]
    g = get_spec(10007, 3).g
    big = (1 << 64) + 5
    spec = CodeSpec(10007, g, (1, 2, 3), alpha_rows=[(big, 0, 0), (0, big, 0), (0, 0, big)])
    assert spec._alpha.dtype == np.int64
    assert spec.alpha_coords(1) == (big % 10007, 0, 0)
    assert spec.alpha_coords(3) == (0, 0, big % 10007)
    with pytest.raises(ParameterError):
        CodeSpec(10007, g, (1, 2, 3), alpha_rows=[(big, 0, 0), (big + 10007, 0, 0), (1, 0, 0)])


@pytest.mark.parametrize("p, dtype", [(10007, np.int64), ((1 << 61) - 1, object)])
def test_encode_many_matches_encode(p, dtype):
    # oracle: encode, and m1 + m2*alpha_i by CubicField.mul one symbol at a
    # time, for the quadratic map and for points of lifted width 3
    rng = random.Random(90)
    n = 12
    spec = get_spec(p, n)
    wide = CodeSpec(p, spec.g, range(1, n + 1),
                    alpha_rows=[(rng.randrange(p), rng.randrange(p), d) for d in range(1, n + 1)])
    for s in (spec, wide):
        ext = s.ext
        for count in (0, 1, 3):
            messages = [random_message(s, rng) for _ in range(count)]
            words = encode_many(s, messages)
            assert words.shape == (n, count, 3) and words.dtype == dtype
            assert words.flags.c_contiguous
            for b, m in enumerate(messages):
                assert np.array_equal(words[:, b], encode(s, m).coords)
                for i in range(1, n + 1):
                    want = ext.add(m.m1.coords, ext.mul(m.m2.coords, s.alpha_coords(i)))
                    assert tuple(int(c) for c in words[i - 1, b]) == want
    other = get_spec(7, 4)
    good = random_message(spec, rng)
    with pytest.raises(FieldMismatchError):
        encode_many(spec, [good, Message(other.ext.one, other.ext.zero)])
