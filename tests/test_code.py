"""Code construction, encoding, interpolation, and the on-disk formats."""

import random
import tracemalloc

import numpy as np
import pytest

from rsdel import field
from rsdel.code import (
    CodeSpec,
    Codeword,
    Message,
    ReceivedWord,
    _lifted_product,
    build_code,
    encode,
    encode_many,
    gamma_map,
    interpolate,
    load_codeword,
    load_spec,
    load_symbols,
    random_message,
    save_spec,
    save_symbols,
)
from rsdel.errors import (
    DegenerateInterpolationError,
    FieldMismatchError,
    ParameterError,
)
from rsdel.channel import DeletionPattern, apply_deletions
from rsdel.field import CubicField, ExtElem, MonicCubic

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


def test_code_parameters_are_integers():
    # p, n and g's coefficients are read through operator.index: build_code
    # raised TypeError on a float p or n, and CodeSpec AttributeError on a
    # plain tuple g and TypeError on a float or string coefficient
    for p, n in ((7.5, 3), (7.0, 3), ("7", 3), (7, 3.0), (7, "3")):
        with pytest.raises(ParameterError, match="must be integers"):
            build_code(p, n)
    spec = build_code(np.int64(10007), np.int64(12))
    assert spec == get_spec(10007, 12) and type(spec.p) is int and spec.n == 12
    want = CodeSpec(7, MonicCubic(1, 1, 0), (1, 2, 3))
    for g in ((1, 1, 0), [1, 1, 0], np.array([1, 1, 0]), (8, -6, 7)):
        spec = CodeSpec(7, g, (1, 2, 3))
        assert spec == want and spec.g == MonicCubic(1, 1, 0) and type(spec.g) is MonicCubic
        assert encode(spec, Message(spec.ext.one, spec.ext.gamma)) \
            == encode(want, Message(want.ext.one, want.ext.gamma))
    for p, g in ((7.0, (1, 1, 0)), (7, (1.0, 1, 0)), (7, ("1", 1, 0)), (7, 5), (7, (1, 1)),
                 (7, (1, 1, 0, 0))):
        with pytest.raises(ParameterError):
            CodeSpec(p, g, (1, 2, 3))


def assert_split_operand(spec, rows):
    """spec._columns is field.split_product's operand for the rows
    [1 | x_lo | x_hi | ...]: the read-only (n, 1 + 2w) uint64 matrix L of
    those rows and its read-only float64 copy L/p, entry by entry."""
    halves, scaled = spec._columns
    shape = (spec.n, len(rows[0]))
    assert halves.dtype == np.uint64 and halves.shape == shape and not halves.flags.writeable
    assert scaled.dtype == np.float64 and scaled.shape == shape and not scaled.flags.writeable
    assert halves.tolist() == rows
    assert scaled.tolist() == [[float(h) / float(spec.p) for h in row] for row in rows]


@pytest.mark.parametrize("p", (1073741827, (1 << 61) - 1, (1 << 63) - 25))
def test_lifted_from_delta_matches_python_ints(p):
    # the quadratic map's columns are written straight from delta, d^2 mod
    # p in one Python-int pass; above 2^32, deltas near p square past 64 bits
    delta = sorted({d for d in (1, 2, 3, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, (p - 1) // 2,
                                p - 3, p - 2, p - 1) if d < p})
    spec = CodeSpec(p, None, delta)
    rows = [(1, d, d * d % p) for d in delta]
    assert (p < 1 << 32) or any(d * d >= 1 << 64 for d in delta)
    assert spec._lifted.dtype == np.uint64 and not spec._lifted.flags.writeable
    assert [tuple(int(c) for c in row) for row in spec._lifted.tolist()] == rows
    halves = [[1, d & 0xFFFFFFFF, d >> 32, d2 & 0xFFFFFFFF, d2 >> 32] for _, d, d2 in rows]
    assert_split_operand(spec, halves)
    assert [spec.alpha_coords(i) for i in range(1, len(delta) + 1)] == [(d, d2, 0) for _, d, d2 in rows]


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
    assert spec.g == CodeSpec(p, None, spec.delta).g == CubicField(p).g


def test_load_spec_runs_each_check_once(monkeypatch, tmp_path):
    path = tmp_path / "code.spec"
    spec = get_spec(10007, 40)
    save_spec(spec, path)
    primes, gcds = count_checks(monkeypatch)
    assert load_spec(path) == spec
    assert primes == [10007]
    assert gcds == [(10007, tuple(spec.g))]


def test_encode_frozen_example():
    # m = (0, 1): codeword symbol i is just alpha_i
    spec = get_spec(5, 4)
    m = Message(spec.ext.zero, spec.ext.one)
    cw = encode(spec, m)
    assert cw.symbol_tuples() == [(1, 1, 0), (2, 4, 0), (3, 4, 0), (4, 1, 0)]
    # m = (1+gamma, 0): constant word
    m = Message(spec.ext.elem(1, 1, 0), spec.ext.zero)
    assert encode(spec, m).symbol_tuples() == [(1, 1, 0)] * 4


@pytest.mark.parametrize("p, dtype", [(10007, np.int64), (54794149, np.int64),
                                      (54794197, np.int64), ((1 << 61) - 1, np.int64),
                                      ((1 << 64) - 59, object)])
def test_symbol_tuples_match_row_tuples(p, dtype):
    # codewords are int64 below 2^63 and Python ints from 2^63 on
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
            assert cw[i - 1] == m.m1 + m.m2 * spec.ext.elem(*spec.alpha_coords(i))


@pytest.mark.parametrize("p", [54794149, 54794197, 1073741789, 2**61 - 1, 2**63 - 25,
                               2**64 - 59])
def test_encode_exact_at_dtype_boundary(p):
    # 54794149 is the last prime below field._FLOAT64_PRODUCT_MAX_P, where
    # the evaluation matrix is float64, and 54794197 the first prime above
    # it, where it is int64; 1073741789 is the largest prime <= 2^30, the
    # last int64 regime.  2^61 - 1 and 2^63 - 25 (the largest prime below
    # 2^63) take the uint64 split kernel, and 2^64 - 59 Python ints; the
    # codewords are int64 below 2^63.  A matmul entry can reach
    # (p-1) + 3(p-1)^2, which must stay exact and be reduced exactly (the
    # split kernel folds one sum from (-p, p) instead).  The n largest
    # residues put alpha's first coordinates next to p, and a message of
    # all p-1 coordinates maximises M_{m2}'s inputs.  The alpha_rows spec (w = 3)
    # has every coordinate within n of p - 1 and first point
    # (p-1, p-1, p-1); its m2 is solved so that column 0 of M_{m2} is all
    # p - 1, and its m1 starts with p - 2, so the product's first entry is
    # (p-2) + 3(p-1)^2: odd, and 1 below the largest.  At 54794197 that
    # entry lies above 2^53, where float64 holds even integers only, so an
    # odd one shows any rounding.
    n = 40
    quadratic = get_spec(p, n, tuple(range(p - n, p)))
    ext = quadratic.ext
    rows = [(p - 1 - i, p - 1 - 7 * i % n, p - 1 - 13 * i % n) for i in range(n)]
    offplane = CodeSpec(p, quadratic.g, range(1, n + 1), alpha_rows=rows)
    assert offplane._lifted.shape == (n, 4)
    h0, h2 = -ext.g.g0 % p, -ext.g.g2 % p
    t = (p - 1) * pow(h0, -1, p) % p   # column 0 of M_{m2} is (m2_0, h0*m2_2, h0*(m2_1 + h2*m2_2))
    solved = (p - 1, t * (1 - h2) % p, t)
    assert [row[0] for row in ext.mul_matrix(solved)] == [p - 1] * 3
    top = (p - 1, p - 1, p - 1)
    odd = (p - 2, p - 1, p - 1)
    entry = odd[0] + sum(a * row[0] for a, row in zip(offplane.alpha_coords(1),
                                                      ext.mul_matrix(solved)))
    assert entry == (p - 2) + 3 * (p - 1) ** 2 and entry % 2 == 1
    assert (entry > 1 << 53) == (p > 54794149)
    want_lifted = {54794149: np.float64, 54794197: np.int64, 1073741789: np.int64,
                   2**64 - 59: object}.get(p, np.uint64)
    want_symbols = np.int64 if p < 1 << 63 else object
    for spec, m1, m2 in ((quadratic, top, top), (offplane, odd, solved)):
        assert spec.ext.dtype == (np.int64 if p <= 1 << 30 else object)
        assert spec._lifted.dtype == want_lifted and not spec._lifted.flags.writeable
        message = Message(ext.elem(*m1), ext.elem(*m2))
        codeword = encode(spec, message)
        assert codeword.coords.dtype == want_symbols
        got = codeword.symbol_tuples()
        assert {type(c) for sym in got for c in sym} == {int}  # never np.int64
        for i in range(1, n + 1):
            assert got[i - 1] == ext.add(m1, ext.mul(m2, spec.alpha_coords(i)))
        words = encode_many(spec, [message, message])
        assert words.dtype == want_symbols and words.flags.c_contiguous
        assert np.array_equal(words[:, 0], codeword.coords)
        assert np.array_equal(words[:, 1], codeword.coords)


@pytest.mark.parametrize("p", [10007, 2**61 - 1, 2**64 - 59])
def test_alpha_coords_are_python_ints(p):
    # int64 rows below 2^30, object rows above; both read as Python ints
    n = 12
    quadratic = [(i, i * i % p, 0) for i in range(1, n + 1)]
    rows = [(p - i, i, p - 2 * i) for i in range(1, n + 1)]
    for spec, points in ((get_spec(p, n), quadratic),
                         (CodeSpec(p, get_spec(p, n).g, range(1, n + 1), alpha_rows=rows), rows)):
        for i in range(1, n + 1):
            coords = spec.alpha_coords(i)
            assert type(coords) is tuple and len(coords) == 3
            assert all(type(c) is int for c in coords)
            assert coords == points[i - 1]
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


@pytest.mark.parametrize("p", [10007, 2**61 - 1, 2**64 - 59])
def test_interpolate_roundtrip_alpha_rows(p):
    # interpolate reads its points through alpha_coords, whose (d, d^2, 0)
    # shortcut from delta serves quadratic-map specs only: on an alpha_rows
    # spec, the off-plane one of test_encode_exact_at_dtype_boundary and
    # one holding the parabola's points under other deltas, every pair of
    # positions recovers the message from the spec's own points
    n = 12
    g = get_spec(p, n).g
    offplane = CodeSpec(p, g, range(1, n + 1),
                        alpha_rows=[(p - 1 - i, p - 1 - 7 * i % n, p - 1 - 13 * i % n)
                                    for i in range(n)])
    shuffled = CodeSpec(p, g, range(1, n + 1),
                        alpha_rows=[(d, d * d % p, 0) for d in range(n + 1, 1, -1)])
    rng = random.Random(p % 1009)
    for spec in (offplane, shuffled):
        assert not spec.from_quadratic_map
        assert spec.alpha_coords(1) != (1, 1, 0)
        for _ in range(4):
            m = random_message(spec, rng)
            cw = encode(spec, m)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert interpolate(spec, i, j, cw[i - 1], cw[j - 1]) == m


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


def test_load_spec_refuses_a_p_line_of_two_values(tmp_path):
    path = tmp_path / "two-p.spec"
    path.write_text("p 5 7\ng 1 1 0\ndelta 1 2 3 4\n")
    with pytest.raises(ParameterError, match="key p takes exactly one value"):
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


@pytest.mark.parametrize("p", (10007, (1 << 61) - 1, (1 << 64) - 59))
def test_codeword_constructor_checks_coordinates(p):
    # the public constructor refuses what encode never makes: a coordinate
    # outside [0, p) (also past int64), a non-integer, another shape
    spec = get_spec(p, 4)
    rows = [[1, 2, 3], [0, 0, 0], [p - 1, 1, 0], [4, p - 1, p - 2]]
    for coords in (rows, np.array(rows, dtype=object), [tuple(r) for r in rows]):
        cw = Codeword(spec, coords)
        assert cw.coords.dtype == spec.ext.symbol_dtype and cw.coords.tolist() == rows
        assert not cw.coords.flags.writeable
    heads = ([p, 0, 0], [-1, 0, 0], [max(p, 1 << 63), 0, 0], [1 << 70, 0, 0], [1.0, 0, 0],
             ["1", 0, 0], [1, 2], [1, [2], 3])
    for bad in [[head] + rows[1:] for head in heads] + [rows[:3], [r[:2] for r in rows],
                                                        None, "abcd"]:
        with pytest.raises(ParameterError):
            Codeword(spec, bad)


def test_received_word_refuses_coordinates_without_a_length():
    ext = get_spec(5, 4).ext
    with pytest.raises(ParameterError, match="received symbols must have three coordinates"):
        ReceivedWord((ext.one, ExtElem(ext, 7)))


def test_codeword_refuses_rows_numpy_cannot_stack():
    # two blocks of rows of different widths: numpy raises ValueError
    # rather than making a ragged object array
    spec = get_spec(5, 4)
    blocks = [np.zeros((2, 3), dtype=np.int64), np.zeros((2, 4), dtype=np.int64)]
    with pytest.raises(ParameterError, match=r"codeword must have shape \(4, 3\)"):
        Codeword(spec, blocks)


def test_received_word_container_behaviour():
    spec = get_spec(11, 10)
    ext = spec.ext
    cw = encode(spec, Message(ext.elem(1, 2, 3), ext.elem(4, 5, 6)))
    word = apply_deletions(cw, DeletionPattern((2, 5, 7, 9)))
    assert type(word) is ReceivedWord and word.field is ext and len(word) == 4
    assert not word.coords.flags.writeable
    assert word.coords.tolist() == [list(cw[i].coords) for i in (1, 4, 6, 8)]
    assert tuple(word) == (cw[1], cw[4], cw[6], cw[8]) and word[2] == cw[6]
    assert word.symbol_tuples() == [cw[i].coords for i in (1, 4, 6, 8)]
    assert type(word[1:3]) is ReceivedWord and tuple(word[1:3]) == (cw[4], cw[6])
    built = ReceivedWord(tuple(word))
    assert built == word and hash(built) == hash(word) and built != word[:3]
    assert built != tuple(word) and repr(word) == "ReceivedWord(m=4, p=11)"
    kept = apply_deletions(word, DeletionPattern((1, 3)))
    assert type(kept) is ReceivedWord and kept == ReceivedWord((cw[1], cw[6]))
    assert len(apply_deletions(cw, DeletionPattern(()))) == 0
    with pytest.raises(ParameterError):
        ReceivedWord(())
    with pytest.raises(ParameterError):
        ReceivedWord((ext.one, ExtElem(ext, (1, 2))))
    with pytest.raises(FieldMismatchError):
        ReceivedWord((ext.one, build_code(13, 4).ext.one))


def test_codeword_container_behaviour():
    spec = get_spec(5, 4)
    cw = encode(spec, Message(spec.ext.zero, spec.ext.one))
    assert len(cw) == 4
    assert list(cw)[2] == cw[2]
    assert cw[0].coords == (1, 1, 0)
    same = encode(spec, Message(spec.ext.zero, spec.ext.one))
    assert cw == same and hash(cw) == hash(same)
    # a codeword is the ReceivedWord of all n symbols: a slice is a word
    assert isinstance(cw, ReceivedWord) and cw.field is spec.ext
    assert type(cw[1:3]) is ReceivedWord
    assert cw[1:3] == apply_deletions(cw, DeletionPattern((2, 3)))


def test_spec_equality_and_hash():
    a = get_spec(5, 4)
    b = build_code(5, 4)
    assert a == b and hash(a) == hash(b)
    assert a != build_code(7, 4)
    # equal p, g and delta, other points (compared through _lifted)
    c = CodeSpec(5, a.g, a.delta, alpha_rows=[(d, 0, 0) for d in a.delta])
    assert a != c and c != a
    # the parabola's own points given as alpha_rows: one _lifted, but both
    # decoders refuse that spec, so it equals neither the built spec nor
    # its codewords theirs
    built = build_code(11, 6)
    rows = CodeSpec(11, built.g, built.delta,
                    alpha_rows=[built.alpha_coords(i) for i in range(1, 7)])
    assert np.array_equal(rows._lifted, built._lifted)
    assert built != rows and rows != built and hash(built) != hash(rows)
    m = Message(built.ext.one, built.ext.gamma)
    assert encode(built, m) != encode(rows, m) and encode(rows, m) == encode(rows, m)


def test_direct_spec_construction_rejects_bad_alpha_rows():
    with pytest.raises(ParameterError):
        CodeSpec(5, MonicCubic(1, 1, 0), (1, 2, 3), alpha_rows=[(1, 0, 0), (1, 0, 0), (2, 0, 0)])


def test_spec_entries_must_be_integers():
    # floats were truncated, and an alpha entry of 2^63 or more overflowed
    # int64; now every entry is read through operator.index and reduced
    # mod p as a Python int
    g = CubicField(101).g
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
    assert spec._lifted[:, 1:].tolist() == [[big % 10007, 0, 0], [0, big % 10007, 0],
                                            [0, 0, big % 10007]]
    assert spec.alpha_coords(1) == (big % 10007, 0, 0)
    assert spec.alpha_coords(3) == (0, 0, big % 10007)
    with pytest.raises(ParameterError):
        CodeSpec(10007, g, (1, 2, 3), alpha_rows=[(big, 0, 0), (big + 10007, 0, 0), (1, 0, 0)])


@pytest.mark.parametrize("p, dtype", [(10007, np.int64), (54794149, np.int64),
                                      (54794197, np.int64), ((1 << 61) - 1, np.int64),
                                      ((1 << 64) - 59, object)])
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


# 2^31 - 1, whose residues have no high half; 2^32 + 15, the first prime
# above 2^32, where x_hi first is nonzero; 2^61 - 1; 2^62 + 135, the first
# prime above 2^62, where r + p can first pass 2^63; and 2^63 - 25, the last
# prime below 2^63, where x_hi and u take their full range and r + p comes
# closest to 2^64
SPLIT_PRIMES = ((1 << 31) - 1, (1 << 32) + 15, (1 << 61) - 1, (1 << 62) + 135, (1 << 63) - 25)


def split_edges(p):
    """The uint64 kernel's edge residues: 0, 1, 2, p - 2, p - 1, (p - 1)/2
    and the 32-bit boundary 2^32 - 1, 2^32, 2^32 + 1, where x_lo wraps and
    x_hi changes."""
    return sorted({v % p for v in (0, 1, 2, p - 2, p - 1, (p - 1) // 2,
                                   2**32 - 1, 2**32, 2**32 + 1)})


def lifted_reference(spec, rhs):
    """[1 | alpha[:, :w]] @ rhs mod p in Python ints, row by row."""
    p, w = spec.p, spec._lifted.shape[1] - 1
    head, *rows = rhs
    return [[(head[k] + sum(a * row[k] for a, row in zip(spec.alpha_coords(i)[:w], rows))) % p
             for k in range(len(head))] for i in range(1, spec.n + 1)]


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_split_kernel_exact_on_edges(p):
    # the uint64 kernel against Python ints, with every edge residue in
    # every column and every scalar: the product itself, one message
    # (encode), B messages (encode_many) and the search's 3-scalar column
    edges = split_edges(p)
    e = len(edges)
    quadratic = get_spec(p, e - 1, tuple(edges[1:]))   # columns d and d^2
    wide = CodeSpec(p, quadratic.g, range(1, e**3 + 1),   # w = 3, every edge triple
                    alpha_rows=[(a, b, c) for a in edges for b in edges for c in edges])
    rng = random.Random(p)
    for spec in (quadratic, wide):
        assert spec._lifted.dtype == np.uint64
        ext, w = spec.ext, spec._lifted.shape[1] - 1
        assert_split_operand(spec, [[1, *(h for x in spec.alpha_coords(i)[:w]
                                          for h in (x & 0xFFFFFFFF, x >> 32))]
                                    for i in range(1, spec.n + 1)])
        # every row of rhs holds every edge residue, in e^2 columns shifted
        # against each other, so each meets every column entry of the spec
        rhs = [[edges[(k + r * (k // e)) % e] for k in range(e * e)] for r in range(1 + w)]
        got = _lifted_product(spec, rhs)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.tolist() == lifted_reference(spec, rhs)
        for q in [(v,) * (1 + w) for v in edges] + [rng.choices(edges, k=1 + w)
                                                    for _ in range(20)]:
            column = _lifted_product(spec, q)
            assert column.dtype == np.int64 and column.shape == (spec.n,)
            want = lifted_reference(spec, [(v,) for v in q])
            assert column.tolist() == [row[0] for row in want]
        messages = [Message(ext.elem(*c1), ext.elem(*c2)) for c1, c2 in
                    [((v, v, v), (v, v, v)) for v in edges]
                    + [(rng.choices(edges, k=3), rng.choices(edges, k=3)) for _ in range(12)]]
        words = encode_many(spec, messages)
        assert words.dtype == np.int64 and words.shape == (spec.n, len(messages), 3)
        for b, m in enumerate(messages):
            cw = encode(spec, m)
            want = [ext.add(m.m1.coords, ext.mul(m.m2.coords, spec.alpha_coords(i)))
                    for i in range(1, spec.n + 1)]
            assert cw.symbol_tuples() == want
            assert words[:, b].tolist() == [list(t) for t in want]


@pytest.mark.parametrize("p, lifted, symbols", [
    (1073741789, np.int64, np.int64), ((1 << 31) - 1, np.uint64, np.int64),
    ((1 << 63) - 25, np.uint64, np.int64), ((1 << 64) - 59, object, object)])
def test_lifted_and_codeword_dtype_boundary(tmp_path, p, lifted, symbols):
    # 1073741789 is the last prime below 2^30 (int64 matmul) and 2^31 - 1 a
    # prime above it (the uint64 split kernel), 2^63 - 25 the last prime below
    # 2^63 and 2^64 - 59 a prime above it (Python ints).  Codewords take one
    # symbol dtype per spec however they are built, so equal codewords
    # hash equally
    n = 12
    spec = get_spec(p, n)
    assert spec._lifted.dtype == lifted and spec.ext.symbol_dtype == symbols
    if lifted == np.uint64:
        assert_split_operand(spec, [[1, i, 0, i * i % p & 0xFFFFFFFF, i * i % p >> 32]
                                    for i in range(1, n + 1)])
    else:
        assert spec._columns is None
    m = random_message(spec, random.Random(p % 1000))
    cw = encode(spec, m)
    assert cw.coords.dtype == symbols and encode_many(spec, [m, m]).dtype == symbols
    path = tmp_path / "word.txt"
    save_symbols(path, cw)
    for other in (load_codeword(path, spec), Codeword(spec, cw.symbol_tuples()),
                  Codeword(spec, np.array(cw.symbol_tuples(), dtype=object))):
        assert other.coords.dtype == symbols
        assert other == cw and hash(other) == hash(cw)
    # the hash of a codeword is that of its spec's p and delta and its
    # coordinates, and a codeword never equals a ReceivedWord, either way
    rows = cw.coords.tobytes() if symbols is np.int64 else tuple(map(tuple, cw.coords))
    assert hash(cw) == hash((p, spec.delta, rows))
    word = ReceivedWord._unchecked(cw.field, cw.coords)
    assert cw != word and word != cw and not cw == word and not word == cw

