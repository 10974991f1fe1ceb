import functools
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from rsdel.channel import enumerate_triples
from rsdel.code import CodeSpec, Message, build_code, encode, gamma_map, random_message
from rsdel.errors import BudgetExceededError, FieldMismatchError, ParameterError
from rsdel.field import CubicField
from rsdel import verify
from rsdel.verify import (
    AuditResult,
    audit_code,
    base_field_spec,
    check_injectivity,
    iter_message_pairs,
    lcs_length,
    sample_message_pairs,
    vandermonde_det,
)

from conftest import get_spec


def lcs_recursive(xs, ys):
    """Memoized recursion, independent oracle for the iterative DP."""
    xs, ys = list(xs), list(ys)

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == 0 or j == 0:
            return 0
        if xs[i - 1] == ys[j - 1]:
            return go(i - 1, j - 1) + 1
        return max(go(i - 1, j), go(i, j - 1))

    return go(len(xs), len(ys))


def lcs_dp(xs, ys):
    """Classic two-row dynamic program, reference for Hunt-Szymanski."""
    xs, ys = list(xs), list(ys)
    prev = [0] * (len(ys) + 1)
    for x in xs:
        cur = [0]
        for j, y in enumerate(ys, 1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(cur[-1], prev[j]))
        prev = cur
    return prev[-1]


def check_injectivity_reference(spec):
    """Dictionary enumeration of every increasing triple in lexicographic
    order, reference for check_injectivity: the first triple whose ratio
    value was seen before, with the triple that first had it."""
    ext, n = spec.ext, spec.n
    alpha = [spec.alpha_coords(i) for i in range(1, n + 1)]
    seen = {}
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            num = ext.sub(alpha[i], alpha[j])
            for k in range(j + 1, n):
                val = ext.mul(num, ext.inv(ext.sub(alpha[j], alpha[k])))
                prev = seen.get(val)
                if prev is not None:
                    return prev, (i + 1, j + 1, k + 1), val
                seen[val] = (i + 1, j + 1, k + 1)
    return None


def assert_matches_reference(spec):
    w = check_injectivity(spec)
    got = None if w is None else (w.triple_a, w.triple_b, w.value.coords)
    assert got == check_injectivity_reference(spec), spec
    if w is not None:
        assert w.value.field == spec.ext
    return got


def test_lcs_known_values():
    assert lcs_length("ABCBDAB", "BDCABA") == 4
    assert lcs_length("", "ABC") == 0
    assert lcs_length("ABC", "ABC") == 3
    assert lcs_length([1, 2, 3], [4, 5, 6]) == 0
    # n - LCS, the deletion distance of two equal-length words
    assert len("TORN") - lcs_length("TORN", "TRIM") == 2
    assert len("AAAA") - lcs_length("AAAA", "AAAA") == 0


def test_lcs_against_recursive_oracle():
    rng = random.Random(31)
    for _ in range(300):
        xs = [rng.randrange(4) for _ in range(rng.randrange(12))]
        ys = [rng.randrange(4) for _ in range(rng.randrange(12))]
        assert lcs_length(xs, ys) == lcs_recursive(xs, ys) == lcs_dp(xs, ys)


def test_lcs_against_dp_small_alphabets_and_permutations():
    rng = random.Random(32)
    for _ in range(300):
        alphabet = rng.randrange(1, 6)
        xs = [rng.randrange(alphabet) for _ in range(rng.randrange(40))]
        ys = [rng.randrange(alphabet) for _ in range(rng.randrange(40))]
        assert lcs_length(xs, ys) == lcs_dp(xs, ys)
    for _ in range(100):
        n = rng.randrange(1, 80)
        xs = rng.sample(range(n), n)
        ys = rng.sample(range(n + 5), n)  # a partial permutation of xs
        assert lcs_length(xs, ys) == lcs_dp(xs, ys)
        assert lcs_length(xs, sorted(xs)) == lcs_dp(xs, sorted(xs))
    assert lcs_length(range(50), range(50)) == 50
    assert lcs_length(range(50), range(49, -1, -1)) == 1


def test_lcs_shared_symbols_only():
    # disjoint words of unequal length share no symbol
    assert lcs_length([1, 2, 3, 4, 5], [6, 7]) == 0
    assert lcs_length(["a"], list("bcdefg")) == 0
    # one shared symbol at several positions in both words
    xs = [1, 9, 2, 9, 3, 9]
    ys = [9, 4, 9, 5, 6, 9, 9]
    assert lcs_length(xs, ys) == lcs_dp(xs, ys) == 3
    assert lcs_length(ys, xs) == 3
    # mostly private symbols around a few shared ones, in both orders
    rng = random.Random(36)
    for _ in range(300):
        shared = rng.randrange(1, 4)
        xs = [rng.randrange(shared) if rng.random() < 0.2 else ("x", i)
              for i in range(rng.randrange(60))]
        ys = [rng.randrange(shared) if rng.random() < 0.2 else ("y", j)
              for j in range(rng.randrange(60))]
        assert lcs_length(xs, ys) == lcs_dp(xs, ys)
        assert lcs_length(ys, xs) == lcs_dp(xs, ys)


def test_lcs_codeword_pairs_n150():
    spec = get_spec(10007, 150)
    ext = spec.ext
    rng = random.Random(33)
    words = [encode(spec, random_message(spec, rng)).symbol_tuples() for _ in range(6)]
    constants = [encode(spec, Message(ext.rand(rng), ext.zero)).symbol_tuples()
                 for _ in range(2)]
    words += constants
    # a shifted copy shares every symbol but the first with the original
    words.append(words[0][1:] + [words[1][0]])
    for xs, ys in itertools.product(words, repeat=2):
        assert lcs_length(xs, ys) == lcs_dp(xs, ys)
    assert lcs_length(constants[0], constants[0]) == 150
    assert lcs_length(constants[0], constants[1]) == 0
    assert lcs_length(words[0], words[-1]) == 149


def test_audit_matches_dp_audit_n150(monkeypatch):
    spec = get_spec(10007, 150)
    ext = spec.ext
    rng = random.Random(34)
    pairs = list(sample_message_pairs(spec, 24, seed=35))
    # constant words share at most one symbol with an injective word
    for _ in range(8):
        c = Message(ext.rand(rng), ext.zero)
        pairs.append((c, random_message(spec, rng)))
    m = random_message(spec, rng)
    c = encode(spec, m)[7]
    pairs.append((m, Message(c, ext.zero)))
    res = audit_code(spec, pairs)
    assert res.max_lcs <= 2
    monkeypatch.setattr(verify, "lcs_length", lcs_dp)
    assert audit_code(spec, pairs) == res


def test_audit_matches_dp_audit_base_field_and_constants(monkeypatch):
    # base_field_spec codewords m1 + m2*delta_i: adding m2 to m1 shifts the
    # word by one position, an LCS of n - 1 that the audit must name
    spec = base_field_spec(101, 12)
    rng = random.Random(37)
    pairs = list(sample_message_pairs(spec, 20, seed=38))
    for _ in range(4):
        m = random_message(spec, rng)
        pairs.append((m, Message(m.m1 + m.m2, m.m2)))
    good = get_spec(10007, 30)

    def constant_pairs(code_spec, count):
        # distinct constant words share no symbol
        ext, out = code_spec.ext, []
        while len(out) < count:
            a, b = ext.rand(rng), ext.rand(rng)
            if a != b:
                out.append((Message(a, ext.zero), Message(b, ext.zero)))
        return out

    audits = [(spec, pairs), (spec, constant_pairs(spec, 6)), (good, constant_pairs(good, 4))]
    results = [audit_code(s, ps) for s, ps in audits]
    assert [r.max_lcs for r in results] == [11, 0, 0]
    monkeypatch.setattr(verify, "lcs_length", lcs_dp)
    assert [audit_code(s, ps) for s, ps in audits] == results


def audit_per_pair(spec, pairs):
    """The audit one pair at a time, on symbol tuples of separate encodes."""
    best, witness, count = -1, None, 0
    for ma, mb in pairs:
        if ma == mb:
            raise ParameterError("equal pair")
        l = lcs_length(encode(spec, ma).symbol_tuples(), encode(spec, mb).symbol_tuples())
        count += 1
        if l > best:
            best, witness = l, (ma, mb)
    return AuditResult(best if count else 0, witness, count)


def mixed_pairs(spec, count, rng):
    """count distinct pairs: random pairs, constant-vs-constant pairs and
    pairs sharing a symbol; the last pair is shifted by one position, an
    LCS of n - 1 on base_field_spec, which thus first reaches its maximum
    in the last chunk."""
    ext, n, out = spec.ext, spec.n, []
    while len(out) < count:
        ma = random_message(spec, rng)
        if len(out) == count - 1:
            mb = Message(ma.m1 + ma.m2, ma.m2)
        elif len(out) % 3 == 1:
            ma, mb = Message(ma.m1, ext.zero), Message(ext.rand(rng), ext.zero)
        elif len(out) % 3 == 2:
            mb = Message(encode(spec, ma)[rng.randrange(n)], ext.zero)
        else:
            mb = random_message(spec, rng)
        if ma != mb:
            out.append((ma, mb))
    return out


# int64 codewords (p < 2^63, the uint64 kernel's at 2^61 - 1 and 2^63 - 25)
# and object ones (p >= 2^63, here also beyond 2^64, whose coordinates enter
# the keys by their low 63 bits)
@pytest.mark.parametrize("p", [10007, (1 << 61) - 1, (1 << 63) - 25, (1 << 64) - 59,
                               (1 << 80) + 13])
def test_chunked_audit_matches_per_pair_audit(p):
    n = 24
    chunk = verify._AUDIT_CHUNK_SYMBOLS // (2 * n)
    rng = random.Random(p % 1000)
    good, bad = get_spec(p, n), base_field_spec(p, n)
    for spec in (good, bad):
        for count in (0, 1, 2, chunk, chunk + 1):
            pairs = mixed_pairs(spec, count, rng)
            got = audit_code(spec, iter(pairs))
            assert got == audit_per_pair(spec, pairs)
            assert got.pairs_checked == count
            if spec is good:
                assert got.max_lcs <= 2
            elif count:
                assert got.max_lcs == n - 1 and got.witness == pairs[-1]


def count_lcs_calls(monkeypatch):
    """Patch verify.lcs_length to record each call's result; returns the list."""
    calls = []

    def recorded(xs, ys):
        calls.append(lcs_length(xs, ys))
        return calls[-1]

    monkeypatch.setattr(verify, "lcs_length", recorded)
    return calls


@pytest.mark.parametrize("p,n", [(10007, 150), (1073741789, 150), ((1 << 61) - 1, 64),
                                 ((1 << 64) - 59, 24), ((1 << 80) + 13, 24)])
def test_audit_of_random_pairs_calls_no_lcs(monkeypatch, p, n):
    # seeded random pairs share no symbol, so every pair is decided by its
    # sorted keys and none reaches the exact fallback
    def refuse(xs, ys):
        raise AssertionError("lcs_length called on a pair without a repeated key")

    spec = get_spec(p, n)
    pairs = sample_message_pairs(spec, 64, seed=43)
    monkeypatch.setattr(verify, "lcs_length", refuse)
    assert audit_code(spec, pairs) == AuditResult(0, pairs[0], 64)


@pytest.mark.parametrize("p,n", [(13, 12), (10007, 24), ((1 << 61) - 1, 24),
                                 ((1 << 64) - 59, 24)])
def test_audit_with_c0_keys_matches_per_pair_audit(monkeypatch, p, n):
    # with the key c0 alone every two symbols that share c0 collide, so
    # pairs with distinct symbols reach the exact fallback too and must
    # still read their exact LCS
    chunk = verify._AUDIT_CHUNK_SYMBOLS // (2 * n)
    audits = []
    for spec in (get_spec(p, n), base_field_spec(p, n)):
        rng = random.Random(p % 1000)
        for count in (0, 1, 2, chunk, chunk + 1):
            pairs = mixed_pairs(spec, count, rng)
            audits.append((spec, pairs, audit_per_pair(spec, pairs)))
    calls = count_lcs_calls(monkeypatch)
    for spec, pairs, want in audits:
        assert audit_code(spec, iter(pairs)) == want
    hashed_calls = len(calls)
    monkeypatch.setattr(verify, "_SYMBOL_KEY", np.array([1, 0, 0], dtype=np.uint64))
    for spec, pairs, want in audits:
        assert audit_code(spec, iter(pairs)) == want
    if p <= 10007:   # random symbols share c0 often only for small p
        assert len(calls) - hashed_calls > hashed_calls


def test_audit_witness_is_the_one_pair_sharing_a_symbol(monkeypatch):
    # seven pairs in one chunk, and only the middle one shares a symbol: its
    # second word takes the first word's symbol 5 at position 9 (LCS 1), so
    # it alone has a repeated key, and only when each pair sorts its own
    spec = get_spec(10007, 150)
    ext = spec.ext
    assert 7 <= verify._AUDIT_CHUNK_SYMBOLS // (2 * spec.n)
    pairs = sample_message_pairs(spec, 7, seed=47)
    ma = pairs[3][0]
    m2 = ext.rand(random.Random(48))
    pairs[3] = (ma, Message(encode(spec, ma)[4] - m2 * spec.ext.elem(*spec.alpha_coords(9)), m2))
    calls = count_lcs_calls(monkeypatch)
    assert audit_code(spec, pairs) == AuditResult(1, pairs[3], 7)
    assert calls == [1]


@pytest.mark.parametrize("p", [10007, (1 << 61) - 1])
def test_audit_errors_in_a_later_chunk(p):
    spec = get_spec(p, 150)
    chunk = verify._AUDIT_CHUNK_SYMBOLS // (2 * spec.n)
    pairs = sample_message_pairs(spec, chunk + 3, seed=41)
    m = pairs[0][0]
    foreign = Message(get_spec(7, 4).ext.one, get_spec(7, 4).ext.zero)
    with pytest.raises(ParameterError):
        audit_code(spec, pairs + [(m, m)])
    with pytest.raises(FieldMismatchError):
        audit_code(spec, pairs + [(m, foreign)])
    # within a chunk the pairs are checked in order, as one by one
    with pytest.raises(FieldMismatchError):
        audit_code(spec, pairs + [(foreign, m), (m, m)])
    with pytest.raises(ParameterError):
        audit_code(spec, pairs + [(m, m), (foreign, m)])


def test_iter_message_pairs_is_lazy_and_matches_sample():
    spec = get_spec(10007, 8)
    pairs = iter_message_pairs(spec, 1 << 60, seed=4)
    first = [next(pairs) for _ in range(50)]
    assert first == sample_message_pairs(spec, 50, seed=4)
    assert list(iter_message_pairs(spec, 0, seed=4)) == []


def test_check_injectivity_constructed_specs_pass():
    for p, n in ((5, 4), (7, 6), (11, 10), (13, 12), (10007, 40)):
        assert check_injectivity(get_spec(p, n)) is None


def test_check_injectivity_finds_base_field_collision():
    # dropping the square coordinate from the locators breaks injectivity
    spec = base_field_spec(5, 4)
    w = check_injectivity(spec)
    assert w is not None
    assert w.triple_a == (1, 2, 3)
    assert w.triple_b == (2, 3, 4)
    assert w.value.coords == (1, 0, 0)
    # the witness really does exhibit equal ratio values
    assert gamma_map(spec, *w.triple_a) == gamma_map(spec, *w.triple_b) == w.value


def test_check_injectivity_budget_refusal():
    with pytest.raises(BudgetExceededError):
        check_injectivity(get_spec(5, 4), budget=3)  # C(4,3) = 4


def test_check_injectivity_budget_refusal_allocates_nothing():
    spec = build_code(200003, 200000)  # C(n, 3) is about 1.3e15
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(BudgetExceededError):
            check_injectivity(spec)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 100_000


# Every p sorts one hashed int64 key per value.  The cases straddle the
# regime edges: the last prime below and the first above 2^21 and 2^31;
# 54794149, the last prime whose evaluation matrix is float64, which
# check_injectivity casts to int64 once;
# 1073741789 (int64 pair table) against 2^31 - 1 and 2147483659 (object pair
# table); 2^61 - 1; and 2^64 - 59 and 2^64 + 13, whose coordinates enter the
# keys by their low 63 bits.
_QUADRATIC_CASES = [(10007, 30), (2097143, 24), (2097169, 24), (54794149, 24),
                    (1073741789, 24), ((1 << 31) - 1, 20), (2147483659, 20),
                    ((1 << 61) - 1, 16), ((1 << 64) - 59, 10),
                    ((1 << 64) + 13, 10), (5, 4), (7, 6)]
_BASE_FIELD_CASES = [(5, 4), (7, 6), (11, 10), (13, 12), (10007, 25), (2097143, 14),
                     (2097169, 14), (54794149, 14), (1073741789, 14), ((1 << 31) - 1, 12),
                     (2147483659, 12), ((1 << 61) - 1, 10), ((1 << 64) - 59, 8),
                     ((1 << 64) + 13, 8)]


@pytest.mark.parametrize("p,n", _QUADRATIC_CASES)
def test_check_injectivity_matches_reference_quadratic(p, n):
    assert assert_matches_reference(get_spec(p, n)) is None


def test_check_injectivity_matches_reference_base_field():
    for p, n in _BASE_FIELD_CASES:
        assert assert_matches_reference(base_field_spec(p, n)) is not None


def random_point_specs():
    """300 specs with random distinct evaluation points over tiny fields,
    which collide often, at ranks spread over the whole enumeration."""
    rng = random.Random(36)
    for _ in range(300):
        p = rng.choice((5, 7))
        n = rng.randrange(3, p)
        rows = set()
        while len(rows) < n:
            rows.add(tuple(rng.randrange(p) for _ in range(3)))
        rows = sorted(rows, key=lambda _: rng.random())
        yield CodeSpec(p, CubicField(p).g, range(1, n + 1), alpha_rows=rows)


def test_check_injectivity_matches_reference_random_points():
    collided_at = set()
    for spec in random_point_specs():
        got = assert_matches_reference(spec)
        if got is not None:
            collided_at.add(got[1])
    assert len(collided_at) >= 10


def count_key_passes(monkeypatch):
    """Wrap verify._ratio_keys; the returned list counts its calls."""
    calls = []
    ratio_keys = verify._ratio_keys

    def counted(*args):
        calls.append(1)
        return ratio_keys(*args)

    monkeypatch.setattr(verify, "_ratio_keys", counted)
    return calls


@pytest.mark.parametrize("p", [10007, 2147483659])
def test_check_injectivity_good_code_takes_one_key_pass(monkeypatch, p):
    calls = count_key_passes(monkeypatch)
    assert check_injectivity(get_spec(p, 150)) is None
    assert len(calls) == 1


def test_check_injectivity_matches_reference_with_c0_keys(monkeypatch):
    # with the multiplier 0 every key is c0 alone, so distinct values share
    # keys all the time and only the exact check tells repeats apart
    monkeypatch.setattr(verify, "_KEY_MUL", 0)
    calls = count_key_passes(monkeypatch)
    assert assert_matches_reference(get_spec(10007, 30)) is None
    assert len(calls) == 2   # the keys repeated, yet the code certifies
    for p, n in _QUADRATIC_CASES:
        if n <= 24:
            assert assert_matches_reference(get_spec(p, n)) is None
    for p, n in _BASE_FIELD_CASES:
        assert assert_matches_reference(base_field_spec(p, n)) is not None
    assert sum(assert_matches_reference(spec) is not None
               for spec in random_point_specs()) >= 10


def horner_key(coords):
    """_ratio_keys' key of one ratio value, in Python ints: each coordinate
    by its low 63 bits (all of it below 2^63), then
    c0 + M*(c1 + M*c2) mod 2^64 as a signed int64."""
    c0, c1, c2 = (c & ((1 << 63) - 1) for c in coords)
    key = (c0 + verify._KEY_MUL * (c1 + verify._KEY_MUL * c2)) % (1 << 64)
    return key - (1 << 64) if key >= 1 << 63 else key


@pytest.mark.parametrize("p,n", [(10007, 40), (1073741789, 30), ((1 << 61) - 1, 16),
                                 ((1 << 64) - 59, 10)])
def test_ratio_keys_are_the_keys_of_the_ratio_map(monkeypatch, p, n):
    # the key of rank r is the key of gamma_map at the r-th increasing
    # triple in lexicographic order, with no decoder logic on either side
    spec = get_spec(p, n)
    got = []
    ratio_keys = verify._ratio_keys

    def recorded(*args):
        keys = ratio_keys(*args)
        got.append(keys.copy())   # check_injectivity sorts its keys in place
        return keys

    monkeypatch.setattr(verify, "_ratio_keys", recorded)
    assert check_injectivity(spec) is None
    want = [horner_key(gamma_map(spec, *pattern.kept).coords)
            for pattern in enumerate_triples(n)]
    assert len(got) == 1 and got[0].tolist() == want


@pytest.mark.parametrize("p", [10007, 1073741789, (1 << 61) - 1, (1 << 64) - 59])
def test_check_injectivity_finds_a_collision_at_the_last_rank(p):
    # random distinct points, then alpha_n solved so that
    # Gamma(n-2, n-1, n) = Gamma(1, 2, 3): the collision is the last
    # triple, read from the table's last block and last pair
    n = 20
    rng = random.Random(p)
    ext = CubicField(p)
    while True:
        points = []
        while len(points) < n - 1:
            x = ext.rand(rng)
            if x not in points:
                points.append(x)
        value = (points[0] - points[1]) / (points[1] - points[2])
        last = points[-1] - (points[-2] - points[-1]) / value
        if last not in points:
            break
    spec = CodeSpec(p, ext.g, range(1, n + 1),
                    alpha_rows=[x.coords for x in points + [last]])
    assert gamma_map(spec, n - 2, n - 1, n) == gamma_map(spec, 1, 2, 3) == value
    w = check_injectivity(spec)
    assert (w.triple_a, w.triple_b, w.value) == ((1, 2, 3), (n - 2, n - 1, n), value)
    assert_matches_reference(spec)


def test_check_injectivity_memory_bound():
    # one int64 key per triple sorted in place: 8 B per triple, plus the 1 B
    # per triple repeat mask and O(n^2) scratch, about 6 MB here; a sorted
    # copy of the keys would add 4.4 MB
    spec = get_spec(10007, 150)
    tracemalloc.start()
    try:
        assert check_injectivity(spec) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9_000_000


def test_vandermonde_zero_iff_equal_ratio():
    for spec in (get_spec(5, 4), base_field_spec(5, 4), get_spec(7, 6)):
        triples = [pat.kept for pat in enumerate_triples(spec.n)]
        zeros = 0
        for ta, tb in itertools.combinations_with_replacement(triples, 2):
            det = vandermonde_det(spec, ta, tb)
            equal = gamma_map(spec, *ta) == gamma_map(spec, *tb)
            assert (det == 0) == equal, (ta, tb)
            if det == 0:
                zeros += 1
        assert zeros >= len(triples)  # at least the diagonal


def test_vandermonde_detects_base_field_collision():
    spec = base_field_spec(5, 4)
    assert vandermonde_det(spec, (1, 2, 3), (2, 3, 4)) == 0
    assert vandermonde_det(spec, (1, 2, 3), (1, 2, 4)) != 0


def test_vandermonde_validates_triples():
    spec = get_spec(5, 4)
    for bad in ((1, 2), (2, 1, 3), (1, 1, 2), (1, 2, 3, 4)):
        with pytest.raises(ParameterError):
            vandermonde_det(spec, bad, (1, 2, 3))


def test_audit_small_code():
    spec = get_spec(5, 4)
    pairs = list(sample_message_pairs(spec, 300, seed=8))
    res = audit_code(spec, pairs)
    assert res.pairs_checked == 300
    assert res.max_lcs <= 2  # deletion correction radius n - 3
    assert res.witness is not None


def test_audit_exhaustive_pairs_small():
    # all distinct message pairs over (5, 4): LCS never exceeds 2
    spec = get_spec(5, 4)
    msgs = [Message(spec.ext.elem(*a), spec.ext.elem(*b))
            for a in itertools.product(range(5), repeat=3)
            for b in itertools.product(range(5), repeat=3)]
    rng = random.Random(17)
    sample = rng.sample(msgs, 200)
    pairs = [(ma, mb) for ma, mb in itertools.combinations(sample, 2)]
    res = audit_code(spec, pairs)
    assert res.max_lcs <= 2
    assert res.pairs_checked == len(pairs)


def test_audit_rejects_equal_pair():
    spec = get_spec(5, 4)
    m = Message(spec.ext.one, spec.ext.zero)
    with pytest.raises(ParameterError):
        audit_code(spec, [(m, m)])


def test_constant_vs_nonconstant_overlap():
    # a constant word and an injective word agree in at most one position
    spec = get_spec(7, 6)
    rng = random.Random(3)
    for _ in range(100):
        ma = Message(spec.ext.rand(rng), spec.ext.zero)
        mb = random_message(spec, rng)
        if mb.m2 == 0:
            continue
        lcs = lcs_length(encode(spec, ma).symbol_tuples(),
                         encode(spec, mb).symbol_tuples())
        assert lcs <= 1


def test_sample_message_pairs_deterministic():
    spec = get_spec(10007, 8)
    a = list(sample_message_pairs(spec, 50, seed=4))
    b = list(sample_message_pairs(spec, 50, seed=4))
    assert a == b
    assert len(a) == 50
    assert all(ma != mb for ma, mb in a)


def test_base_field_spec_shape():
    spec = base_field_spec(11, 10)
    assert spec.n == 10
    assert all(spec.alpha_coords(i)[1:] == (0, 0) for i in range(1, 11))
