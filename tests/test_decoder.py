"""Decoder behaviour: ratio extraction, the closed form, both search paths.

The closed form is checked four ways: a worked small-field example, a sympy
symbolic identity (its output satisfies the defining coordinate system for
arbitrary inputs), a sympy proof that it never degenerates on a true triple,
and exhaustive enumeration of locator triples and ratios over small fields.
"""

import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from rsdel import decoder
from rsdel.channel import DeletionPattern, apply_deletions, enumerate_triples
from rsdel.code import (
    CodeSpec,
    Message,
    build_code,
    encode,
    gamma_map,
    interpolate,
    random_message,
)
from rsdel.decoder import (
    OPS_SEARCH_PER_TRIPLE,
    OPS_SEARCH_ROW_PER_ENTRY,
    OPS_SEARCH_SETUP_PER_POS,
    PATH_CLOSED_FORM,
    PATH_CONSTANT,
    PATH_FALLBACK,
    DecodeInstrumentation,
    ReceivedTriple,
    _scan_ops,
    _search,
    _search_columns,
    _search_triple,
    compute_beta,
    decode_cubic,
    decode_linear,
    decode_received,
    extract_coefficients,
    solve_deltas,
)
from rsdel.errors import (
    FieldMismatchError,
    InconsistentReceivedWordError,
    ParameterError,
    RSDelError,
    UnrecognizedReceivedWordError,
)
from rsdel.field import (
    CubicField,
    ExtElem,
    MonicCubic,
    PrimeField,
    find_irreducible_cubic,
    is_irreducible_cubic,
)
from rsdel.verify import base_field_spec

from conftest import get_spec, is_checked_pattern


def received(spec, m, kept):
    cw = encode(spec, m)
    return ReceivedTriple(*apply_deletions(cw, DeletionPattern(kept)))


def test_compute_beta_worked_example():
    spec = get_spec(5, 4)
    y = received(spec, Message(spec.ext.zero, spec.ext.one), (1, 2, 3))
    beta = compute_beta(y)
    assert beta.coords == (1, 3, 0)
    assert beta == gamma_map(spec, 1, 2, 3)


def test_compute_beta_constant_is_none():
    spec = get_spec(5, 4)
    e = spec.ext.elem(3, 0, 0)
    assert compute_beta(ReceivedTriple(e, e, e)) is None


def test_compute_beta_rejects_two_equal():
    spec = get_spec(5, 4)
    e, f = spec.ext.elem(3, 0, 0), spec.ext.elem(1, 2, 0)
    for y in ((e, e, f), (f, e, e), (e, f, e)):
        with pytest.raises(InconsistentReceivedWordError):
            compute_beta(ReceivedTriple(*y))


def test_extract_coefficients_worked_example():
    spec = get_spec(5, 4)
    beta = spec.ext.elem(1, 3, 0)
    assert extract_coefficients(beta) == (0, 3, 1, 3, 1, 0)


def test_extract_coefficients_formula():
    # r, s, t admit a direct formula in the modulus coefficients
    rng = random.Random(2024)
    for p in (5, 10007):
        spec = get_spec(p, 4)
        g = spec.g
        for _ in range(300):
            beta = spec.ext.rand(rng)
            a, b, c, r, s, t = extract_coefficients(beta)
            assert (c, b, a) == beta.coords
            assert r == (b - a * g.g2) % p
            assert s == (c - a * g.g1) % p
            assert t == (-a * g.g0) % p


def test_solve_deltas_worked_example():
    assert solve_deltas(PrimeField(5), (0, 3, 1, 3, 1, 0)) == (1, 2, 3)


def test_solve_deltas_needs_fallback():
    # coefficients no locator triple produces
    pf = PrimeField(5)
    assert solve_deltas(pf, (1, 2, 3, 0, 0, 0)) is None  # r = 0
    assert solve_deltas(pf, (0, 1, 0, 1, 0, 0)) is None  # denominator = 0


def test_solve_deltas_symbolic_identity():
    """The closed form satisfies its defining system for arbitrary inputs.

    With beta = a*g^2 + b*g + c and beta*g = r*g^2 + s*g + t, locators
    (d1, d2, d3) explain beta exactly when

        p0 = d1 - d2 + c*(d3 - d2) + t*(d3^2 - d2^2) = 0
        p1 = d1^2 - d2^2 + b*(d3 - d2) + s*(d3^2 - d2^2) = 0
        p2 = a*(d3 - d2) + r*(d3^2 - d2^2) = 0

    All three must vanish identically as rational functions once the closed
    form is substituted, over any field, for any modulus.
    """
    sp = pytest.importorskip("sympy")
    a, b, c, g0, g1, g2 = sp.symbols("a b c g0 g1 g2")
    r = b - a * g2
    s = c - a * g1
    t = -a * g0
    theta = a / r
    tt = t * theta
    den = 2 * (c + c * c - 2 * c * tt + tt * (tt - 1))
    num = b - theta * (c * c + s - 2 * c * tt + tt * tt)
    d2 = num / den
    d3 = -d2 - theta
    d1 = d2 * (1 + 2 * c - 2 * tt) + theta * (c - tt)
    p2 = a * (d3 - d2) + r * (d3**2 - d2**2)
    p0 = d1 - d2 + c * (d3 - d2) + t * (d3**2 - d2**2)
    p1 = d1**2 - d2**2 + b * (d3 - d2) + s * (d3**2 - d2**2)
    for expr in (p0, p1, p2):
        assert sp.simplify(sp.together(expr)) == 0
    # the rejected quadratic root would collapse the last two locators
    alt_d2 = -a / (2 * r)
    assert sp.simplify((-alt_d2 - theta) - alt_d2) == 0


def test_closed_form_never_degenerates_on_true_triples():
    """On the coefficients of a true triple, r != 0 and den == 2*u*(u + 1).

    p0, p1, p2 are linear in (a, b, c) once r, s, t are written through the
    modulus; their matrix is multiplication by alpha_3 - alpha_2 != 0, so the
    generic solution below specializes to every odd p and irreducible g.
    With u = (d2 - d1)/(d3 - d2) and u + 1 = (d3 - d1)/(d3 - d2), distinct
    locators make den nonzero.
    """
    sp = pytest.importorskip("sympy")
    d1, d2, d3, a, b, c, g0, g1, g2 = sp.symbols("d1 d2 d3 a b c g0 g1 g2")

    def system(a, b, c):
        r, s, t = b - a * g2, c - a * g1, -a * g0
        return (d1 - d2 + c * (d3 - d2) + t * (d3**2 - d2**2),
                d1**2 - d2**2 + b * (d3 - d2) + s * (d3**2 - d2**2),
                a * (d3 - d2) + r * (d3**2 - d2**2))

    (sol,) = sp.solve(system(a, b, c), [a, b, c], dict=True)
    A, B, C = sol[a], sol[b], sol[c]
    r, t = B - A * g2, -A * g0
    # p2 gives a = -r*(d2 + d3): r = 0 forces a = 0 and b = r + a*g2 = 0
    assert sp.simplify(A + r * (d2 + d3)) == 0
    # ... so beta = c lies in F_p, and then p0 and p1 force d1 in {d2, d3}
    p0, p1, _ = system(0, 0, c)
    (c_fp,) = sp.solve(p0, c)
    assert sp.simplify(p1.subs(c, c_fp) - (d1 - d2) * (d1 - d3)) == 0
    # r != 0, theta = a/r, and the d2 denominator factors as 2*u*(u + 1)
    tt = t * A / r
    den = 2 * (C + C * C - 2 * C * tt + tt * (tt - 1))
    u = (d2 - d1) / (d3 - d2)
    assert sp.cancel(sp.together(den - 2 * u * (u + 1))) == 0


def test_solve_deltas_exhaustive_small_fields():
    # every ordered triple of distinct nonzero locators: the solver never
    # degenerates and reproduces the triple exactly
    for p in (5, 7, 11):
        spec = get_spec(p, p - 1)
        pf = PrimeField(p)
        total = 0
        for d1 in range(1, p):
            for d2 in range(1, p):
                for d3 in range(1, p):
                    if len({d1, d2, d3}) != 3:
                        continue
                    a1 = spec.ext.elem(d1, d1 * d1 % p, 0)
                    a2 = spec.ext.elem(d2, d2 * d2 % p, 0)
                    a3 = spec.ext.elem(d3, d3 * d3 % p, 0)
                    beta = (a1 - a2) / (a2 - a3)
                    assert solve_deltas(pf, extract_coefficients(beta)) == (d1, d2, d3)
                    total += 1
        assert total == (p - 1) * (p - 2) * (p - 3)


def test_from_symbols():
    spec = get_spec(5, 4)
    syms = list(encode(spec, Message(spec.ext.zero, spec.ext.one)).symbols())
    y = ReceivedTriple.from_symbols(syms[:3])
    assert (y.y1, y.y2, y.y3) == tuple(syms[:3])
    with pytest.raises(InconsistentReceivedWordError):
        ReceivedTriple.from_symbols(syms)  # four symbols
    with pytest.raises(InconsistentReceivedWordError):
        ReceivedTriple.from_symbols(syms[:2])


def test_decode_received_any_length():
    # every channel output of 3..n symbols decodes, with all m positions
    # in kappa, under both decoders; m = 3 is exactly the triple decode
    spec = get_spec(11, 10)
    rng = random.Random(1010)
    for _ in range(60):
        m = random_message(spec, rng)
        cw = encode(spec, m)
        pattern = DeletionPattern(tuple(sorted(rng.sample(range(1, 11), rng.randrange(3, 11)))))
        word = apply_deletions(cw, pattern)
        for decode in (decode_cubic, decode_linear):
            out = decode_received(spec, word, decode)
            assert (out.message, out.codeword, out.kappa) == (m, cw, pattern)
            if len(word) == 3:
                assert out == decode(spec, ReceivedTriple(*word))
    e = spec.ext.elem(4, 0, 2)
    for size in (3, 7, 10):
        out = decode_received(spec, (e,) * size)
        assert out.path == PATH_CONSTANT and out.kappa.kept == ()


def test_decode_received_rejects_unchecked_symbols():
    spec = get_spec(11, 10)
    m = Message(spec.ext.elem(1, 2, 3), spec.ext.elem(4, 5, 6))
    cw = encode(spec, m).symbols()
    e, f = spec.ext.elem(1, 2, 3), spec.ext.elem(4, 5, 6)
    assert e not in cw[7:] and f not in cw[7:]
    words = [
        (cw[1], cw[4], cw[6], e, f),          # three survivors, then non-symbols
        (cw[0], cw[2], cw[5], cw[4]),         # a later symbol out of order
        (cw[0], cw[2], cw[5], cw[7], cw[7]),  # a repeated symbol
        (cw[3], cw[4], cw[5], cw[1]),         # before the first three
        (e, e, e, e, f),                      # constant, then another symbol
        cw[:2],                               # too short
        cw + (cw[0],),                        # longer than n
    ]
    for word in words:
        for decode in (decode_cubic, decode_linear):
            with pytest.raises(InconsistentReceivedWordError):
                decode_received(spec, word, decode)


def test_decode_cubic_worked_example():
    spec = get_spec(5, 4)
    m = Message(spec.ext.zero, spec.ext.one)
    out = decode_cubic(spec, received(spec, m, (1, 2, 3)))
    assert out.message == m
    assert out.kappa.kept == (1, 2, 3)
    assert out.path == PATH_FALLBACK
    assert out.codeword == encode(spec, m)


def test_decode_linear_worked_example():
    spec = get_spec(5, 4)
    m = Message(spec.ext.zero, spec.ext.one)
    out = decode_linear(spec, received(spec, m, (1, 2, 3)))
    assert out.message == m
    assert out.kappa.kept == (1, 2, 3)
    assert out.path == PATH_CLOSED_FORM


def test_decode_constant_word():
    spec = get_spec(5, 4)
    e = spec.ext.elem(3, 0, 0)
    for decode in (decode_cubic, decode_linear):
        out = decode(spec, ReceivedTriple(e, e, e))
        assert out.message == Message(e, spec.ext.zero)
        assert out.kappa.kept == ()
        assert out.path == PATH_CONSTANT
        assert all(sym == e for sym in out.codeword.symbols())


def test_decoders_agree_random():
    rng = random.Random(606)
    spec = get_spec(10007, 64)
    for _ in range(150):
        m = random_message(spec, rng)
        kept = sorted(rng.sample(range(1, 65), 3))
        y = received(spec, m, tuple(kept))
        a = decode_cubic(spec, y)
        b = decode_linear(spec, y)
        assert a.message == b.message == m
        assert a.kappa == b.kappa
        assert tuple(a.kappa) == tuple(kept)
        assert a.codeword == b.codeword


def test_decode_all_triples_small():
    rng = random.Random(11)
    spec = get_spec(13, 12)
    for _ in range(20):
        m = random_message(spec, rng)
        for pat in enumerate_triples(12):
            y = received(spec, m, pat.kept)
            for decode in (decode_cubic, decode_linear):
                out = decode(spec, y)
                assert out.message == m and out.kappa == pat


def test_decoded_patterns_pass_the_public_checks():
    # every kept triple at (13, 12), constant words, and longer words of
    # 4..n symbols, through both decoders and decode_received
    spec = get_spec(13, 12)
    rng = random.Random(1313)
    words = 0
    for _ in range(6):
        m = random_message(spec, rng)
        cw = encode(spec, m)
        for pat in enumerate_triples(12):
            y = received(spec, m, pat.kept)
            for decode in (decode_cubic, decode_linear):
                out = decode(spec, y)
                assert out.kappa.kept == pat.kept
                assert is_checked_pattern(out.kappa)
                longer = DeletionPattern(tuple(sorted(
                    set(pat.kept) | set(rng.sample(range(1, 13), rng.randrange(0, 10))))))
                out = decode_received(spec, apply_deletions(cw, longer), decode)
                assert out.kappa == longer
                assert is_checked_pattern(out.kappa)
                words += 2
    e = spec.ext.elem(4, 0, 2)
    for decode in (decode_cubic, decode_linear):
        out = decode(spec, ReceivedTriple(e, e, e))
        assert out.kappa.kept == ()
        assert is_checked_pattern(out.kappa)
        for size in (3, 4, 12):
            out = decode_received(spec, (e,) * size, decode)
            assert out.kappa.kept == ()
            assert is_checked_pattern(out.kappa)
    assert words == 6 * 2 * 2 * comb(12, 3)


def _outcome(decode, spec, y):
    try:
        out = decode(spec, y)
    except RSDelError as exc:
        return type(exc)
    return (out.kappa.kept, out.message, out.codeword)


@pytest.mark.parametrize("p", (5, 7, 11))
def test_linear_matches_cubic_on_every_beta(p):
    # y = (beta, 0, -1) has ratio beta; sweeping every beta in F_{p^3} covers
    # every ratio a received word can have, so the closed form must accept
    # exactly the words the full scan accepts and reject the rest the same way
    spec = get_spec(p, p - 1)
    ext = spec.ext
    accepted = 0
    for x0 in range(p):
        for x1 in range(p):
            for x2 in range(p):
                y = ReceivedTriple(ext.elem(x0, x1, x2), ext.zero, -ext.one)
                lin = _outcome(decode_linear, spec, y)
                assert lin == _outcome(decode_cubic, spec, y), (x0, x1, x2)
                accepted += isinstance(lin, tuple)
    assert accepted == comb(spec.n, 3)


def test_decode_linear_refuses_non_quadratic_spec():
    # both decoders, and decode_received through either, refuse every spec
    # built from alpha_rows, even one that holds the parabola's own points:
    # the closed form and the join both assume delta + delta^2*gamma
    parabola = get_spec(11, 10)
    assert parabola.from_quadratic_map
    points = [parabola.alpha_coords(i) for i in range(1, 11)]
    for spec in (base_field_spec(11, 10),
                 CodeSpec(11, parabola.g, parabola.delta, alpha_rows=points)):
        assert not spec.from_quadratic_map
        m = Message(spec.ext.one, spec.ext.one)
        cw = encode(spec, m)
        e = spec.ext.elem(4, 0, 2)
        for word in (tuple(received(spec, m, (1, 2, 3))) + (cw[3],), (e,) * 4):
            for decode in (decode_cubic, decode_linear):
                with pytest.raises(ParameterError):
                    decode(spec, ReceivedTriple(*word[:3]))
                with pytest.raises(ParameterError):
                    decode_received(spec, word, decode)


def test_decode_rejects_foreign_field():
    # another p, and the same p with another irreducible cubic: the decoders
    # refuse such symbols before any arithmetic, whatever the word looks like
    spec = get_spec(11, 10)
    other_g = next(g for g in map(MonicCubic._make, product(range(11), repeat=3))
                   if g != spec.g and is_irreducible_cubic(11, g))
    foreigns = (CubicField(PrimeField(13), find_irreducible_cubic(13)),
                CubicField(PrimeField(11), other_g))
    rng = random.Random(1105)
    for F in foreigns:
        e, f = F.elem(3, 1, 0), F.elem(1, 2, 0)
        words = [(e, e, e), (e, e, f)]
        for pat in enumerate_triples(spec.n):
            y = received(spec, random_message(spec, rng), pat.kept)
            moved = tuple(ExtElem(F, sym.coords) for sym in y)
            words += [moved, (y.y1, y.y2, moved[2])]
        for word in words:
            for decode in (decode_cubic, decode_linear):
                with pytest.raises(FieldMismatchError):
                    decode(spec, ReceivedTriple(*word))
        for decode in (decode_cubic, decode_linear):
            with pytest.raises(FieldMismatchError):
                decode_received(spec, tuple(y) + (moved[2],), decode)
        with pytest.raises(FieldMismatchError):
            interpolate(spec, 1, 2, e, f)
        with pytest.raises(FieldMismatchError):
            compute_beta(ReceivedTriple(spec.ext.one, spec.ext.zero, f))


def test_received_triple_rejects_non_elements():
    # plain coordinate tuples, ints and None are refused when the triple is
    # built, with a typed error instead of an AttributeError inside a decoder
    spec = get_spec(11, 6)
    e = spec.ext.elem(1, 2, 3)
    words = [((1, 2, 3), (2, 3, 4), (5, 6, 7))]
    for bad in ((1, 2, 3), 5, None):
        words += [(bad, e, e), (e, bad, e), (e, e, bad), (bad, bad, bad)]
    for word in words:
        with pytest.raises(FieldMismatchError):
            ReceivedTriple.from_symbols(word)
        with pytest.raises(FieldMismatchError):
            decode_received(spec, word + (e,))
        for decode in (decode_cubic, decode_linear):
            with pytest.raises(FieldMismatchError):
                decode(spec, ReceivedTriple(*word))
    # and a later symbol of a longer word, after a valid channel output
    valid = encode(spec, Message(e, spec.ext.one)).symbols()[:4]
    for bad in ((1, 2, 3), 5, None):
        with pytest.raises(FieldMismatchError):
            decode_received(spec, valid + (bad,))


def test_decode_rejects_two_equal_symbols():
    spec = get_spec(5, 4)
    e, f = spec.ext.elem(3, 0, 0), spec.ext.elem(1, 2, 0)
    for decode in (decode_cubic, decode_linear):
        with pytest.raises(InconsistentReceivedWordError):
            decode(spec, ReceivedTriple(e, e, f))


def test_decode_rejects_unexplainable_triple():
    # distinct symbols whose ratio is outside the code's ratio image
    spec = get_spec(11, 6)
    image = {gamma_map(spec, *pat.kept).coords for pat in enumerate_triples(6)}
    rng = random.Random(500)
    rejected = 0
    while rejected < 25:
        y1, y2, y3 = (spec.ext.rand(rng) for _ in range(3))
        if y1 == y2 or y2 == y3 or y1 == y3:
            continue
        beta = (y1 - y2) / (y2 - y3)
        if beta.coords in image:
            continue  # would be a legitimate channel output, skip
        for decode in (decode_cubic, decode_linear):
            with pytest.raises(UnrecognizedReceivedWordError):
                decode(spec, ReceivedTriple(y1, y2, y3))
        rejected += 1


def test_search_paths_agree():
    spec = get_spec(10007, 48)
    rng = random.Random(77)
    for _ in range(40):
        m = random_message(spec, rng)
        kept = tuple(sorted(rng.sample(range(1, 49), 3)))
        beta = compute_beta(received(spec, m, kept))
        assert _search_triple(spec, beta.coords) == kept
        assert next(reference_matches(spec, beta.coords)) == kept


def test_search_paths_agree_on_miss():
    spec = get_spec(11, 6)
    image = {gamma_map(spec, *pat.kept).coords for pat in enumerate_triples(6)}
    rng = random.Random(43)
    misses = 0
    while misses < 10:
        y = tuple(spec.ext.rand(rng) for _ in range(3))
        if len({e.coords for e in y}) != 3:
            continue
        beta = (y[0] - y[1]) / (y[1] - y[2])
        if beta.coords in image:
            continue
        assert _search_triple(spec, beta.coords) is None
        assert not list(reference_matches(spec, beta.coords))
        misses += 1


def reference_matches(spec, beta):
    """Every increasing triple whose ratio is beta, in lexicographic order.

    The exhaustive scan the decoder ran before the join: one ratio test
    alpha_i + beta*alpha_k == alpha_j + beta*alpha_j per triple.
    """
    ext = spec.ext
    alpha = [spec.alpha_coords(i) for i in range(1, spec.n + 1)]
    balpha = [ext.mul(beta, a) for a in alpha]
    target = [ext.add(a, ba) for a, ba in zip(alpha, balpha)]
    for i, j, k in combinations(range(spec.n), 3):
        if ext.add(alpha[i], balpha[k]) == target[j]:
            yield (i + 1, j + 1, k + 1)


def scan_price(n, rows):
    """Nominal ops of the scan's setup and its first `rows` rows."""
    ops = n * OPS_SEARCH_SETUP_PER_POS
    for i in range(rows):
        width = n - 2 - i
        ops += width * OPS_SEARCH_ROW_PER_ENTRY + width * (width + 1) // 2 * OPS_SEARCH_PER_TRIPLE
    return ops


def assert_kernels_match_reference(spec, beta):
    """The kernel returns the reference's first triple; returns all matches."""
    matches = list(reference_matches(spec, beta))
    want = matches[0] if matches else None
    assert _search_triple(spec, beta) == want, (spec.p, spec.n, beta)
    return matches


def every_beta_matches(spec):
    """The kernel returns the reference's first triple for every beta in
    F_{p^3}, beta = 0 and beta = -1 included; returns all matches per beta."""
    return [assert_kernels_match_reference(spec, beta)
            for beta in product(range(spec.p), repeat=3)]


def random_delta_specs(p, rng):
    """Quadratic-map specs of n = 3, p - 2 and p - 1 random deltas in random
    order, so the points sorted by first coordinate are a true permutation."""
    return [build_code(p, n, rng.sample(range(1, p), n)) for n in (3, p - 2, p - 1)]


@pytest.mark.parametrize("p", (5, 7))
def test_search_kernels_match_reference_every_beta(p):
    # delta = 1..n and random deltas: the quadratic map is injective, so
    # every triple has its own ratio and the matches partition the triples
    for spec in [get_spec(p, p - 1)] + random_delta_specs(p, random.Random(p)):
        matches = every_beta_matches(spec)
        assert max(map(len, matches)) == 1
        assert sum(map(len, matches)) == comb(spec.n, 3)


@pytest.mark.parametrize("p", (5, 7))
def test_search_ignores_tie_order(p, monkeypatch):
    # the search sorts with numpy's unstable argsort, so the two positions
    # of an equal join key may come in either order: an argsort that lists
    # every run of equal values in reverse position order, the opposite of
    # a stable sort, must give the same triple for every beta
    sorts = Counter()

    def reverse_ties(a, *args, **kwargs):
        a = np.asarray(a)
        sorts["calls"] += 1
        sorts["with ties"] += len(np.unique(a)) < a.size
        return np.lexsort((-np.arange(a.size), a))

    monkeypatch.setattr(decoder.np, "argsort", reverse_ties)
    # fresh specs, so the columns sort under the patch
    specs = [build_code(p, p - 1)] + random_delta_specs(p, random.Random(p * 100))
    for spec in specs:
        assert sum(map(len, every_beta_matches(spec))) == comb(spec.n, 3)
    assert sorts["with ties"] >= 100, sorts


def key_runs(spec, beta):
    """How many positions share each join key: the gamma^2-coordinate of
    lam*alpha_i, lam = (1 + beta)^-1, one field product per position."""
    ext = spec.ext
    lam = ext.inv(ext.add(beta, (1, 0, 0)))
    return Counter(ext.mul(lam, spec.alpha_coords(i))[2] for i in range(1, spec.n + 1))


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_join_key_shared_by_at_most_two_positions(p):
    # the claim that lets the join compare sorted keys at distance 1 only:
    # on the parabola, for every beta outside F_p, no three positions share
    # a key (key(d) is a nonzero polynomial of degree <= 2 without constant
    # term); pairs do occur
    spec = build_code(p, p - 1)
    longest = Counter()
    for beta in product(range(p), repeat=3):
        if beta[1:] != (0, 0):
            longest[max(key_runs(spec, beta).values())] += 1
    assert set(longest) == {1, 2} and sum(longest.values()) == p ** 3 - p, longest


def test_search_kernels_match_reference_random_points():
    # random points of the parabola (random deltas in random order) at
    # p = 5, 7 and 11: every kept triple's ratio names that triple alone,
    # and random ratios mostly miss
    rng = random.Random(505)
    misses = 0
    for _ in range(120):
        p = rng.choice((5, 7, 11))
        n = rng.randrange(3, p)
        spec = build_code(p, n, rng.sample(range(1, p), n))
        betas = {gamma_map(spec, *t.kept).coords for t in enumerate_triples(n)}
        betas |= {spec.ext.rand(rng).coords for _ in range(3)}
        for beta in betas:
            matches = assert_kernels_match_reference(spec, beta)
            assert len(matches) <= 1
            misses += not matches
    assert misses >= 100, misses


@pytest.mark.parametrize("p", (1073741789, (1 << 61) - 1, (1 << 63) - 25, (1 << 64) - 59))
def test_search_kernel_matches_reference_large_p(p):
    # int64 search columns below 2^63 (2^63 - 25 is the largest prime
    # there), Python ints (object dtype) at 2^64 - 59; every kept triple is
    # a hit (a sample of them at n = 20), random betas are misses, and
    # beta = 0 never matches
    rng = random.Random(p % 977)
    for n in (3, 12, 20):
        spec = get_spec(p, n)
        betas = [(0, 0, 0)] + [spec.ext.rand(rng).coords for _ in range(5)]
        triples = list(enumerate_triples(n))
        if n > 12:
            triples = rng.sample(triples, 40)
        betas += [gamma_map(spec, *t.kept).coords for t in triples]
        found = sum(bool(assert_kernels_match_reference(spec, beta)) for beta in betas)
        assert found == len(triples)


def test_search_kernels_charge_scan_pricing():
    # the search is priced as the Theta(n^3) scan up to the match row, or
    # every row on a miss, whatever the kernel really touches
    for n in (3, 6, 20):
        for rows in range(n - 1):
            assert _scan_ops(n, rows) == scan_price(n, rows)
    rng = random.Random(88)
    cases = []
    for p, n in ((10007, 48), (10007, 20), (11, 10), (7, 6)):
        spec = get_spec(p, n)
        for kept in ((1, 2, 3), (n - 2, n - 1, n), tuple(sorted(rng.sample(range(1, n + 1), 3)))):
            cases.append((spec, gamma_map(spec, *kept).coords, kept))
        cases.append((spec, (0, 0, 0), None))  # beta = 0 never matches
    for spec, beta, kept in cases:
        want = scan_price(spec.n, spec.n - 2 if kept is None else kept[0])
        assert _search(spec, spec.ext.from_coords(beta)) == (want, kept), (spec.p, spec.n, kept)


def test_decode_cubic_search_ops_pinned():
    # the counts criterion 7 fits its slope to, as the exhaustive scan read them
    for n, ops in ((64, 49426), (256, 2867954), (1024, 180030066)):
        spec = get_spec(10007, n)
        y = received(spec, random_message(spec, random.Random(n)), (n - 2, n - 1, n))
        inst = DecodeInstrumentation()
        decode_cubic(spec, y, inst=inst)
        assert inst.search_ops == ops


def test_decode_cubic_all_first_coordinates_equal():
    # a miss at n = 2048 (beta = -1 + gamma matches no triple) stays fast:
    # its join key is -d, distinct at every position, so the search sorts
    # one key column and finds no candidate pair
    spec = get_spec(10007, 2048)
    ext = spec.ext
    y = ReceivedTriple(ext.elem(10006, 1, 0), ext.zero, -ext.one)
    assert compute_beta(y).coords == (10006, 1, 0)
    t0 = time.perf_counter()
    with pytest.raises(UnrecognizedReceivedWordError):
        decode_cubic(spec, y)
    assert time.perf_counter() - t0 < 0.25


def test_decode_cubic_ratio_in_base_field_miss_bound():
    # beta = 2 lies in F_p \ {0, -1}: no three points of the parabola are
    # collinear, so the word is rejected before any search work.  Against
    # filter tables this miss took 0.045 s at n = 4096 (2-vCPU x86-64 VM);
    # the bound is that, and the best of three is about 10^4 times below it
    spec = build_code(10007, 4096)
    ext = spec.ext
    y = ReceivedTriple(ext.elem(2), ext.zero, -ext.one)
    assert compute_beta(y).coords == (2, 0, 0)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        with pytest.raises(UnrecognizedReceivedWordError):
            decode_cubic(spec, y)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.045


def test_decode_cubic_memory_bound():
    # O(n) memory on a spec's first decode, search columns included: no
    # n x n comparison table and no filter table (0.33 MB measured)
    spec = get_spec(10007, 4096)
    m = random_message(spec, random.Random(4096))
    y = received(spec, m, (1, 2, 3))
    tracemalloc.start()
    try:
        out = decode_cubic(spec, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.kappa.kept == (1, 2, 3) and out.message == m
    assert peak <= 450_000


def test_decode_cubic_warm_memory_bound():
    # the search columns are built once per spec, on its first decode; a
    # later decode allocates only O(n) columns: the sorted key column, the
    # candidates and the re-encode (0.17 MB measured)
    spec = build_code(10007, 4096)
    rng = random.Random(4097)
    decode_cubic(spec, received(spec, random_message(spec, rng), (5, 6, 7)))
    m = random_message(spec, rng)
    y = received(spec, m, (1, 2, 3))
    tracemalloc.start()
    try:
        out = decode_cubic(spec, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.kappa.kept == (1, 2, 3) and out.message == m
    assert peak <= 250_000


def test_search_tables_do_not_depend_on_beta():
    # the cached columns hold only the code's own points: decoding the same
    # words in two orders on fresh specs gives the same outcomes and counts,
    # and no decode replaces the columns
    def fresh_specs():
        return [
            build_code(10007, 40),
            build_code(11, 10),
            # deltas out of order: the sorted points are a true permutation
            build_code(11, 8, (3, 1, 4, 10, 5, 9, 2, 6)),
            build_code(7, 5, (6, 2, 5, 1, 3)),
        ]

    rng = random.Random(909)
    words = []
    for s, spec in enumerate(fresh_specs()):
        for _ in range(12):
            kept = tuple(sorted(rng.sample(range(1, spec.n + 1), 3)))
            words.append((s, received(spec, random_message(spec, rng), kept)))
        for _ in range(4):
            words.append((s, ReceivedTriple(*(spec.ext.rand(rng) for _ in range(3)))))
    assert len({(s, compute_beta(y).coords) for s, y in words}) > len(words) // 2

    def decode_all(order):
        specs = fresh_specs()
        tables = {}
        results = {}
        for w in order:
            s, y = words[w]
            inst = DecodeInstrumentation()
            try:
                out = decode_cubic(specs[s], y, inst)
                results[w] = (out.kappa.kept, out.codeword.symbol_tuples(), inst.total_ops)
            except UnrecognizedReceivedWordError:
                results[w] = (None, None, inst.total_ops)
            tables.setdefault(s, _search_columns(specs[s]))
        assert all(_search_columns(specs[s]) is t for s, t in tables.items())
        return results

    order = list(range(len(words)))
    shuffled = order[:]
    rng.shuffle(shuffled)
    assert decode_all(order) == decode_all(shuffled)


@pytest.mark.parametrize("p,n", (((1 << 61) - 1, 64), (1073741789, 96)))
def test_decode_cubic_matches_linear_large_p(p, n):
    # field arithmetic in int64 (p < 2^30) and in Python ints (p > 2^30);
    # the search columns are int64 in both
    spec = get_spec(p, n)
    assert not spec.fast_search_ok()
    rng = random.Random(p % 1000)
    patterns = [(1, 2, 3), (n - 2, n - 1, n)]
    patterns += [tuple(sorted(rng.sample(range(1, n + 1), 3))) for _ in range(30)]
    for kept in patterns:
        m = random_message(spec, rng)
        y = received(spec, m, kept)
        a = decode_cubic(spec, y)
        b = decode_linear(spec, y)
        assert (a.kappa.kept, a.message, a.codeword) == (b.kappa.kept, b.message, b.codeword)
        assert a.kappa.kept == kept and a.message == m


def test_instrumentation_counts():
    spec = get_spec(10007, 64)
    rng = random.Random(9)
    m = random_message(spec, rng)
    y = received(spec, m, (30, 40, 50))
    ic = DecodeInstrumentation()
    decode_cubic(spec, y, inst=ic)
    assert 0 < ic.search_ops <= ic.total_ops
    assert ic.search_seconds >= 0.0
    il = DecodeInstrumentation()
    out = decode_linear(spec, y, inst=il)
    assert out.path == PATH_CLOSED_FORM
    assert 0 < il.search_ops <= il.total_ops
    # closed form never scans, so it is far cheaper than the cubic search
    assert il.search_ops < ic.search_ops


def test_linear_search_ops_independent_of_n():
    rng = random.Random(15)
    counts = set()
    for n in (16, 64, 200):
        spec = get_spec(10007, n)
        m = random_message(spec, rng)
        y = received(spec, m, (n - 2, n - 1, n))
        inst = DecodeInstrumentation()
        out = decode_linear(spec, y, inst=inst)
        assert out.path == PATH_CLOSED_FORM
        counts.add(inst.search_ops)
    assert len(counts) == 1


def rejection_words(spec):
    """Named received words that every decoder rejects, or that are constant.

    Garbage is built from its ratio: (1 + beta, 1, 0) has ratio beta.
    """
    ext = spec.ext

    def alpha(d):  # delta + delta^2*gamma, also for deltas outside the code
        return ext.elem(d, d * d, 0)

    def with_ratio(beta):
        return ReceivedTriple(ext.one + beta, ext.one, ext.zero)

    def ratio(d1, d2, d3):
        return (alpha(d1) - alpha(d2)) / (alpha(d2) - alpha(d3))

    return {
        "solve-r-zero": with_ratio(ext.from_base(2)),  # beta in F_p: r = 0
        "solve-den-zero": with_ratio(ext.elem(0, 1, 0)),  # (0, 1, 0, 1, 0, 0): den = 0
        "locator-outside": with_ratio(ratio(1, 2, 5000)),
        "locators-out-of-order": with_ratio(ratio(30, 12, 5)),
        "random-garbage": ReceivedTriple(ext.elem(17, 4, 99), ext.elem(3, 1, 4),
                                         ext.elem(1, 5, 9)),
        "constant-zero": ReceivedTriple(ext.zero, ext.zero, ext.zero),
        "constant": ReceivedTriple(*[ext.elem(3, 4, 5)] * 3),
    }


@pytest.mark.parametrize("decode", (decode_linear, decode_cubic))
def test_rejection_ops_pinned(decode, monkeypatch):
    # a rejection charges every stage up to the check that refused it, a
    # constant word its re-encode only; each value is (total_ops, search_ops)
    # under (decode_linear, decode_cubic)
    pinned = {
        "solve-r-zero": ((136, 136), (21994, 21994)),
        "solve-den-zero": ((136, 136), (21994, 21994)),
        "locator-outside": ((160, 160), (21994, 21994)),
        "locators-out-of-order": ((160, 160), (21994, 21994)),
        "random-garbage": ((160, 160), (21994, 21994)),
        "constant-zero": ((720, 0), (720, 0)),
        "constant": ((720, 0), (720, 0)),
        "third-point": ((324, 160), (6205, 6041)),
    }
    spec = get_spec(10007, 48)
    col = 0 if decode is decode_linear else 1
    got = {}
    for name, y in rejection_words(spec).items():
        inst = DecodeInstrumentation()
        try:
            out = decode(spec, y, inst)
            assert out.path == PATH_CONSTANT, name
        except UnrecognizedReceivedWordError:
            assert not name.startswith("constant"), name
        got[name] = (inst.total_ops, inst.search_ops)
    # an honest identification fixes the third point (the ratio does), so
    # a shifted interpolation stands in for a wrong triple
    m = random_message(spec, random.Random(48))
    y = received(spec, m, (4, 20, 33))

    def shifted(spec, i, j, y_i, y_j):
        return interpolate(spec, i, j + 1, y_i, y_j)

    monkeypatch.setattr(decoder, "interpolate", shifted)
    inst = DecodeInstrumentation()
    with pytest.raises(UnrecognizedReceivedWordError, match="third received symbol"):
        decode(spec, y, inst)
    got["third-point"] = (inst.total_ops, inst.search_ops)
    assert got == {name: ops[col] for name, ops in pinned.items()}
