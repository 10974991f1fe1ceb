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

import pytest

from rsdel import decoder
from rsdel import field as field_module
from rsdel.channel import DeletionPattern, apply_deletions, enumerate_triples
from rsdel.code import (
    CodeSpec,
    Message,
    _lifted_product,
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
    _closed_form,
    _scan_ops,
    _search,
    _search_ops,
    _search_triple,
    compute_beta,
    decode_cubic,
    decode_linear,
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
    is_irreducible_cubic,
)
from rsdel.verify import base_field_spec, check_injectivity

from conftest import get_spec, is_checked_pattern


def received(spec, m, kept):
    cw = encode(spec, m)
    return ReceivedTriple(*apply_deletions(cw, DeletionPattern(kept)))


def ratio(y):
    """compute_beta of a three-symbol word, on its rows as the decoders
    read them: the fraction (num, den)."""
    return compute_beta(y.field, *y.symbol_tuples())


def beta_of(y):
    """The ratio of a three-symbol word as one element, num/den."""
    num, den = ratio(y)
    return num * pow(den, -1, y.field.p)


def test_compute_beta_worked_example():
    # y2 - y3 = alpha_2 - alpha_3 = -1: adj(-1) = 1 and N(-1) = -1 = 4,
    # so num = alpha_1 - alpha_2 = (4, 2, 0) and beta = num/4 = (1, 3, 0)
    spec = get_spec(5, 4)
    y = received(spec, Message(spec.ext.zero, spec.ext.one), (1, 2, 3))
    num, den = ratio(y)
    assert (num.coords, den) == ((4, 2, 0), 4)
    beta = beta_of(y)
    assert beta.coords == (1, 3, 0)
    assert beta == gamma_map(spec, 1, 2, 3)


def test_compute_beta_is_a_fraction_of_the_norm():
    # num = (y1 - y2)*adj(y2 - y3) and den = N(y2 - y3) in F_p^*, for
    # random words at every arithmetic regime: num/den is the ratio
    rng = random.Random(314)
    for p in (5, 10007, 1073741789, (1 << 61) - 1, (1 << 64) - 59):
        ext = get_spec(p, 4).ext
        for _ in range(50):
            y1, y2, y3 = (ext.rand(rng) for _ in range(3))
            if len({y1.coords, y2.coords, y3.coords}) < 3:
                continue
            num, den = compute_beta(ext, y1.coords, y2.coords, y3.coords)
            assert type(den) is int and 0 < den < p
            adj, norm = ext._adjugate((y2 - y3).coords)
            assert den == norm and num == (y1 - y2) * ExtElem(ext, adj)
            assert num * pow(den, -1, p) == (y1 - y2) / (y2 - y3)


def test_compute_beta_constant_is_none():
    spec = get_spec(5, 4)
    e = spec.ext.elem(3, 0, 0)
    assert ratio(ReceivedTriple(e, e, e)) is None


def test_compute_beta_rejects_two_equal():
    spec = get_spec(5, 4)
    e, f = spec.ext.elem(3, 0, 0), spec.ext.elem(1, 2, 0)
    for y in ((e, e, f), (f, e, e), (e, f, e)):
        with pytest.raises(InconsistentReceivedWordError):
            ratio(ReceivedTriple(*y))


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
    assert solve_deltas(5, (0, 3, 1, 3, 1, 0)) == (1, 2, 3)


def test_solve_deltas_needs_fallback():
    # coefficients no locator triple produces
    assert solve_deltas(5, (1, 2, 3, 0, 0, 0)) is None  # r = 0
    assert solve_deltas(5, (0, 1, 0, 1, 0, 0)) is None  # denominator = 0


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


def test_division_free_forms_symbolic_identity():
    """The division-free forms equal the affine ones as rational functions.

    compute_beta hands on beta = num/den.  The coefficients of num are
    (A, B, C, R, S, T) = den*(a, b, c, r, s, t), and solve_deltas's cleared
    d1, d2, d3 (one inverse W) equal the affine closed form on num/den.
    The search keeps lam = (1 + beta)^-1 scaled as L = den*adj(den + num)
    = nz*lam, and its sigma, v0 and v1 (one inverse W = (c~*nz)^-1) equal
    those of lam itself.  Coordinates, g and den are free symbols.
    """
    sp = pytest.importorskip("sympy")
    A, B, C, D, g0, g1, g2 = sp.symbols("A B C D g0 g1 g2")
    R, S, T = B - A * g2, C - A * g1, -A * g0
    a, b, c, r, s, t = (x / D for x in (A, B, C, R, S, T))
    theta = a / r
    tt = t * theta
    den = 2 * (c + c * c - 2 * c * tt + tt * (tt - 1))
    d2 = (b - theta * (c * c + s - 2 * c * tt + tt * tt)) / den
    d3 = -d2 - theta
    d1 = d2 * (1 + 2 * c - 2 * tt) + theta * (c - tt)
    u, DR = C * R - A * T, D * R
    DEN = 2 * u * (u + DR)
    NUM = DR * R * (B * R - A * S) - A * u * u
    # the two cleared quantities as the expanded sums the module states
    assert sp.expand(DEN - 2 * (C * D * R**2 + C**2 * R**2 - 2 * A * C * T * R
                                + A**2 * T**2 - A * T * D * R)) == 0
    assert sp.expand(NUM - (B * D * R**3 - A * (C**2 * R**2 + S * D * R**2
                                                - 2 * A * C * T * R + A**2 * T**2))) == 0
    assert sp.cancel(sp.together(DEN - D**2 * R**2 * den)) == 0  # same zeros as den
    W = 1 / (DEN * DR * R)
    V = DEN * W
    new_d2 = NUM * DR * W
    new_theta = A * DR * V
    new_d1 = V * (new_d2 * (DR + 2 * u) * R + A * u)
    for old, new in ((d1, new_d1), (d2, new_d2), (d3, -new_d2 - new_theta)):
        assert sp.cancel(sp.together(old - new)) == 0

    x0, x1, x2, h0, h1, h2 = sp.symbols("x0 x1 x2 h0 h1 h2")

    def rows(x):  # CubicField.mul_matrix with gamma^3 = h0 + h1*gamma + h2*gamma^2
        y0, y1, y2 = x[2] * h0, x[0] + x[2] * h1, x[1] + x[2] * h2
        return (tuple(x), (y0, y1, y2), (y2 * h0, y0 + y2 * h1, y1 + y2 * h2))

    def mul(v, x):
        return tuple(sum(vi * row[k] for vi, row in zip(v, rows(x))) for k in range(3))

    def adjugate(x):  # CubicField._adjugate
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows(x)
        adj = (m11 * m22 - m12 * m21, m02 * m21 - m01 * m22, m01 * m12 - m02 * m11)
        return adj, m00 * adj[0] + m10 * adj[1] + m20 * adj[2]

    def zero(*exprs):
        return all(sp.cancel(sp.together(e)) == 0 for e in exprs)

    num = (x0, x1, x2)
    one_plus_beta = (1 + x0 / D, x1 / D, x2 / D)
    adj, norm = adjugate(one_plus_beta)
    lam = tuple(v / norm for v in adj)
    assert zero(*(w - e for w, e in zip(mul(lam, one_plus_beta), (1, 0, 0))))
    (l0, l1, l2), (G0, G1, c), _ = rows(lam)
    sigma = -l2 / c
    v0, v1 = l0 + sigma * G0, l1 + sigma * G1
    adj, nz = adjugate((x0 + D, x1, x2))
    L = tuple(D * v for v in adj)
    assert zero(*(w - e for w, e in zip(mul(L, (x0 + D, x1, x2)), (D * nz, 0, 0))))  # L = nz*lam
    (L0, L1, L2), (H0, H1, ct), _ = rows(L)
    assert zero(ct - nz * c)
    W = 1 / (ct * nz)
    new_sigma = -L2 * nz * W
    inz = ct * W
    assert zero(new_sigma - sigma, (L0 + new_sigma * H0) * inz - v0,
                (L1 + new_sigma * H1) * inz - v1)


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_division_free_forms_exhaustive_small_fields(p):
    # for every num in F_{p^3} and several den != 1, the closed form on
    # (coefficients of num, den) equals the one on num/den with den = 1, and
    # so does the search up to p = 11, on delta = 1..p-1 and random deltas
    spec = get_spec(p, p - 1)
    ext = spec.ext
    rng = random.Random(p * 31)
    specs = [spec, build_code(p, p - 2, rng.sample(range(1, p), p - 2))] if p <= 11 else []
    dens = range(2, p) if p <= 7 else (2, p - 1, (p + 1) // 2, rng.randrange(3, p - 1))
    solved = found = 0
    for num in product(range(p), repeat=3):
        for den in dens:
            beta = ext.mul(num, (pow(den, -1, p), 0, 0))
            want = solve_deltas(p, extract_coefficients(ExtElem(ext, beta)))
            got = solve_deltas(p, extract_coefficients(ExtElem(ext, num)), den)
            assert got == want, (num, den)
            solved += want is not None
            for s in specs:
                want = _search_triple(s, beta)
                assert _search_triple(s, num, den) == want, (s.delta, num, den)
                found += want is not None
    assert solved > (p ** 3 - p * p) * len(dens) // 2
    assert found == len(dens) * sum(comb(s.n, 3) for s in specs)  # each triple once per den


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
                    assert solve_deltas(p, extract_coefficients(beta)) == (d1, d2, d3)
                    total += 1
        assert total == (p - 1) * (p - 2) * (p - 3)


def test_decoders_take_any_channel_output():
    # every channel output of 3..n symbols decodes, with all m positions
    # in kappa, under both decoders; its first three symbols decode alone
    # to the same message, codeword and path
    spec = get_spec(11, 10)
    rng = random.Random(1010)
    for _ in range(60):
        m = random_message(spec, rng)
        cw = encode(spec, m)
        pattern = DeletionPattern(tuple(sorted(rng.sample(range(1, 11), rng.randrange(3, 11)))))
        word = apply_deletions(cw, pattern)
        for decode in (decode_cubic, decode_linear):
            out = decode(spec, word)
            assert (out.message, out.codeword, out.kappa) == (m, cw, pattern)
            first = decode(spec, ReceivedTriple(*word[:3]))
            assert (first.message, first.codeword, first.path, first.kappa.kept) \
                == (m, cw, out.path, out.kappa.kept[:3])
    e = spec.ext.elem(4, 0, 2)
    for size in (3, 7, 10):
        for decode in (decode_cubic, decode_linear):
            out = decode(spec, (e,) * size)
            assert out.path == PATH_CONSTANT and out.kappa.kept == ()


def test_decoders_reject_unchecked_later_symbols():
    spec = get_spec(11, 10)
    m = Message(spec.ext.elem(1, 2, 3), spec.ext.elem(4, 5, 6))
    cw = tuple(encode(spec, m))
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
                decode(spec, word)


def rejection_reason(call, *args):
    with pytest.raises(InconsistentReceivedWordError) as info:
        call(*args)
    return info.value.reason


def reason_words():
    """A spec, one codeword's symbols and two symbols outside its tail."""
    spec = get_spec(11, 10)
    e, f = spec.ext.elem(1, 2, 3), spec.ext.elem(4, 5, 6)
    return spec, tuple(encode(spec, Message(e, f))), e, f


def test_inconsistent_reason_length():
    spec, cw, _, _ = reason_words()
    for word in (cw[:2], cw + (cw[0],)):
        for decode in (decode_cubic, decode_linear):
            assert rejection_reason(decode, spec, word) == "length"


def test_inconsistent_reason_two_equal():
    spec, cw, e, f = reason_words()
    for y in ((e, e, f), (f, e, e), (e, f, e)):
        assert rejection_reason(ratio, ReceivedTriple(*y)) == "two-equal"
        for decode in (decode_cubic, decode_linear):
            assert rejection_reason(decode, spec, ReceivedTriple(*y)) == "two-equal"
            assert rejection_reason(decode, spec, y + cw[7:]) == "two-equal"


def test_inconsistent_reason_not_a_subsequence():
    spec, cw, e, f = reason_words()
    assert e not in cw[7:] and f not in cw[7:]
    for word in ((cw[1], cw[4], cw[6], e, f), (cw[0], cw[2], cw[5], cw[4]),
                 (cw[0], cw[2], cw[5], cw[7], cw[7]), (cw[3], cw[4], cw[5], cw[1])):
        for decode in (decode_cubic, decode_linear):
            assert rejection_reason(decode, spec, word) == "not-a-subsequence"


def test_inconsistent_reason_constant_mismatch():
    spec, _, e, f = reason_words()
    for word in ((e, e, e, f), (e, e, e, e, e, f, e)):
        for decode in (decode_cubic, decode_linear):
            assert rejection_reason(decode, spec, word) == "constant-mismatch"


def test_fourth_symbol_exhaustive():
    # at (7, 6), for two seeded messages and one constant one, every kept
    # triple followed by every symbol of F_{7^3} as a fourth, through both
    # decoders: a non-constant word is accepted exactly when the fourth
    # symbol is codeword symbol i with i after the triple, and a constant
    # word exactly when the fourth equals the constant; every other word
    # is rejected with its later-symbol reason
    spec = get_spec(7, 6)
    ext = spec.ext
    rng = random.Random(76)
    messages = [random_message(spec, rng) for _ in range(2)]
    messages.append(Message(ext.elem(2, 5, 1), ext.zero))
    symbols = [ext.elem(*c) for c in product(range(7), repeat=3)]
    decodes = 0
    for m in messages:
        cw = encode(spec, m)
        constant = m.m2 == 0
        where = {sym: i for i, sym in enumerate(cw.symbol_tuples(), 1)}
        assert constant or len(where) == spec.n
        for triple in enumerate_triples(spec.n):
            y = tuple(apply_deletions(cw, triple))
            for s in symbols:
                if constant:
                    accept, want = s == cw[0], ()
                else:
                    i = where.get(s.coords, 0)
                    accept, want = i > triple.kept[2], triple.kept + (i,)
                for decode in (decode_cubic, decode_linear):
                    decodes += 1
                    if not accept:
                        reason = "constant-mismatch" if constant else "not-a-subsequence"
                        assert rejection_reason(decode, spec, y + (s,)) == reason
                        continue
                    out = decode(spec, y + (s,))
                    assert (out.message, out.codeword, out.kappa.kept) == (m, cw, want)
    assert decodes == 3 * 343 * comb(spec.n, 3) * 2


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
        assert all(sym == e for sym in out.codeword)


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


def irreducible_cubics(p):
    """Every monic irreducible cubic over F_p, found by a root scan, which
    shares nothing with field's gcd test."""
    gs = [g for g in map(MonicCubic._make, product(range(p), repeat=3))
          if all(g.evaluate(x, p) for x in range(p))]   # no root: irreducible
    assert len(gs) == (p ** 3 - p) // 3
    return gs


@pytest.mark.parametrize("p", (5, 7, 11))
def test_every_irreducible_cubic(p):
    # the claims hold for every irreducible g, not only the canonical one:
    # with every delta in 1..p-1 (a collision on a subset is one on the full
    # set) the ratio map is injective, and both decoders return the kept
    # triple on every triple of one random codeword per g
    rng = random.Random(p)
    patterns = list(enumerate_triples(p - 1))
    for g in irreducible_cubics(p):
        spec = CodeSpec(p, g, range(1, p))
        assert check_injectivity(spec) is None
        m = random_message(spec, rng)
        cw = encode(spec, m)
        for pattern in patterns:
            y = apply_deletions(cw, pattern)
            for decode in (decode_cubic, decode_linear):
                out = decode(spec, y)
                assert out.kappa == pattern and out.message == m


def test_decoded_patterns_pass_the_public_checks():
    # every kept triple at (13, 12), constant words, and longer words of
    # 4..n symbols, through both decoders
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
                out = decode(spec, apply_deletions(cw, longer))
                assert out.kappa == longer
                assert is_checked_pattern(out.kappa)
                words += 2
    e = spec.ext.elem(4, 0, 2)
    for decode in (decode_cubic, decode_linear):
        out = decode(spec, ReceivedTriple(e, e, e))
        assert out.kappa.kept == ()
        assert is_checked_pattern(out.kappa)
        for size in (3, 4, 12):
            out = decode(spec, (e,) * size)
            assert out.kappa.kept == ()
            assert is_checked_pattern(out.kappa)
    assert words == 6 * 2 * 2 * comb(12, 3)


def _outcome(decode, spec, y):
    try:
        out = decode(spec, y)
    except RSDelError as exc:
        return type(exc)
    return (out.kappa.kept, out.message, out.codeword)


def assert_decoders_agree_on_every_beta(spec, word):
    """word(beta) is a three-symbol word with ratio beta.  Sweeping every
    beta in F_{p^3} covers every ratio a received word can have, so the
    closed form must accept exactly the words the full scan accepts and
    reject the rest the same way."""
    accepted = 0
    for beta in product(range(spec.p), repeat=3):
        y = word(spec.ext.elem(*beta))
        lin = _outcome(decode_linear, spec, y)
        assert lin == _outcome(decode_cubic, spec, y), beta
        accepted += isinstance(lin, tuple)
    assert accepted == comb(spec.n, 3)


@pytest.mark.parametrize("p", (5, 7, 11))
def test_linear_matches_cubic_on_every_beta(p):
    # y = (beta, 0, -1) has ratio beta, with y2 - y3 = 1, so den = N(1) = 1;
    # under every irreducible g up to p = 7 (40 and 112 cubics), the
    # canonical one at p = 11
    specs = ([CodeSpec(p, g, range(1, p)) for g in irreducible_cubics(p)] if p <= 7
             else [get_spec(p, p - 1)])
    for spec in specs:
        ext = spec.ext
        assert_decoders_agree_on_every_beta(
            spec, lambda beta: ReceivedTriple(beta, ext.zero, -ext.one))


@pytest.mark.parametrize("p", (5, 7, 11))
def test_linear_matches_cubic_on_every_beta_with_denominator(p):
    # y = (z*(1 + beta), z, 0) has ratio beta too, and with z outside F_p
    # and N(z) != 1 compute_beta's den = N(z) is a real denominator: a
    # dropped or misplaced den changes what the decoders accept
    spec = get_spec(p, p - 1)
    ext = spec.ext
    z, nz = next((z, nz) for z in (ext.elem(k, 1, 0) for k in range(p))
                 for nz in [ext._adjugate(z.coords)[1]] if nz != 1)

    def word(beta):
        y = ReceivedTriple(z * (beta + 1), z, ext.zero)
        if len({e.coords for e in y}) == 3:
            assert ratio(y)[1] == nz and beta_of(y) == beta
        return y

    assert_decoders_agree_on_every_beta(spec, word)


def test_decode_linear_refuses_non_quadratic_spec():
    # both decoders refuse every spec built from alpha_rows, even one that
    # holds the parabola's own points, on words of three and of four
    # symbols: the closed form and the join both assume delta + delta^2*gamma
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
                    decode(spec, word)


def test_decode_rejects_foreign_field():
    # another p, and the same p with another irreducible cubic: the decoders
    # refuse such symbols before any arithmetic, whatever the word looks like
    spec = get_spec(11, 10)
    other_g = next(g for g in map(MonicCubic._make, product(range(11), repeat=3))
                   if g != spec.g and is_irreducible_cubic(11, g))
    foreigns = (CubicField(13),
                CubicField(11, other_g))
    rng = random.Random(1105)
    for F in foreigns:
        e, f = F.elem(3, 1, 0), F.elem(1, 2, 0)
        words = [(e, e, e), (e, e, f)]
        for pat in enumerate_triples(spec.n):
            y = received(spec, random_message(spec, rng), pat.kept)
            moved = tuple(ExtElem(F, sym.coords) for sym in y)
            words += [moved, (y[0], y[1], moved[2])]
        for word in words:
            for decode in (decode_cubic, decode_linear):
                with pytest.raises(FieldMismatchError):
                    decode(spec, ReceivedTriple(*word))
        for decode in (decode_cubic, decode_linear):
            with pytest.raises(FieldMismatchError):
                decode(spec, tuple(y) + (moved[2],))
        with pytest.raises(FieldMismatchError):
            interpolate(spec, 1, 2, e, f)
        with pytest.raises(FieldMismatchError):
            ratio(ReceivedTriple(spec.ext.one, spec.ext.zero, f))


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
            ReceivedTriple(*word)
        for decode in (decode_cubic, decode_linear):
            with pytest.raises(FieldMismatchError):
                decode(spec, word + (e,))
    # and a later symbol of a longer word, after a valid channel output
    valid = tuple(encode(spec, Message(e, spec.ext.one)))[:4]
    for bad in ((1, 2, 3), 5, None):
        for decode in (decode_cubic, decode_linear):
            with pytest.raises(FieldMismatchError):
                decode(spec, valid + (bad,))


@pytest.mark.parametrize("p", (10007, (1 << 61) - 1, (1 << 64) - 59))
def test_non_canonical_coordinates_raise_parameter_error(p):
    # a coordinate outside [0, p) is refused when the word is built, with
    # the error load_symbols raises for it, at every position alike: no
    # position may reduce c0 + p silently or read it as a rejection, and
    # an int past 2^64 must not reach numpy as an OverflowError
    spec = get_spec(p, 64)
    ext = spec.ext
    cw = encode(spec, random_message(spec, random.Random(p % 1000)))
    word = tuple(apply_deletions(cw, DeletionPattern((3, 9, 20, 30))))
    for decode in (decode_cubic, decode_linear):
        assert decode(spec, word).kappa.kept == (3, 9, 20, 30)
    for at in range(4):
        c0, c1, c2 = word[at].coords
        for bad in ((c0 + p, c1, c2), (c0, c1, c2 - p), (max(p, 1 << 63), c1, c2),
                    (1 << 70, 0, 0), (float(c0), c1, c2)):
            moved = word[:at] + (ExtElem(ext, bad),) + word[at + 1:]
            for decode in (decode_cubic, decode_linear):
                with pytest.raises(ParameterError):
                    decode(spec, moved)
                if at < 3:
                    with pytest.raises(ParameterError):
                        decode(spec, moved[:3])
            if at < 3:
                with pytest.raises(ParameterError):
                    ReceivedTriple(*moved[:3])


def test_decoders_take_words_of_three_to_n_symbols():
    # a decoder refuses a length outside 3..n before it reads a symbol, and
    # a y that is not a sequence with ParameterError, not a bare TypeError;
    # an ExtElem tuple is built into a word, and a whole codeword decodes
    # as the word of all n symbols
    spec, cw, e, _ = reason_words()
    codeword = encode(spec, Message(e, spec.ext.one))
    word = apply_deletions(codeword, DeletionPattern((1, 2, 3, 4)))
    full = apply_deletions(codeword, DeletionPattern(tuple(range(1, spec.n + 1))))
    for decode in (decode_cubic, decode_linear):
        for y in (word[:2], word[:0], cw[:2], cw + (cw[0],), ("not", "symbols")):
            assert rejection_reason(decode, spec, y) == "length"
        for y in (None, 5, object()):
            with pytest.raises(ParameterError, match="must be a sequence"):
                decode(spec, y)
        for y in (word[:3], word, full, codeword):
            assert decode(spec, tuple(y)) == decode(spec, y)
        out = decode(spec, codeword)
        assert out.codeword == codeword and out.kappa.kept == tuple(range(1, spec.n + 1))


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
        y = received(spec, m, kept)
        num, den = ratio(y)
        beta = beta_of(y)
        assert _search_triple(spec, num.coords, den) == kept
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
    order, so a delta's position is not its value."""
    return [build_code(p, n, rng.sample(range(1, p), n)) for n in (3, p - 2, p - 1)]


@pytest.mark.parametrize("p", (5, 7))
def test_search_kernels_match_reference_every_beta(p):
    # delta = 1..n and random deltas: the quadratic map is injective, so
    # every triple has its own ratio and the matches partition the triples
    for spec in [get_spec(p, p - 1)] + random_delta_specs(p, random.Random(p)):
        matches = every_beta_matches(spec)
        assert max(map(len, matches)) == 1
        assert sum(map(len, matches)) == comb(spec.n, 3)


def key_runs(spec, beta):
    """The positions (0-based) that share each join key: the
    gamma^2-coordinate of lam*alpha_i, lam = (1 + beta)^-1, one field
    product per position."""
    ext = spec.ext
    lam = ext.inv(ext.add(beta, (1, 0, 0)))
    runs = {}
    for i in range(spec.n):
        runs.setdefault(ext.mul(lam, spec.alpha_coords(i + 1))[2], []).append(i)
    return runs


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_join_key_shared_by_at_most_two_positions(p):
    # on the parabola, for every beta outside F_p, no three positions share
    # a key (key(d) is a nonzero polynomial of degree <= 2 without constant
    # term); pairs do occur
    spec = build_code(p, p - 1)
    longest = Counter()
    for beta in product(range(p), repeat=3):
        if beta[1:] != (0, 0):
            longest[max(map(len, key_runs(spec, beta).values()))] += 1
    assert set(longest) == {1, 2} and sum(longest.values()) == p ** 3 - p, longest


def partner_sum(spec, beta):
    """(c, sigma): c is the gamma^2-coordinate of lam*gamma and
    sigma = -l2/c (None when c = 0), so key(d) = l2*d + c*d^2."""
    ext, p = spec.ext, spec.p
    lam = ext.inv(ext.add(beta, (1, 0, 0)))
    c = ext.mul(lam, (0, 1, 0))[2]
    return c, (-lam[2] * pow(c, -1, p) % p if c else None)


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_partner_sum_names_the_equal_key_pairs(p):
    # the claim the search rests on: for every beta outside F_p, two
    # distinct positions share a join key exactly when d_i + d_k = sigma.
    # c = 0 leaves every key distinct; on the full spec (every nonzero
    # delta) c = 0 is also the only way to have no equal keys
    specs = [build_code(p, p - 1)] + random_delta_specs(p, random.Random(p * 100))
    for spec in specs:
        d = spec.delta
        injective = 0
        for beta in product(range(p), repeat=3):
            if beta[1:] == (0, 0):
                continue
            runs = key_runs(spec, beta)
            equal_key = {(i, k) for run in runs.values() for i, k in combinations(run, 2)}
            c, sigma = partner_sum(spec, beta)
            distinct = len(runs) == spec.n
            if c == 0 or spec.n == p - 1:
                assert distinct == (c == 0), (spec.delta, beta)
            injective += c == 0
            by_sum = set() if c == 0 else {
                (i, k) for i, k in combinations(range(spec.n), 2) if (d[i] + d[k]) % p == sigma}
            assert by_sum == equal_key, (spec.delta, beta)
        assert injective > 0


def test_search_skips_the_self_partnered_position():
    # sigma = 2*d for the delta d = 3 at position 1, whose partner is
    # itself (u = 0): its point w is alpha_1, which always lies on the
    # parabola.  The true triple (2, 4, 5) has d_i + d_k = 1 + 5 = 6 = 2*3
    # and comes after it, so the search must skip position 1 to find it
    spec = build_code(11, 10, (3, 1, 2, 4, 5, 6, 7, 8, 9, 10))
    beta = gamma_map(spec, 2, 4, 5).coords
    assert partner_sum(spec, beta)[1] == 2 * spec.delta[0] % spec.p
    assert _search_triple(spec, beta) == (2, 4, 5)
    assert list(reference_matches(spec, beta)) == [(2, 4, 5)]


def parabola_candidates(spec, beta):
    """(equal-key pairs, pairs whose point lam*alpha_i + (1 - lam)*alpha_k
    lies on the parabola w1 == w0^2, positions whose forced partner value
    d_k = sigma - d_i != d_i lies outside the code, and positions whose point
    with that partner lies on the parabola), in Python field arithmetic."""
    ext, p = spec.ext, spec.p
    lam = ext.inv(ext.add(beta, (1, 0, 0)))
    rest = ext.sub((1, 0, 0), lam)
    alpha = [spec.alpha_coords(i) for i in range(1, spec.n + 1)]
    pairs = on_parabola = 0
    for run in key_runs(spec, beta).values():
        for i, k in combinations(run, 2):
            w = ext.add(ext.mul(lam, alpha[i]), ext.mul(rest, alpha[k]))
            assert w[2] == 0  # key(i) - key(k)
            pairs += 1
            on_parabola += w[1] == w[0] * w[0] % p
    outside = forced_on_parabola = 0
    sigma = partner_sum(spec, beta)[1]
    for d in (() if sigma is None else spec.delta):
        dk = (sigma - d) % p
        if dk == d:
            continue  # u = 0: the point is alpha_i itself
        outside += dk not in spec.delta_index
        w = ext.add(ext.mul(lam, (d, d * d % p, 0)), ext.mul(rest, (dk, dk * dk % p, 0)))
        assert w[2] == 0
        forced_on_parabola += w[1] == w[0] * w[0] % p
    return pairs, on_parabola, outside, forced_on_parabola


@pytest.mark.parametrize("p", (11, 13, 17))
def test_join_has_at_most_one_parabola_candidate(p):
    # the claim that lets the search take the first position passing its
    # parabola test: for every beta outside F_p, at most one equal-key pair
    # names a point with w1 == w0^2 (the ratio fixes the triple), although a
    # beta has up to n/2 equal-key pairs; every kept triple's ratio has one.
    # The search tests every position with its forced partner, in both
    # orders of a pair and with partners outside the code: at most one of
    # those passes as well
    rng = random.Random(p * 7)
    specs = [build_code(p, p - 1)] + [build_code(p, n, rng.sample(range(1, p), n))
                                      for n in (p - 1, p - 3)]
    for spec in specs:
        most_pairs = hits = outside = forced_hits = 0
        for beta in product(range(p), repeat=3):
            if beta[1:] == (0, 0):
                continue
            pairs, on_parabola, out, forced = parabola_candidates(spec, beta)
            assert on_parabola <= 1 and forced <= 1, (spec.delta, beta)
            most_pairs = max(most_pairs, pairs)
            hits += on_parabola
            outside += out
            forced_hits += forced
        assert most_pairs >= 3, most_pairs
        assert hits >= comb(spec.n, 3), hits
        assert forced_hits >= hits and outside > 0, (forced_hits, outside)


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
    # on both sides of 2^30 and of 2^63 (2^63 - 25 is the largest prime
    # below it): the int64 matmul, the uint64 split kernel and Python ints,
    # each on all n rows; every kept triple is a hit (a sample of them at
    # n = 20), random betas are misses, and beta = 0 never matches
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


@pytest.mark.parametrize("p", (10007, 1073741789, (1 << 61) - 1, (1 << 64) - 59))
def test_search_product_covers_every_row(monkeypatch, p):
    # one search path for every regime: the product tests all n rows of
    # spec._lifted, on a kept triple and on a miss, Python ints included
    n = 40
    spec = get_spec(p, n)
    rows = []

    def recording(*args):
        column = _lifted_product(*args)
        rows.append(len(column))
        return column

    monkeypatch.setattr(decoder, "_lifted_product", recording)
    m = random_message(spec, random.Random(p % 991))
    for kept in ((1, n // 2, n), (7, 8, 31)):
        rows.clear()
        assert decode_cubic(spec, received(spec, m, kept)).kappa.kept == kept
        assert rows == [n], kept
    rows.clear()
    with pytest.raises(UnrecognizedReceivedWordError) as exc:
        decode_cubic(spec, rejection_words(spec)["random-garbage"])
    assert exc.value.reason == "search-miss" and rows == [n]


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
        reason = None if kept else "search-miss"
        found = _search(spec, spec.ext.elem(*beta), 1)
        assert found == (kept, reason), (spec.p, spec.n, kept)
        assert _search_ops(spec, *found) == want, (spec.p, spec.n, kept)


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
    # its join key is -d, distinct at every position (c = 0), so the search
    # returns before its pass over the positions
    spec = get_spec(10007, 2048)
    ext = spec.ext
    y = ReceivedTriple(ext.elem(10006, 1, 0), ext.zero, -ext.one)
    assert beta_of(y).coords == (10006, 1, 0)
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
    assert beta_of(y).coords == (2, 0, 0)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        with pytest.raises(UnrecognizedReceivedWordError):
            decode_cubic(spec, y)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.045


def test_decode_cubic_memory_bound():
    # O(n) memory on a spec's first decode: no n x n comparison table, no
    # filter table and nothing kept with the spec, only the search's one
    # product column of n entries (with its int64 cast and the reduction's
    # quotients), and the re-encode (0.20 MB measured)
    spec = build_code(10007, 4096)
    m = random_message(spec, random.Random(4096))
    y = received(spec, m, (1, 2, 3))
    tracemalloc.start()
    try:
        out = decode_cubic(spec, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.kappa.kept == (1, 2, 3) and out.message == m
    assert peak <= 250_000


def test_decode_cubic_keeps_no_state_per_spec():
    # decoding the same words in two orders on fresh specs gives the same
    # outcomes and counts: no decode leaves anything behind for the next
    def fresh_specs():
        return [
            build_code(10007, 40),
            build_code(11, 10),
            # deltas out of order
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
    assert len({(s, beta_of(y).coords) for s, y in words}) > len(words) // 2

    def decode_all(order):
        specs = fresh_specs()
        results = {}
        for w in order:
            s, y = words[w]
            inst = DecodeInstrumentation()
            try:
                out = decode_cubic(specs[s], y, inst)
                results[w] = (out.kappa.kept, out.codeword.symbol_tuples(), inst.total_ops)
            except UnrecognizedReceivedWordError:
                results[w] = (None, None, inst.total_ops)
        return results

    order = list(range(len(words)))
    shuffled = order[:]
    rng.shuffle(shuffled)
    assert decode_all(order) == decode_all(shuffled)


@pytest.mark.parametrize("p,n", (((1 << 61) - 1, 64), (1073741789, 96)))
def test_decode_cubic_matches_linear_large_p(p, n):
    # field arithmetic in Python ints (p > 2^30), and the search's product
    # in the int64 matmul (1073741789) or the uint64 split kernel (2^61 - 1)
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


def outcome(decode, spec, y):
    """(kept, message, codeword) of a decode, or the rejection's type."""
    try:
        out = decode(spec, y)
    except (UnrecognizedReceivedWordError, InconsistentReceivedWordError) as exc:
        return type(exc)
    return out.kappa.kept, out.message, out.codeword


@pytest.mark.parametrize("p, dtype", ((54794149, "float64"), (54794197, "int64")))
def test_search_product_exact_at_the_dtype_edge(p, dtype):
    # the search's parabola test is one product of _lifted's rows
    # (1, d, d^2) with three residues, in float64 up to 54794149 (the last
    # prime below field._FLOAT64_PRODUCT_MAX_P) and in int64 from 54794197.
    # Deltas from the top 5000 residues put d near p, and d^2 mod p, which
    # is k^2 for d = p - k, up to about p/2, so the product's entries come
    # within a factor of 2 of its bound (p-1) + 2(p-1)^2
    rng = random.Random(p)
    top = range(p - 5000, p)
    spec = build_code(p, 200, rng.sample(top, 200))
    assert spec._lifted.dtype == dtype
    assert max(spec._lifted[:, 2]) > p // 3
    kept = [tuple(sorted(rng.sample(range(1, 201), 3))) for _ in range(300)]
    for t in kept:
        m = random_message(spec, rng)
        y = received(spec, m, t)
        assert outcome(decode_cubic, spec, y) == outcome(decode_linear, spec, y) \
            == (t, m, encode(spec, m))
    rejected = 0
    for _ in range(300):
        y = ReceivedTriple(*(spec.ext.rand(rng) for _ in range(3)))
        a = outcome(decode_cubic, spec, y)
        assert a == outcome(decode_linear, spec, y)
        rejected += a is UnrecognizedReceivedWordError
    assert rejected > 290
    small = build_code(p, 10, rng.sample(top, 10))
    betas = [gamma_map(small, *t.kept).coords for t in enumerate_triples(10)]
    betas += [small.ext.rand(rng).coords for _ in range(20)]
    assert sum(bool(assert_kernels_match_reference(small, beta)) for beta in betas) >= 120


def test_decode_cubic_large_p_thousands():
    # p = 2^64 - 59 at n = 4096: above 2^63 the search's product runs on
    # all n rows in Python ints.  It stays in milliseconds on the mid pair
    # (1, n/2, n), on a random miss and in a decode_cubic of a garbage word
    # (search-miss): 1-1.5 ms each at this p and n, 2-vCPU x86-64 VM
    p, n = (1 << 64) - 59, 4096
    spec = build_code(p, n)
    rng = random.Random(n)
    patterns = [(1, 2, 3), (1, n // 2, n), (n - 2, n - 1, n)]
    patterns += [tuple(sorted(rng.sample(range(1, n + 1), 3))) for _ in range(3)]
    for kept in patterns:
        m = random_message(spec, rng)
        y = received(spec, m, kept)
        a, b = decode_cubic(spec, y), decode_linear(spec, y)
        assert a.kappa.kept == b.kappa.kept == kept and a.codeword == b.codeword
    for beta, want in ((gamma_map(spec, 1, n // 2, n).coords, (1, n // 2, n)),
                       (spec.ext.rand(rng).coords, None)):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            assert _search_triple(spec, beta) == want
            times.append(time.perf_counter() - t0)
        assert min(times) < 0.02, times
    garbage = ReceivedTriple(*(spec.ext.rand(rng) for _ in range(3)))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        with pytest.raises(UnrecognizedReceivedWordError) as exc:
            decode_cubic(spec, garbage)
        times.append(time.perf_counter() - t0)
        assert exc.value.reason == "search-miss"
    assert min(times) < 0.02, times


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
        "solve-r-zero": with_ratio(ext.elem(2)),  # beta in F_p: r = 0
        "solve-den-zero": with_ratio(ext.elem(0, 1, 0)),  # (0, 1, 0, 1, 0, 0): den = 0
        "locator-outside": with_ratio(ratio(1, 2, 5000)),
        "locators-out-of-order": with_ratio(ratio(30, 12, 5)),
        "random-garbage": ReceivedTriple(ext.elem(17, 4, 99), ext.elem(3, 1, 4),
                                         ext.elem(1, 5, 9)),
        "constant-zero": ReceivedTriple(ext.zero, ext.zero, ext.zero),
        "constant": ReceivedTriple(*[ext.elem(3, 4, 5)] * 3),
    }


@pytest.mark.parametrize("p", (10007, (1 << 61) - 1, (1 << 64) - 59))
def test_unprobed_decode_prices_nothing(monkeypatch, p):
    # without a probe no price is evaluated: with every price function and
    # the scan's price raising, both decoders still decode a hit, a constant
    # word and a longer word, and reject with the reasons their
    # identifications give
    spec = get_spec(p, 48)
    m = random_message(spec, random.Random(p % 983))
    cw = encode(spec, m)
    hit, longer = (apply_deletions(cw, DeletionPattern(kept))
                   for kept in ((4, 20, 33), (2, 9, 17, 30, 41, 48)))
    words = rejection_words(spec)
    garbage = {name: y for name, y in words.items() if not name.startswith("constant")}
    reasons = {name: _closed_form(spec, *ratio(y))[1] for name, y in garbage.items()}
    assert reasons["locators-out-of-order"] == "order"

    def unpriced(*args):
        raise AssertionError("a decode without a probe evaluated a price")

    for name in ("_closed_form_ops", "_search_ops", "_scan_ops"):
        monkeypatch.setattr(decoder, name, unpriced)
    for decode, path in ((decode_linear, PATH_CLOSED_FORM), (decode_cubic, PATH_FALLBACK)):
        for y, kept in ((hit, (4, 20, 33)), (longer, (2, 9, 17, 30, 41, 48))):
            out = decode(spec, y)
            assert (out.message, out.codeword, out.kappa.kept, out.path) == (m, cw, kept, path)
        for name in ("constant", "constant-zero"):
            out = decode(spec, words[name])
            assert out.path == PATH_CONSTANT and out.kappa.kept == ()
        for name, y in garbage.items():
            with pytest.raises(UnrecognizedReceivedWordError) as exc:
                decode(spec, y)
            assert exc.value.reason == (reasons[name] if decode is decode_linear
                                        else "search-miss"), name
    with pytest.raises(AssertionError, match="without a probe"):
        decode_cubic(spec, hit, DecodeInstrumentation())


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


def unrecognized_reason(call, *args):
    with pytest.raises(UnrecognizedReceivedWordError) as info:
        call(*args)
    return info.value.reason


def test_unrecognized_reason_degenerate_solve():
    spec = get_spec(10007, 48)
    words = rejection_words(spec)
    for name in ("solve-r-zero", "solve-den-zero"):
        assert unrecognized_reason(decode_linear, spec, words[name]) == "degenerate-solve"


def test_unrecognized_reason_locator_not_in_code():
    # a solved delta outside 1..48 reads position 0, which names this check
    # before the order check, also when the positions do not increase
    spec = get_spec(10007, 48)
    ext = spec.ext
    words = rejection_words(spec)
    assert unrecognized_reason(decode_linear, spec, words["locator-outside"]) \
        == "locator-not-in-code"
    alpha = [ext.elem(d, d * d, 0) for d in (5000, 2, 1)]
    y = ReceivedTriple(*alpha)
    assert unrecognized_reason(decode_linear, spec, y) == "locator-not-in-code"


def test_unrecognized_reason_order():
    spec = get_spec(10007, 48)
    words = rejection_words(spec)
    assert unrecognized_reason(decode_linear, spec, words["locators-out-of-order"]) == "order"
    # the points of kept positions 30, 12, 5 in that order
    cw = encode(spec, random_message(spec, random.Random(30)))
    y = ReceivedTriple(cw[29], cw[11], cw[4])
    assert unrecognized_reason(decode_linear, spec, y) == "order"


@pytest.mark.parametrize("p", (10007, (1 << 61) - 1, (1 << 64) - 59))
def test_unrecognized_reason_search_miss(p):
    # every miss of the cubic search names one reason: a ratio in F_p, an
    # injective key (beta = -1 + gamma), a failed parabola test, and a
    # passing position whose triple does not increase (30, 12, 5); on words
    # of three and of four symbols
    spec = get_spec(p, 48)
    ext = spec.ext
    words = [y for name, y in rejection_words(spec).items() if not name.startswith("constant")]
    words.append(ReceivedTriple(ext.elem(p - 1, 1, 0), ext.zero, -ext.one))
    cw = encode(spec, random_message(spec, random.Random(p % 1000)))
    words.append(ReceivedTriple(cw[29], cw[11], cw[4]))
    for y in words:
        assert unrecognized_reason(decode_cubic, spec, y) == "search-miss"
        assert unrecognized_reason(decode_cubic, spec, tuple(y) + (cw[47],)) == "search-miss"


def test_unrecognized_reason_third_point(monkeypatch):
    # a guard that honest identifications never reach (the ratio fixes the
    # third point), reached through a shifted interpolation
    spec = get_spec(10007, 48)
    y = received(spec, random_message(spec, random.Random(48)), (4, 20, 33))

    def shifted(spec, i, j, y_i, y_j):
        return interpolate(spec, i, j + 1, y_i, y_j)

    monkeypatch.setattr(decoder, "interpolate", shifted)
    for decode in (decode_linear, decode_cubic):
        assert unrecognized_reason(decode, spec, y) == "third-point"


@pytest.mark.parametrize("p", (10007, 1073741789, (1 << 61) - 1, (1 << 64) - 59))
def test_two_inversions_per_decode(monkeypatch, p):
    # a non-constant decode runs exactly two F_p inversions, one to identify
    # the triple and one in interpolate's F_{p^3} inverse; compute_beta runs
    # none, and a rejection at most the identification's one
    spec = get_spec(p, 48)
    rng = random.Random(p % 991)
    valid = [received(spec, random_message(spec, rng), tuple(sorted(rng.sample(range(1, 49), 3))))
             for _ in range(8)]
    garbage = [y for name, y in rejection_words(spec).items() if not name.startswith("constant")]
    calls = Counter()
    real_pow, real_inv = pow, CubicField.inv

    def counting_pow(base, exp, mod=None):
        calls["pow", exp] += 1
        return real_pow(base, exp, mod)

    def counting_inv(self, x):
        calls["inv"] += 1
        return real_inv(self, x)

    for module in (decoder, field_module):
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    monkeypatch.setattr(CubicField, "inv", counting_inv)
    for y in valid + garbage:
        calls.clear()
        ratio(y)
        assert not calls
    for decode in (decode_linear, decode_cubic):
        for y in valid:
            calls.clear()
            decode(spec, y)
            assert calls == {("pow", -1): 2, "inv": 1}, (decode, calls)
        for y in garbage:
            calls.clear()
            with pytest.raises(UnrecognizedReceivedWordError):
                decode(spec, y)
            assert calls[("pow", -1)] <= 1 and set(calls) <= {("pow", -1)}, (decode, calls)
