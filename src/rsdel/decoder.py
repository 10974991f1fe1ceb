"""Decoders that recover a codeword from any channel output of 3..n symbols.

Both decoders start from the invariant ratio

    beta = (y1 - y2) / (y2 - y3)
         = (alpha_k1 - alpha_k2) / (alpha_k2 - alpha_k3)

where (k1, k2, k3) are the unknown kept positions.  The cubic decoder is the
paper's exhaustive decoder: it returns the increasing triple whose ratio
matches, found by a join (see the triple search below) rather than a scan of
all C(n,3) triples; the ratio fixes that triple (below), so it is also the
scan's first match.  The linear decoder reads the kept delta values straight
out of beta:  writing beta = a*gamma^2 + b*gamma + c and
beta*gamma = r*gamma^2 + s*gamma + t, the kept positions satisfy

    p2 = a*(d3 - d2) + r*(d3^2 - d2^2)                       = 0
    p0 = d1 - d2 + c*(d3 - d2) + t*(d3^2 - d2^2)             = 0
    p1 = d1^2 - d2^2 + b*(d3 - d2) + s*(d3^2 - d2^2)         = 0

(d_m short for delta_{k_m}), which collapses to a closed form: with
theta = a/r,

    d2 = (b - theta*(c^2 + s - 2*c*t*theta + t^2*theta^2))
         / (2*(c + c^2 - 2*c*t*theta + t*theta*(t*theta - 1)))
    d3 = -d2 - theta
    d1 = d2*(1 + 2*c - 2*t*theta) + theta*(c - t*theta)

The quadratic behind d2 has a second root -a/(2r); it forces d2 = d3 and is
never returned.

The decoders never form beta itself.  compute_beta returns it as a fraction
num/den with den = N(y2 - y3) in F_p^*, the norm, so no inversion happens
there.  The coefficients are linear in beta, so those of num are
(A, B, C, R, S, T) = den*(a, b, c, r, s, t), and solve_deltas runs the
closed form above with its denominators cleared: with u = C*R - A*T and
DR = den*R,

    DEN = 2*u*(u + DR)                      = den^2*R^2 * (d2's denominator)
    NUM = DR*R*(B*R - A*S) - A*u^2          = den^2*R^3 * (d2's numerator)
    W   = (DEN*DR*R)^-1,   V = DEN*W        = (den*R^2)^-1
    d2 = NUM*DR*W,   theta = A*DR*V,   d3 = -d2 - theta,
    d1 = V*(d2*(DR + 2*u)*R + A*u)

with one F_p inverse, W.  R = 0 exactly when r = 0, and DEN = 0 exactly when
d2's denominator is 0, the two rejections.

The closed form never degenerates on a channel output.  For a true triple
with distinct locators, p2 gives a = -r*(d2 + d3).  If r = 0 then a = 0 and
b = r + a*g2 = 0, so beta = c lies in F_p, and p0, p1 then force
(d1 - d2)*(d1 - d3) = 0; hence r != 0 and theta = -(d2 + d3).  Substituting
d3 = -d2 - theta into p0 gives c - t*theta = (d2 - d1)/(d3 - d2) =: u, and
the denominator above is exactly 2*u*(u + 1) with u + 1 = (d3 - d1)/(d3 - d2),
nonzero as well.  A nondegenerate solve returns the unique solution, so when
the solver returns None, or locators outside the code or out of order, no
increasing triple explains beta and the word is rejected; a triple search
could find nothing.  The same algebra shows the ratio map is injective on
increasing triples for every spec built from the quadratic map (two triples
with one ratio yield the same solve), and verify.check_injectivity stays as
the independent empirical oracle for that claim.

Both decoders run one pipeline, _decode, on a word of 3 <= m <= n symbols:
the ratio of its first three (a constant word decodes at once), the kept
triple (_closed_form or _search, the only difference), interpolation and
the third-point check, the re-encode, and then the check that every later
symbol is a codeword symbol after the one before it.  The stages take no
instrumentation; _decode prices every one at the counts below.  A
non-constant decode runs two F_p inversions: one to identify the triple
(solve_deltas's W, or the search's W) and one in interpolate.  A
rejection names its check in the reason of its
UnrecognizedReceivedWordError or InconsistentReceivedWordError.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from .channel import DeletionPattern
from .code import (
    CodeSpec,
    Codeword,
    Message,
    ReceivedWord,
    _lifted_product,
    encode,
    interpolate,
)
from .errors import (
    FieldMismatchError,
    InconsistentReceivedWordError,
    ParameterError,
    UnrecognizedReceivedWordError,
)
from .field import CubicField, ExtElem

PATH_CLOSED_FORM = "closed-form"
PATH_FALLBACK = "triple-search"  # the decode_cubic path; perfbench reads this name
PATH_CONSTANT = "constant"

# Nominal F_p costs per operation, used by the instrumentation so counts are
# exactly reproducible and do not move when a kernel is rewritten.
# add/sub/mul/inv on F_p cost 1; extension ops are priced at their schoolbook
# decomposition.
OPS_EXT_ADD = 3
OPS_EXT_SUB = 3
OPS_EXT_MUL = 25
OPS_EXT_INV = 80
OPS_BETA = 2 * OPS_EXT_SUB + OPS_EXT_INV + OPS_EXT_MUL
OPS_SOLVE = 24              # the closed form, priced as when it ran two F_p inversions
OPS_INTERPOLATE = 2 * OPS_EXT_SUB + OPS_EXT_INV + 2 * OPS_EXT_MUL
OPS_THIRD_POINT = OPS_EXT_MUL + OPS_EXT_ADD
OPS_ENCODE_PER_SYMBOL = 15  # nominal: one row of the alpha @ M_{m2} matmul plus m1
OPS_SEARCH_SETUP_PER_POS = OPS_EXT_MUL + OPS_EXT_ADD  # beta*alpha_j, target per j
OPS_SEARCH_ROW_PER_ENTRY = OPS_EXT_ADD  # candidate sum per scanned k entry
OPS_SEARCH_PER_TRIPLE = 1   # one ratio test per triple of the Theta(n^3) scan
OPS_LOOKUP_PER_SYMBOL = 3   # nominal: a codeword symbol's three coordinates into the lookup
OPS_LATER_PER_SYMBOL = 3    # nominal: a later symbol's three coordinates located or compared


@dataclass
class DecodeInstrumentation:
    """Field-operation and timing probe threaded through one or more decodes.

    _decode prices every stage, and only for a decode given a probe: one
    without reads no clock and evaluates no price.  total_ops accumulates
    every priced operation; search_ops and search_seconds only those spent
    identifying the kept triple (beta, coefficient extraction and solving
    for the linear path; beta plus the triple search for the cubic path),
    rejections too.
    """

    total_ops: int = 0
    search_ops: int = 0
    search_seconds: float = 0.0


def ReceivedTriple(y1: ExtElem, y2: ExtElem, y3: ExtElem) -> ReceivedWord:
    """The received word (y1, y2, y3): ReceivedWord's three-symbol
    constructor, with its checks."""
    return ReceivedWord((y1, y2, y3))


def _received_word(symbols, n: int) -> ReceivedWord:
    """symbols as a ReceivedWord, built (and so checked) here unless it is
    one.  Raises ParameterError first when symbols cannot be iterated, then
    InconsistentReceivedWordError("length") for a length outside 3..n."""
    if isinstance(symbols, ReceivedWord):
        word, m = symbols, len(symbols.coords)
    else:
        try:
            symbols = tuple(symbols)
        except TypeError:
            raise ParameterError(
                f"received symbols must be a sequence, got {type(symbols).__name__}") from None
        word, m = None, len(symbols)
    if not 3 <= m <= n:
        raise InconsistentReceivedWordError(
            f"expected 3 to {n} received symbols, got {m}", "length")
    return word if word is not None else ReceivedWord(symbols)


@dataclass
class DecodeOutcome:
    message: Message
    codeword: Codeword
    kappa: DeletionPattern
    path: str


def compute_beta(ext: CubicField, y1, y2, y3):
    """The ratio (y1 - y2) / (y2 - y3) of three received symbols of the
    field ext, given as canonical coordinate triples (the rows of a
    three-symbol ReceivedWord, which checked them when it was built), as a
    fraction (num, den), or None when the three are equal.

    beta = num/den with num = (y1 - y2)*adj(y2 - y3), an ExtElem, and
    den = N(y2 - y3), the norm, a nonzero int of F_p: CubicField._adjugate
    gives both, and nothing is inverted.  Exactly two equal symbols cannot
    come out of the channel: a degree-one codeword is constant (m2 = 0) or
    injective on evaluation points.
    """
    e12 = y1 == y2
    e23 = y2 == y3
    if e12 and e23:
        return None
    if e12 or e23 or y1 == y3:
        raise InconsistentReceivedWordError(
            "exactly two of three received symbols are equal", "two-equal")
    adj, den = ext._adjugate(ext.sub(y2, y3))
    return ExtElem(ext, ext.mul(ext.sub(y1, y2), adj)), den


def extract_coefficients(beta: ExtElem):
    """Read (a, b, c, r, s, t) from beta and beta*gamma.

    beta = a*gamma^2 + b*gamma + c, beta*gamma = r*gamma^2 + s*gamma + t.
    Equivalently r = b - a*g2, s = c - a*g1, t = -a*g0.  Linear in beta, so
    on a fraction's num it gives den times the coefficients of num/den.
    """
    c, b, a = beta.coords
    t, s, r = beta.field.mul_matrix(beta.coords)[1]
    return (a, b, c, r, s, t)


def solve_deltas(p: int, coeffs, den: int = 1):
    """Closed-form kept delta values (d1, d2, d3), or None.

    p is the odd prime of the field; coeffs are the coefficients of num,
    and the ratio is num/den, den nonzero in F_p (compute_beta's fraction;
    den = 1 when coeffs are beta's own).  The closed form runs with its denominators cleared (see
    the module docstring), with one F_p inverse.  None is returned when
    r = 0 (theta undefined) or the d2 denominator is 0 (the quadratic
    degenerates).  Neither happens for coefficients of a true locator
    triple (see the module docstring), so None means no triple explains
    beta.  The alternate quadratic root -a/(2r) is never produced; it would
    force d2 = d3.
    """
    A, B, C, R, S, T = coeffs
    if R % p == 0:
        return None
    DR = den * R % p
    u = (C * R - A * T) % p
    DEN = 2 * u * (u + DR) % p
    if DEN == 0:
        return None
    NUM = (DR * R * (B * R - A * S) - A * u * u) % p
    W = pow(DEN * DR * R, -1, p)
    V = DEN * W % p   # (den*R^2)^-1
    d2 = NUM * DR * W % p
    theta = A * DR * V % p
    d3 = (-d2 - theta) % p
    d1 = V * (d2 * (DR + 2 * u) * R + A * u) % p
    return (d1, d2, d3)


# -- triple search -------------------------------------------------------
#
# The paper's exhaustive decoder tests Gamma(i, j, k) == beta on every
# increasing triple, without divisions:
#
#     alpha_i - alpha_j == beta * (alpha_j - alpha_k)
#     <=>  alpha_i + beta*alpha_k == (1 + beta)*alpha_j
#     <=>  lam*alpha_i + (1 - lam)*alpha_k == alpha_j,   lam = (1 + beta)^-1.
#
# The nominal count always prices the Theta(n^3) scan up to the match row
# (_search_ops), so the counts do not depend on the kernel; _decode
# evaluates that price only under a probe.
#
# The search serves the paper's code only (_decode refuses every other
# spec), whose points alpha = (d, d^2, 0) lie in the gamma^2 = 0 plane.
# There the gamma^2-coordinate of a match reads key(i) == key(k), where
# key(i) is the gamma^2-coordinate of lam*alpha_i.  With
# lam = l0 + l1*gamma + l2*gamma^2 and gamma^3 = h0 + h1*gamma + h2*gamma^2,
# key(d) = l2*d + c*d^2 with c = l1 + l2*h2, the gamma^2-coordinate of
# lam*gamma.  key(d) - key(d') = (d - d')*(l2 + c*(d + d')).  If c == 0 then
# l2 != 0 (else l1 == 0 too and lam lies in F_p), the key is injective and
# nothing matches.  Otherwise two distinct positions share a key exactly
# when d_i + d_k == sigma := -l2/c: each position has one partner value
# d_k = sigma - d_i, so the join needs no key column and no sort.
#
# For such a pair alpha_i - alpha_k = u*(1 + sigma*gamma) with
# u = d_i - d_k, so the one point that could complete it is
# w = lam*alpha_i + (1 - lam)*alpha_k = alpha_k + u*v, v = lam*(1 + sigma*gamma),
# and v2 = l2 + sigma*c = 0.  Per position, with d = d_i, d_k = sigma - d
# and u = 2d - sigma, that is w0 = d_k + u*v0 and w1 = d_k^2 + u*v1, both
# affine in the position's row (1, d, d^2) of spec._lifted:
#
#     w0 = C + D*d,          C = sigma*(1 - v0),     D = 2*v0 - 1,
#     w1 = A + B*d + d^2,    A = sigma^2 - sigma*v1, B = 2*v1 - 2*sigma.
#
# w is a point of the parabola only if w1 == w0^2, and
#
#     w1 - w0^2 = (A - C^2) + (B - 2*C*D)*d + (1 - D^2)*d^2 = (1, d, d^2) . q,
#
# so the test at every position is one product _lifted @ q, the encoder's
# kernel (code._lifted_product), with q three F_p scalars per decode.  The
# form vanishes at the one delta with 2*d == sigma (u == 0), whose
# "partner" is itself: its w is alpha_i, which always passes, and the
# search skips it.  With u != 0, (d_i, w0, d_k) are distinct values of F_p
# whose points have ratio beta (w0 == d_i would make lam == 1, w0 == d_k
# would make lam == 0).  The closed form fixes such a value triple from
# beta alone (module docstring), so at most one such position passes, and
# at most two positions read 0 in all.  q is not solved: it factors as
# u*l(d) with l linear, and l's root is the match, but solving it would
# make a second closed form, and the cubic decoder would stop being an
# independent check of decode_linear.  The test of the paper's equation
# runs at every position instead.  The passing position's j and k are
# read as the closed form reads its locators, spec.delta_index.get(w0, 0)
# and .get(d_k, 0) (a value outside the code reads 0), and the position is
# a match when i < j < k.  Both orientations of a pair are tested, and
# the one with i > k fails that order test.  The match is unique, so it is
# also the scan's lexicographically first.
#
# lam is never formed.  With beta = num/den (compute_beta's fraction),
# lam = den/(den + num), and the search keeps it scaled as
# L = den*adj(den + num) = nz*lam, nz = N(den + num) (CubicField._adjugate
# gives both).  The rows of M_L are nz times those of M_lam, so the
# gamma^2-coordinate of L*gamma is c~ = nz*c: c~ == 0 exactly when c == 0,
# and sigma = -L2/c~, where nz cancels.  One inverse W = (c~*nz)^-1 gives
# both 1/c~ = nz*W and 1/nz = c~*W, which v0 and v1 need:
# v = (L0 + sigma*G0, L1 + sigma*G1, 0)/nz, (G0, G1, c~) = L*gamma.
#
# A beta in F_p matches no triple.  beta == 0 needs alpha_i == alpha_j and
# beta == -1 needs alpha_i == alpha_k.  Otherwise lam lies in F_p \ {0, 1},
# and the first two coordinates of a match read d_j = lam*d_i + (1 - lam)*d_k
# and d_j^2 = lam*d_i^2 + (1 - lam)*d_k^2, whose difference is
# lam*(1 - lam)*(d_i - d_k)^2 = 0, the r = 0 argument of the module
# docstring.  The c == 0 test rejects every such beta: den + num then lies
# in F_p, so L is a multiple of (1, 0, 0) (L = 0 for beta == -1) and
# L*gamma has no gamma^2 term.
#
# Time per decode: O(1) field work (one adjugate, one F_p inverse, sigma,
# v0, v1 and q), then one O(n) product of the (n, 3) matrix spec._lifted
# with q, its cast and reduction, one compare with 0 whose at most two
# zeros ndarray.nonzero reads (np.flatnonzero's Python-level wrapper took
# 2.4 against 1.2 us at n = 512 on a 2-vCPU x86-64 VM), at most two Python
# checks of u and two dict lookups, with no sort.  The nominal scan price,
# about ten big-int operations, is computed only under a probe.
# Memory: O(n) per decode (the product column, its cast and the
# reduction's quotients); nothing is kept between decodes.  The product
# runs on all n rows in every regime, in the re-encode's kernel for
# _lifted's dtype, which CodeSpec fixes once: float64 through BLAS up to
# about 5.5 * 10^7, an int64 matmul below 2^30, the uint64 split kernel
# (field.split_product) below 2^63, about 9 us at n = 64 and 14 us at
# n = 512 (p = 2^61 - 1, x86-64), the (n, 5) halves of spec._columns
# times q split into five scalars, and Python ints from 2^63 on.


def _scan_ops(n, rows):
    """Nominal ops of the scan of the first `rows` rows (0-based i < rows).

    Setup costs OPS_SEARCH_SETUP_PER_POS per position; row i scans
    w = n - 2 - i candidates and the w*(w+1)/2 triples (i, j, k) they close.
    """
    hi, lo = n - 2, n - 2 - rows  # the rows' widths are lo+1 .. hi
    candidates = (hi * (hi + 1) - lo * (lo + 1)) // 2
    triples = (hi * (hi + 1) * (hi + 2) - lo * (lo + 1) * (lo + 2)) // 6
    return (n * OPS_SEARCH_SETUP_PER_POS
            + candidates * OPS_SEARCH_ROW_PER_ENTRY
            + triples * OPS_SEARCH_PER_TRIPLE)


def _search_triple(spec: CodeSpec, num, den: int = 1):
    """The increasing triple whose ratio is num/den (num a coordinate
    triple, den nonzero in F_p; den = 1 when num is beta itself), or None.
    One F_p inverse: lam stays scaled as L (see above)."""
    p = spec.p
    ext = spec.ext
    adj, nz = ext._adjugate(((num[0] + den) % p, num[1], num[2]))
    L = (den * adj[0] % p, den * adj[1] % p, den * adj[2] % p)  # nz*lam
    (l0, l1, l2), (g0, g1, c), _ = ext.mul_matrix(L)  # L, L*gamma
    if c == 0:
        return None  # the key is injective: no two positions share one
    W = pow(c * nz, -1, p)
    sigma = -l2 * nz * W % p
    inz = c * W % p  # 1/nz
    # v = lam*(1 + sigma*gamma)
    v0, v1 = (l0 + sigma * g0) * inz % p, (l1 + sigma * g1) * inz % p
    # w0 = C + D*d and w1 = A + B*d + d^2: the named point, affine in (1, d, d^2)
    C, D = sigma * (1 - v0) % p, (2 * v0 - 1) % p
    A, B = sigma * (sigma - v1) % p, 2 * (v1 - sigma) % p
    q = ((A - C * C) % p, (B - 2 * C * D) % p, (1 - D * D) % p)  # w1 - w0^2
    idx = spec.delta_index
    # w on the parabola: the match, and the position with 2d == sigma (w == alpha_i)
    for i in (_lifted_product(spec, q) == 0).nonzero()[0].tolist():
        d = spec.delta[i]
        if 2 * d % p != sigma:
            kappa = (i + 1, idx.get((C + D * d) % p, 0), idx.get((sigma - d) % p, 0))
            return kappa if kappa[0] < kappa[1] < kappa[2] else None
    return None


# -- decoders ------------------------------------------------------------


def _closed_form(spec, num, den):
    """(kappa, reason) of the closed form on the ratio num/den: kappa is an
    increasing triple of the code's locators and reason None, or kappa is
    None and reason names the failed check, "degenerate-solve",
    "locator-not-in-code" or "order".

    The solved deltas are reduced Python ints, so they index
    spec.delta_index directly; a value outside the code reads position 0."""
    sol = solve_deltas(spec.p, extract_coefficients(num), den)
    if sol is None:
        return None, "degenerate-solve"
    get = spec.delta_index.get
    kappa = (get(sol[0], 0), get(sol[1], 0), get(sol[2], 0))
    if 0 < kappa[0] < kappa[1] < kappa[2]:
        return kappa, None
    return None, "order" if all(kappa) else "locator-not-in-code"


def _closed_form_ops(spec, kappa, reason):
    """Nominal ops of _closed_form's (kappa, reason): the coefficient read,
    and the solve unless it degenerated."""
    if reason == "degenerate-solve":
        return OPS_EXT_MUL
    return OPS_EXT_MUL + OPS_SOLVE


def _search(spec, num, den):
    """(kappa, reason) of the triple search on the ratio num/den: the
    matching triple and None, or None and "search-miss"."""
    kappa = _search_triple(spec, num.coords, den)
    return (kappa, None) if kappa else (None, "search-miss")


def _search_ops(spec, kappa, reason):
    """Nominal ops of _search's (kappa, reason): the scan up to the match
    row, or every row on a miss."""
    return _scan_ops(spec.n, spec.n - 2 if kappa is None else kappa[0])


def _decode(spec, y, inst, identify, price, path):
    """The pipeline both decoders share, and the one place that prices a
    decode: identify(spec, num, den) returns (kappa, reason) on
    compute_beta's fraction of the first three symbols, with kappa None and
    reason the UnrecognizedReceivedWordError's on a miss, and
    price(spec, kappa, reason) gives its nominal ops.  y is a
    ReceivedWord of 3 <= m <= n symbols, or any such ExtElem sequence,
    which is built into one here.  The first three rows are read once, as
    Python-int tuples in one tolist, for every later stage.  After the
    re-encode each later symbol must occur in the codeword at a position
    after the previous symbol's; the symbols of a non-constant codeword are
    pairwise distinct, so a dict from symbol to position finds it.  A
    constant codeword needs all m symbols equal, one array compare.  kappa
    lists all m kept positions (none for a constant word).  That check adds
    O(n + m) time and memory, and to total_ops only (not search_ops) the
    nominal price of the whole stage, rejections too: OPS_LOOKUP_PER_SYMBOL
    per codeword symbol entered in the lookup (none for a constant word)
    and OPS_LATER_PER_SYMBOL per later symbol.  A three-symbol word pays
    nothing for it.

    Errors, in order: ParameterError for a spec not built from the
    quadratic evaluation map, which both identifications assume, or for a
    y that cannot be iterated; InconsistentReceivedWordError("length") for
    m outside 3..n; building the word, FieldMismatchError for a symbol that
    is not an ExtElem or for mixed fields and ParameterError for a
    non-canonical coordinate; FieldMismatchError for a word outside spec's
    field, the one field check of a decode; then the rejections of the
    first three symbols ("two-equal", identify's reasons, "third-point");
    and InconsistentReceivedWordError("not-a-subsequence" or
    "constant-mismatch") for a later symbol.  Without inst nothing is
    timed or priced: the clock, price and every count run only under a
    probe."""
    if not spec.from_quadratic_map:
        raise ParameterError(
            "the decoders need evaluation points delta + delta^2*gamma; "
            "this spec was built from alpha_rows")
    y = _received_word(y, spec.n)
    ext = spec.ext
    if y.field is not ext and y.field != ext:
        raise FieldMismatchError(f"received symbols lie in {y.field!r}, not in {ext!r}")
    longer = len(y.coords) > 3
    # a three-symbol word is read unsliced: the slice would cost about as
    # much as its tolist, on every call of the common case
    y1, y2, y3 = map(tuple, (y.coords[:3] if longer else y.coords).tolist())
    if inst:
        t0 = perf_counter()
    ratio = compute_beta(ext, y1, y2, y3)
    if ratio is None:
        m, kappa, path = Message(ExtElem(ext, y1), ext.zero), (), PATH_CONSTANT
    else:
        kappa, reason = identify(spec, *ratio)
        if inst:
            ops = OPS_BETA + price(spec, kappa, reason)
            inst.total_ops += ops
            inst.search_ops += ops
            inst.search_seconds += perf_counter() - t0
        if reason:
            raise UnrecognizedReceivedWordError(
                f"no kept triple is consistent with the received word ({reason})", reason)
        m = interpolate(spec, kappa[0], kappa[1], ExtElem(ext, y1), ExtElem(ext, y2))
        third = ext.add(m.m1.coords, ext.mul(m.m2.coords, spec.alpha_coords(kappa[2])))
        if inst:
            inst.total_ops += OPS_INTERPOLATE + OPS_THIRD_POINT
        if third != y3:
            raise UnrecognizedReceivedWordError(
                f"third received symbol is off the interpolated line at {kappa}",
                "third-point")
    if inst:
        inst.total_ops += spec.n * OPS_ENCODE_PER_SYMBOL
    codeword = encode(spec, m)
    if longer:
        rest = y[3:]
        if inst:
            inst.total_ops += (len(rest.coords) * OPS_LATER_PER_SYMBOL
                               + (spec.n * OPS_LOOKUP_PER_SYMBOL if kappa else 0))
        if not kappa:
            if (rest.coords != y.coords[0]).any():
                raise InconsistentReceivedWordError(
                    "the first three symbols are equal but a later one differs",
                    "constant-mismatch")
        else:
            where = {sym: i for i, sym in enumerate(codeword.symbol_tuples(), 1)}
            kept = list(kappa)
            for s in rest.symbol_tuples():
                i = where.get(s, 0)
                if i <= kept[-1]:
                    raise InconsistentReceivedWordError(
                        "the received word is not a subsequence of the decoded codeword",
                        "not-a-subsequence")
                kept.append(i)
            kappa = tuple(kept)
    # kappa is (), or increasing positions in 1..n by identify's own test
    # and the loop above, which kept each position only above the last one
    return DecodeOutcome(m, codeword, DeletionPattern._validated(kappa), path)


def decode_cubic(spec: CodeSpec, y: ReceivedWord,
                 inst: Optional[DecodeInstrumentation] = None) -> DecodeOutcome:
    """Decode by the paper's exhaustive triple search, run as a join.

    Returns the increasing triple whose ratio matches (the ratio fixes it),
    by an equal-key join (see the triple search above): only pairs (i, k)
    whose lam*alpha share a gamma^2-coordinate can close a triple, and on
    the parabola that holds exactly when d_i + d_k = sigma, one F_p value
    per decode.  So each position has one partner value, and a decode
    tests every position once, with no key column and no sort: the point
    its pair names is on the parabola when w1 - w0^2, a quadratic form in
    the position's row (1, d, d^2) of spec._lifted, is 0, so one product
    of _lifted with three F_p scalars, in the encoder's kernel, tests every
    position.  Of the at most two positions that pass, the one whose
    partner is itself (u = 0) is skipped; the other's j and k are read from
    spec.delta_index as the closed form reads them, and a ratio whose key
    is injective, every ratio in F_p among them, is rejected at once.  The
    ratio stays a fraction and lam stays scaled by its norm, so
    identification takes one F_p inverse and no F_{p^3} inverse;
    interpolation takes one more.  The product runs on all n rows for
    every p, through the re-encode's kernel for the regime (float64 BLAS,
    int64, from 2^30 on the uint64 split kernel's one uint64 and one
    float64 matmul, Python ints from 2^63 on).  O(n) time and O(n)
    memory, and the re-encode adds O(n).  Nothing is kept with the spec
    between decodes.
    Under a probe, the nominal op count still prices the Theta(n^3) scan
    up to the match row.  y is a channel output of 3 <= m <= n symbols:
    the search runs on its first three, and the later ones add O(n + m)
    (see _decode).
    Raises UnrecognizedReceivedWordError when no triple matches (reason
    "search-miss") or, as a guard that real words never reach, when the
    third symbol is off the interpolated line ("third-point"); every other
    error is _decode's.
    """
    return _decode(spec, y, inst, _search, _search_ops, PATH_FALLBACK)


def decode_linear(spec: CodeSpec, y: ReceivedWord,
                  inst: Optional[DecodeInstrumentation] = None) -> DecodeOutcome:
    """Decode via the closed form, or reject the word.

    Takes O(1) identification work (one ratio as a fraction, one
    coefficient read, one straight-line solve with one F_p inverse and no
    F_{p^3} inverse, three table lookups), then interpolation with one
    F_{p^3} inverse, plus O(n) re-encode time and memory on every input,
    garbage included: a word whose closed form does not give an
    increasing in-code locator triple raises UnrecognizedReceivedWordError
    at once, with reason "degenerate-solve", "locator-not-in-code" or
    "order" ("third-point" is a guard that real words never reach).  y is
    a channel output of 3 <= m <= n symbols: the closed form runs on its
    first three, and the later ones add O(n + m) (see _decode, which
    raises every other error).
    """
    return _decode(spec, y, inst, _closed_form, _closed_form_ops, PATH_CLOSED_FORM)

