"""Decoders that recover a codeword from three surviving symbols.

Both decoders start from the invariant ratio

    beta = (y1 - y2) / (y2 - y3)
         = (alpha_k1 - alpha_k2) / (alpha_k2 - alpha_k3)

where (k1, k2, k3) are the unknown kept positions.  The cubic decoder is the
paper's exhaustive decoder: it returns the lexicographically first increasing
triple whose ratio matches, found by a join (see the triple search below)
rather than a scan of all C(n,3) triples.  The linear decoder reads the kept
delta values straight out of beta:  writing beta = a*gamma^2 + b*gamma + c
and beta*gamma = r*gamma^2 + s*gamma + t, the kept positions satisfy

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

Both decoders run one pipeline, _decode: the ratio (a constant word decodes
at once), the kept triple (_closed_form or _search, the only difference),
interpolation and the third-point check, then the re-encode.  The stages
take no instrumentation; _decode prices every one at the counts below.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple, Optional

import numpy as np

from .channel import DeletionPattern
from .code import CodeSpec, Message, Codeword, _require_field, encode, interpolate
from .errors import (
    FieldMismatchError,
    InconsistentReceivedWordError,
    ParameterError,
    UnrecognizedReceivedWordError,
)
from .field import _INT64_COORD_MAX_P, ExtElem, PrimeField

PATH_CLOSED_FORM = "closed-form"
PATH_FALLBACK = "fallback-search"
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
OPS_SOLVE = 24              # straight-line closed form incl. two F_p inversions
OPS_INTERPOLATE = 2 * OPS_EXT_SUB + OPS_EXT_INV + 2 * OPS_EXT_MUL
OPS_THIRD_POINT = OPS_EXT_MUL + OPS_EXT_ADD
OPS_ENCODE_PER_SYMBOL = 15  # nominal: one row of the alpha @ M_{m2} matmul plus m1
OPS_SEARCH_SETUP_PER_POS = OPS_EXT_MUL + OPS_EXT_ADD  # beta*alpha_j, target per j
OPS_SEARCH_ROW_PER_ENTRY = OPS_EXT_ADD  # candidate sum per scanned k entry
OPS_SEARCH_PER_TRIPLE = 1   # one ratio test per triple of the Theta(n^3) scan


@dataclass
class DecodeInstrumentation:
    """Field-operation and timing probe threaded through one or more decodes.

    _decode prices every stage.  total_ops accumulates every priced
    operation; search_ops and search_seconds only those spent identifying
    the kept triple (beta, coefficient extraction and solving for the linear
    path; beta plus the triple search for the cubic path), rejections too.
    """

    total_ops: int = 0
    search_ops: int = 0
    search_seconds: float = 0.0


def _require_elements(symbols, first: int = 1) -> None:
    """Raise FieldMismatchError for a symbol that is not an ExtElem;
    symbols[0] is received symbol number `first`."""
    for number, y in enumerate(symbols, first):
        if not isinstance(y, ExtElem):
            raise FieldMismatchError(
                f"received symbol {number} is a {type(y).__name__}, not an ExtElem")


@dataclass(frozen=True)
class ReceivedTriple:
    """Three received symbols; a member that is not an ExtElem raises
    FieldMismatchError when the triple is built."""

    y1: ExtElem
    y2: ExtElem
    y3: ExtElem

    def __post_init__(self):
        _require_elements(self)

    @classmethod
    def from_symbols(cls, symbols) -> "ReceivedTriple":
        symbols = tuple(symbols)
        if len(symbols) != 3:
            raise InconsistentReceivedWordError(
                f"decoder consumes exactly three symbols, got {len(symbols)}")
        return cls(*symbols)

    def __iter__(self):
        return iter((self.y1, self.y2, self.y3))


@dataclass
class DecodeOutcome:
    message: Message
    codeword: Codeword
    kappa: DeletionPattern
    path: str


def compute_beta(y: ReceivedTriple):
    """The triple ratio, or None when the received word is constant.

    Exactly two equal symbols cannot come out of the channel: a degree-one
    codeword is constant (m2 = 0) or injective on evaluation points.
    Symbols from different fields raise FieldMismatchError.
    """
    ext = y.y1.field
    _require_field(ext, (y.y2, y.y3), "received symbol")
    y1, y2, y3 = y.y1.coords, y.y2.coords, y.y3.coords
    e12 = y1 == y2
    e23 = y2 == y3
    if e12 and e23:
        return None
    if e12 or e23 or y1 == y3:
        raise InconsistentReceivedWordError(
            "exactly two of three received symbols are equal")
    return ExtElem(ext, ext.mul(ext.sub(y1, y2), ext.inv(ext.sub(y2, y3))))


def extract_coefficients(beta: ExtElem):
    """Read (a, b, c, r, s, t) from beta and beta*gamma.

    beta = a*gamma^2 + b*gamma + c, beta*gamma = r*gamma^2 + s*gamma + t.
    Equivalently r = b - a*g2, s = c - a*g1, t = -a*g0.
    """
    c, b, a = beta.coords
    t, s, r = beta.field.mul_matrix(beta.coords)[1]
    return (a, b, c, r, s, t)


def solve_deltas(pf: PrimeField, coeffs):
    """Closed-form kept delta values (d1, d2, d3), or None.

    None is returned when r = 0 (theta undefined) or the d2 denominator is 0
    (the quadratic degenerates).  Neither happens for coefficients of a true
    locator triple (see the module docstring), so None means no triple
    explains beta.  The alternate quadratic root -a/(2r) is never produced;
    it would force d2 = d3.
    """
    a, b, c, r, s, t = coeffs
    p = pf.p
    if r % p == 0:
        return None
    theta = a * pow(r, -1, p) % p
    tt = t * theta % p
    den = 2 * (c + c * c - 2 * c * tt + tt * (tt - 1)) % p
    if den == 0:
        return None
    num = (b - theta * (c * c + s - 2 * c * tt + tt * tt)) % p
    d2 = num * pow(den, -1, p) % p
    d3 = (-d2 - theta) % p
    d1 = (d2 * (1 + 2 * c - 2 * tt) + theta * (c - tt)) % p
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
# (_scan_ops), so the counts do not depend on the kernel.
#
# The search serves the paper's code only (_decode refuses every other
# spec), whose points alpha = (d, d^2, 0) lie in the gamma^2 = 0 plane.
# There the gamma^2-coordinate of a match reads key(i) == key(k), where
# key(i) is the gamma^2-coordinate of lam*alpha_i.  With
# lam = l0 + l1*gamma + l2*gamma^2 and gamma^3 = h0 + h1*gamma + h2*gamma^2,
# key(d) = l2*d + (l1 + l2*h2)*d^2: a nonzero polynomial of degree <= 2
# without constant term unless lam lies in F_p, so a key is shared by at
# most two positions.  The search sorts the key column once and compares
# neighbours only, since every pair of equal keys sits at sorted distance 1.
# The sort is numpy's default, not stable, so each pair is taken as
# i = min, k = max of its two positions and the order of equal keys never
# matters.  Each pair (i, k) names the only j that could complete it,
# lam*alpha_i + (1 - lam)*alpha_k (k = i + 1 leaves no room for j and is
# rejected by i < j < k).  That point is found by one binary search among
# the code's points sorted by first coordinate, which are its distinct
# deltas, and compared once in all three coordinates.  The targets are
# distinct, so j is unique per pair, and the smallest (i, j) over every hit
# is the lexicographically first triple of the scan.
#
# A beta in F_p matches no triple.  beta == 0 needs alpha_i == alpha_j and
# beta == -1 needs alpha_i == alpha_k.  Otherwise lam lies in F_p \ {0, 1},
# and the first two coordinates of a match read d_j = lam*d_i + (1 - lam)*d_k
# and d_j^2 = lam*d_i^2 + (1 - lam)*d_k^2, whose difference is
# lam*(1 - lam)*(d_i - d_k)^2 = 0, the r = 0 argument of the module
# docstring.  So the search returns at once for every beta in F_p.
#
# Time per decode: O(n) setup (one F_{p^3} inverse, the key column in one
# matrix-vector product), one O(n log n) sort, then at most n/2 candidate
# pairs, each looked up by one binary search: O(n log n).  Memory: O(n) per
# decode, and the cache holds only the points sorted by first coordinate
# and their positions.  Keys and candidate points are computed in the
# field's own dtype and reduced, so they and the sorted points are compared
# as int64 columns for p < 2^63 (_INT64_COORD_MAX_P) and as Python ints
# (object dtype) above.


class _SearchColumns(NamedTuple):
    """Beta-independent search data of one spec, arrays read-only."""

    ts: np.ndarray      # (3, n + 1) points sorted by first coordinate, then a sentinel
    order: np.ndarray   # 0-based position of each sorted column; order[n] == n


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


def _search_columns(spec: CodeSpec) -> _SearchColumns:
    """The search columns of spec, built on its first search and kept."""
    if spec._search_columns is None:
        p, n = spec.p, spec.n
        dtype = np.int64 if p < _INT64_COORD_MAX_P else object
        a = np.array(spec._alpha.T, dtype=dtype)
        order = np.append(np.argsort(a[0]), n)
        # first coordinate p: sorts last and equals no reduced point
        ts = np.concatenate((a, np.array([[p], [0], [0]], dtype=dtype)), axis=1)[:, order]
        for arr in (ts, order):
            arr.setflags(write=False)
        spec._search_columns = _SearchColumns(ts, order)
    return spec._search_columns


def _search_triple(spec: CodeSpec, beta):
    if beta[1] == beta[2] == 0:
        return None  # beta in F_p: no triple of the parabola matches
    p = spec.p
    ext = spec.ext
    ts, order = _search_columns(spec)
    alpha = spec._alpha
    lam = ext.inv(((beta[0] + 1) % p, beta[1], beta[2]))
    m = np.array(ext.mul_matrix(lam), dtype=alpha.dtype)  # v @ m is v*lam
    key = np.asarray(alpha @ m[:, 2] % p, dtype=ts.dtype)
    by_key = np.argsort(key)
    key = key.take(by_key)
    q = np.flatnonzero(key[1:] == key[:-1])  # sorted ranks q, q + 1 share a key
    a, b = by_key.take(q), by_key.take(q + 1)
    i, k = np.minimum(a, b), np.maximum(a, b)
    ak = alpha.take(k, axis=0)
    w = (alpha.take(i, axis=0) - ak) @ m  # lam*alpha_i + (1 - lam)*alpha_k, one row per pair
    w += ak
    w %= p
    w = np.asarray(w.T, dtype=ts.dtype)
    at = np.searchsorted(ts[0], w[0])
    j = np.where((ts.take(at, axis=1) == w).all(axis=0), order.take(at), -1)
    ok = np.flatnonzero((i < j) & (j < k))  # also rejects k == i + 1
    if not ok.size:
        return None
    first = ok[np.lexsort((j[ok], i[ok]))[0]]  # lexicographically first (i, j)
    return (int(i[first]) + 1, int(j[first]) + 1, int(k[first]) + 1)


# -- decoders ------------------------------------------------------------


def _closed_form(spec, beta):
    """(nominal ops, kappa or None) of the closed form: kappa is None unless
    the solve gives an increasing triple of the code's locators.

    The solved deltas are reduced Python ints, so they index
    spec.delta_index directly; a value outside the code reads position 0,
    which fails the one order test 0 < k1 < k2 < k3."""
    sol = solve_deltas(spec.field, extract_coefficients(beta))
    if sol is None:
        return OPS_EXT_MUL, None
    get = spec.delta_index.get
    kappa = (get(sol[0], 0), get(sol[1], 0), get(sol[2], 0))
    ok = 0 < kappa[0] < kappa[1] < kappa[2]
    return OPS_EXT_MUL + OPS_SOLVE, kappa if ok else None


def _search(spec, beta):
    """(nominal ops, kappa or None) of the triple search, priced as the
    scan up to the match row, or of every row on a miss."""
    kappa = _search_triple(spec, beta.coords)
    return _scan_ops(spec.n, spec.n - 2 if kappa is None else kappa[0]), kappa


def _decode(spec, y, inst, identify, path):
    """The pipeline both decoders share, and the one place that prices a
    decode: identify(spec, beta) returns (nominal ops, kappa or None).
    Raises ParameterError first for a spec not built from the quadratic
    evaluation map, which both identifications assume."""
    if not spec.from_quadratic_map:
        raise ParameterError(
            "the decoders need evaluation points delta + delta^2*gamma; "
            "this spec was built from alpha_rows")
    ext = spec.ext
    _require_field(ext, y, "received symbol")
    t0 = perf_counter()
    beta = compute_beta(y)
    if beta is None:
        m, kappa, path = Message(y.y1, ext.zero), (), PATH_CONSTANT
    else:
        ops, kappa = identify(spec, beta)
        if inst:
            inst.total_ops += OPS_BETA + ops
            inst.search_ops += OPS_BETA + ops
            inst.search_seconds += perf_counter() - t0
        if kappa is None:
            raise UnrecognizedReceivedWordError(
                "no kept triple is consistent with the received word")
        m = interpolate(spec, kappa[0], kappa[1], y.y1, y.y2)
        third = ext.add(m.m1.coords, ext.mul(m.m2.coords, spec.alpha_coords(kappa[2])))
        if inst:
            inst.total_ops += OPS_INTERPOLATE + OPS_THIRD_POINT
        if third != y.y3.coords:
            raise UnrecognizedReceivedWordError(
                f"third received symbol is off the interpolated line at {kappa}")
    if inst:
        inst.total_ops += spec.n * OPS_ENCODE_PER_SYMBOL
    # kappa is (), or increasing positions in 1..n by identify's own test
    return DecodeOutcome(m, encode(spec, m), DeletionPattern._validated(kappa), path)


def decode_cubic(spec: CodeSpec, y: ReceivedTriple,
                 inst: Optional[DecodeInstrumentation] = None) -> DecodeOutcome:
    """Decode by the paper's exhaustive triple search, run as a join.

    Returns the lexicographically first increasing triple whose ratio
    matches, by an equal-key join (see the triple search above): only pairs
    (i, k) whose lam*alpha share a gamma^2-coordinate can close a triple,
    and on the parabola a key is shared by at most two positions.  A decode
    sorts that key column (numpy's unstable argsort; each pair is taken as
    (min, max) of its positions), looks up at most n/2 pairs among the
    points sorted by first coordinate, one binary search each, and rejects
    a ratio in F_p at once: O(n log n) time and O(n) memory, and the
    re-encode adds O(n).  The first decode on a spec also builds its search
    columns, O(n), kept with the spec.  The nominal op count still prices
    the Theta(n^3) scan up to the match row.  Raises ParameterError for
    specs not built from the quadratic evaluation map,
    UnrecognizedReceivedWordError when no triple matches, and
    FieldMismatchError before any arithmetic when a symbol is not in spec's
    field.
    """
    return _decode(spec, y, inst, _search, PATH_FALLBACK)


def decode_linear(spec: CodeSpec, y: ReceivedTriple,
                  inst: Optional[DecodeInstrumentation] = None) -> DecodeOutcome:
    """Decode via the closed form, or reject the word.

    Takes O(1) identification work (one ratio, one coefficient read, one
    straight-line solve, three table lookups) plus O(n) re-encode time and
    memory on every input, garbage included: a word whose closed form does
    not give an increasing in-code locator triple raises
    UnrecognizedReceivedWordError at once.  Raises ParameterError for specs
    not built from the quadratic evaluation map, and FieldMismatchError
    before any arithmetic when a symbol is not in spec's field.
    """
    return _decode(spec, y, inst, _closed_form, PATH_CLOSED_FORM)


def decode_received(spec: CodeSpec, symbols, decode=decode_linear,
                    inst: Optional[DecodeInstrumentation] = None) -> DecodeOutcome:
    """Decode a received word of any length 3 <= m <= n, checking every symbol.

    The first three symbols are decoded with `decode` (decode_linear or
    decode_cubic).  Each later symbol must then occur in the re-encoded
    codeword at a position after the previous symbol's; the symbols of a
    non-constant codeword are pairwise distinct, so a dict from symbol to
    position finds it.  A constant codeword needs all m symbols equal.
    kappa lists all m kept positions (none for a constant word).  Raises
    InconsistentReceivedWordError when m is outside 3..n or the word is not
    a subsequence of the decoded codeword, FieldMismatchError for a symbol
    outside spec's field, and, from `decode`, ParameterError for a spec not
    built from the quadratic map.  Takes the decode's time plus O(n + m)
    time and memory.
    """
    symbols = tuple(symbols)
    if not 3 <= len(symbols) <= spec.n:
        raise InconsistentReceivedWordError(
            f"a channel output of this code has 3 to {spec.n} symbols, got {len(symbols)}")
    y = ReceivedTriple(*symbols[:3])
    rest = symbols[3:]
    _require_elements(rest, 4)
    _require_field(spec.ext, rest, "received symbol")
    out = decode(spec, y, inst)
    if out.path == PATH_CONSTANT:
        if any(s.coords != y.y1.coords for s in rest):
            raise InconsistentReceivedWordError(
                "the first three symbols are equal but a later one differs")
        return out
    if not rest:
        return out
    where = {sym: i for i, sym in enumerate(out.codeword.symbol_tuples(), 1)}
    kept = list(out.kappa.kept)
    for s in rest:
        i = where.get(s.coords, 0)
        if i <= kept[-1]:
            raise InconsistentReceivedWordError(
                "the received word is not a subsequence of the decoded codeword")
        kept.append(i)
    # the loop above kept each position only above the last one
    return DecodeOutcome(out.message, out.codeword,
                         DeletionPattern._validated(tuple(kept)), out.path)
