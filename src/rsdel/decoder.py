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
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from .channel import DeletionPattern
from .code import CodeSpec, Message, Codeword, _require_field, encode, interpolate, lookup_delta
from .errors import (
    FieldMismatchError,
    InconsistentReceivedWordError,
    ParameterError,
    UnrecognizedReceivedWordError,
)
from .field import ExtElem, PrimeField

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

    total_ops accumulates every priced operation; search_ops only those spent
    identifying the kept triple (beta, coefficient extraction and solving
    for the linear path; beta plus the triple search for the cubic path).
    """

    total_ops: int = 0
    search_ops: int = 0
    search_seconds: float = 0.0


@dataclass(frozen=True)
class ReceivedTriple:
    """Three received symbols; a member that is not an ExtElem raises
    FieldMismatchError when the triple is built."""

    y1: ExtElem
    y2: ExtElem
    y3: ExtElem

    def __post_init__(self):
        for name, y in zip(("y1", "y2", "y3"), self):
            if not isinstance(y, ExtElem):
                raise FieldMismatchError(
                    f"received symbol {name} is a {type(y).__name__}, not an ExtElem")

    @classmethod
    def from_symbols(cls, symbols, truncate: bool = False) -> "ReceivedTriple":
        symbols = tuple(symbols)
        if len(symbols) > 3 and truncate:
            symbols = symbols[:3]
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


def compute_beta(y: ReceivedTriple, inst: Optional[DecodeInstrumentation] = None):
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
    if inst:
        inst.total_ops += OPS_BETA
    return ExtElem(ext, ext.mul(ext.sub(y1, y2), ext.inv(ext.sub(y2, y3))))


def extract_coefficients(beta: ExtElem,
                         inst: Optional[DecodeInstrumentation] = None):
    """Read (a, b, c, r, s, t) from beta and beta*gamma.

    beta = a*gamma^2 + b*gamma + c, beta*gamma = r*gamma^2 + s*gamma + t.
    Equivalently r = b - a*g2, s = c - a*g1, t = -a*g0.
    """
    c, b, a = beta.coords
    t, s, r = beta.field.mul_matrix(beta.coords)[1]
    if inst:
        inst.total_ops += OPS_EXT_MUL
    return (a, b, c, r, s, t)


def solve_deltas(pf: PrimeField, coeffs,
                 inst: Optional[DecodeInstrumentation] = None):
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
    if inst:
        inst.total_ops += OPS_SOLVE
    return (d1, d2, d3)


# -- triple search -------------------------------------------------------
#
# The paper's exhaustive decoder tests Gamma(i, j, k) == beta on every
# increasing triple, without divisions:
#
#     alpha_i - alpha_j == beta * (alpha_j - alpha_k)
#     <=>  alpha_i + beta*alpha_k == alpha_j + beta*alpha_j =: T_j
#
# T is injective in j when beta != -1 (compute_beta rejects y1 == y3, which
# is beta == -1; for beta == -1 no triple matches at all), so it runs as a
# join: index T once, then each candidate alpha_i + beta*alpha_k names the
# only j that could complete (i, ., k).  Rows go in increasing i, and in the
# first row with a hit i < j < k the smallest j wins; k is then unique, so
# this is the lexicographically first triple of the scan, also for
# alpha_rows specs whose ratios collide.  The nominal count still prices the
# Theta(n^3) scan up to the match row (_charge_scan), so the counts do not
# depend on the kernel.

_SEARCH_BLOCK_ROWS = 16


def _charge_scan(inst, n, rows):
    """Price the scan of the first `rows` rows (0-based i < rows).

    Setup costs OPS_SEARCH_SETUP_PER_POS per position; row i scans
    w = n - 2 - i candidates and the w*(w+1)/2 triples (i, j, k) they close.
    """
    if not inst:
        return
    hi, lo = n - 2, n - 2 - rows  # the rows' widths are lo+1 .. hi
    candidates = (hi * (hi + 1) - lo * (lo + 1)) // 2
    triples = (hi * (hi + 1) * (hi + 2) - lo * (lo + 1) * (lo + 2)) // 6
    inst.total_ops += (n * OPS_SEARCH_SETUP_PER_POS
                       + candidates * OPS_SEARCH_ROW_PER_ENTRY
                       + triples * OPS_SEARCH_PER_TRIPLE)


def _search_triple_python(spec: CodeSpec, beta, inst):
    ext = spec.ext
    p = spec.p
    n = spec.n
    alpha = [spec.alpha_coords(i) for i in range(1, n + 1)]
    balpha = [ext.mul(beta, a) for a in alpha]
    target = {ext.add(a, ba): j for j, (a, ba) in enumerate(zip(alpha, balpha))}
    for i in range(n - 2):
        ai0, ai1, ai2 = alpha[i]
        # an absent key reads j = -1, which fails i < j
        hits = [(j, k) for k, (b0, b1, b2) in enumerate(balpha[i + 2:], i + 2)
                if i < (j := target.get(((ai0 + b0) % p, (ai1 + b1) % p,
                                         (ai2 + b2) % p), -1)) < k]
        if hits:
            j, k = min(hits)
            _charge_scan(inst, n, i + 1)
            return (i + 1, j + 1, k + 1)
    _charge_scan(inst, n, n - 2)
    return None


def _search_triple_numpy(spec: CodeSpec, beta, inst):
    p = spec.p
    n = spec.n
    alpha = spec._alpha
    a0, a1, a2 = alpha.T
    # beta*alpha_j for every j in one matmul, one contiguous row per coordinate
    balpha = alpha @ np.array(spec.ext.mul_matrix(beta), dtype=alpha.dtype) % p
    b0, b1, b2 = np.ascontiguousarray(balpha.T)
    pp = p * p
    # packed keys are exact: coordinates are canonical and p^3 < 2^63
    target = (alpha + balpha) % p @ np.array([1, p, pp], dtype=alpha.dtype)
    order = np.argsort(target)
    keys = target[order]
    # a candidate whose first coordinate (mod mask + 1) is no T_j's cannot
    # hit; at most n of the > 8n slots are set, so only about one candidate
    # in eight, plus the hits, reaches searchsorted
    mask = (1 << (3 + n.bit_length())) - 1
    seen = np.zeros(mask + 1, dtype=bool)
    seen[target % p & mask] = True
    for i0 in range(0, n - 2, _SEARCH_BLOCK_ROWS):
        i1 = min(i0 + _SEARCH_BLOCK_ROWS, n - 2)
        k0 = i0 + 2  # candidates k >= i0 + 2 cover every row of the block
        c0 = (a0[i0:i1, None] + b0[k0:]) % p
        ri, rk = np.nonzero(seen[c0 & mask])
        if not ri.size:
            continue
        i = ri + i0
        k = rk + k0
        w = c0[ri, rk] + (a1[i] + b1[k]) % p * p + (a2[i] + b2[k]) % p * pp
        pos = np.minimum(np.searchsorted(keys, w), n - 1)
        j = order[pos]
        ok = (keys[pos] == w) & (i < j) & (j < k)
        if ok.any():
            i, j, k = i[ok], j[ok], k[ok]
            first = np.lexsort((j, i))[0]  # lexicographically first (i, j)
            _charge_scan(inst, n, int(i[first]) + 1)
            return (int(i[first]) + 1, int(j[first]) + 1, int(k[first]) + 1)
    _charge_scan(inst, n, n - 2)
    return None


def _search_triple(spec: CodeSpec, beta_coords, inst):
    if spec.fast_search_ok():
        return _search_triple_numpy(spec, beta_coords, inst)
    return _search_triple_python(spec, beta_coords, inst)


# -- decoders ------------------------------------------------------------


def _constant_outcome(spec, y, inst):
    m = Message(y.y1, spec.ext.zero)
    if inst:
        inst.total_ops += spec.n * OPS_ENCODE_PER_SYMBOL
    return DecodeOutcome(m, encode(spec, m), DeletionPattern(()), PATH_CONSTANT)


def _finish(spec, y, kappa, path, inst):
    ext = spec.ext
    k1, k2, k3 = kappa
    m = interpolate(spec, k1, k2, y.y1, y.y2)
    third = ext.add(m.m1.coords, ext.mul(m.m2.coords, spec.alpha_coords(k3)))
    if inst:
        inst.total_ops += OPS_INTERPOLATE + OPS_THIRD_POINT
    if third != y.y3.coords:
        raise UnrecognizedReceivedWordError(
            f"third received symbol is off the interpolated line at {kappa}")
    cw = encode(spec, m)
    if inst:
        inst.total_ops += spec.n * OPS_ENCODE_PER_SYMBOL
    return DecodeOutcome(m, cw, DeletionPattern(kappa), path)


def decode_cubic(spec: CodeSpec, y: ReceivedTriple,
                 inst: Optional[DecodeInstrumentation] = None) -> DecodeOutcome:
    """Decode by the paper's exhaustive triple search, run as a join.

    Returns the lexicographically first increasing triple whose ratio
    matches.  Takes O(n^2 log n) time (one sorted-index lookup per (i, k)
    pair; O(n^2) expected for the dict kernel used when p >= 2^21)
    and O(n) memory (a 16-row block of candidates), plus the O(n) re-encode.
    The nominal op count still prices the Theta(n^3) scan up to the match
    row.  Raises UnrecognizedReceivedWordError when no triple matches, and
    FieldMismatchError before any arithmetic when a symbol is not in spec's
    field.
    """
    _require_field(spec.ext, y, "received symbol")
    t0 = perf_counter()
    ops0 = inst.total_ops if inst else 0
    beta = compute_beta(y, inst)
    if beta is None:
        return _constant_outcome(spec, y, inst)
    kappa = _search_triple(spec, beta.coords, inst)
    if inst:
        inst.search_ops += inst.total_ops - ops0
        inst.search_seconds += perf_counter() - t0
    if kappa is None:
        raise UnrecognizedReceivedWordError(
            "no kept triple is consistent with the received word")
    return _finish(spec, y, kappa, PATH_FALLBACK, inst)


def decode_linear(spec: CodeSpec, y: ReceivedTriple,
                  inst: Optional[DecodeInstrumentation] = None) -> DecodeOutcome:
    """Decode via the closed form, or reject the word.

    Takes O(1) identification work (one ratio, one coefficient read, one
    straight-line solve, three table lookups) plus O(n) re-encode time and
    memory on every input, garbage included: a word whose closed form does
    not give an increasing in-code locator triple raises
    UnrecognizedReceivedWordError at once.  Raises ParameterError for specs
    not built from the quadratic evaluation map, which the closed form
    assumes, and FieldMismatchError before any arithmetic when a symbol is
    not in spec's field.
    """
    if not spec.from_quadratic_map:
        raise ParameterError(
            "the closed form needs evaluation points delta + delta^2*gamma; "
            "use decode_cubic for this spec")
    _require_field(spec.ext, y, "received symbol")
    t0 = perf_counter()
    ops0 = inst.total_ops if inst else 0
    beta = compute_beta(y, inst)
    if beta is None:
        return _constant_outcome(spec, y, inst)
    coeffs = extract_coefficients(beta, inst)
    sol = solve_deltas(spec.field, coeffs, inst)
    kappa = None if sol is None else tuple(lookup_delta(spec, d) for d in sol)
    if inst:
        inst.search_ops += inst.total_ops - ops0
        inst.search_seconds += perf_counter() - t0
    if kappa is None or None in kappa or not kappa[0] < kappa[1] < kappa[2]:
        raise UnrecognizedReceivedWordError(
            "no kept triple is consistent with the received word")
    return _finish(spec, y, kappa, PATH_CLOSED_FORM, inst)
