"""Independent certification oracles.

Nothing here shares logic with the decoders: injectivity is certified by
exhaustive enumeration, the determinant is expanded directly rather than
through the ratio map, and the LCS of a codeword pair is 0 when its
sorted symbol keys hold no repeat and is otherwise computed by
Hunt-Szymanski on the symbols.  A code corrects t deletions iff every
distinct codeword pair has LCS < n - t, so for these codes (t = n - 3) the
audit target is max LCS <= 2.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, islice
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .code import CodeSpec, Message, encode_many, random_message
from .errors import BudgetExceededError, ParameterError
from .field import _INT64_COORD_MAX_P, ExtElem, reduce_mod


@dataclass(frozen=True)
class CollisionWitness:
    """Two increasing triples whose ratio values coincide."""

    triple_a: tuple[int, int, int]
    triple_b: tuple[int, int, int]
    value: ExtElem


_KEY_MUL = 0x5851F42D4C957F2D  # odd, below 2^63: the multiplier of _ratio_keys


def check_injectivity(spec: CodeSpec, budget: int = 10_000_000) -> Optional[CollisionWitness]:
    """Certify the ratio map injective by evaluating every increasing triple.

    Returns None on success, the first CollisionWitness otherwise: triple_b
    is the lowest-rank triple (lexicographic order) whose ratio value already
    occurs at a lower rank, triple_a that lower-rank triple.  Refuses
    (BudgetExceededError) when C(n, 3) exceeds the budget, before anything is
    allocated: the certification is exhaustive or it is nothing.

    The C(n, 2) differences alpha_j - alpha_k are gathered as coordinate
    columns, reduced by field.reduce_mod and inverted as one batch
    (CubicField.inv_many: O(n^2) numpy work and a single F_p inverse) into
    a pair table laid out (row, coordinate, pair), the layout of
    CubicField.mul_matrix, so that it is filled without a transpose; then
    every ratio is computed in numpy, one block of pairs (j, k) per i, each
    a contiguous plane per coordinate, and the C(n, 3) values are sorted to
    find repeats, which is O(T log T) numpy work for T = C(n, 3) triples.
    Each value is one hashed int64 key, for every p, sorted in place; only
    a repeated key has the keys built again (one more O(T) pass) and
    argsorted, unstably, so the ranks within a run of equal keys come in no
    set order.  The M entries of runs of two or more are gathered, one
    np.minimum.reduceat gives each run's lowest rank, and the other entries
    are checked exactly in rank order, one O(M) argmin each, so a key
    shared by distinct values costs time, never a wrong answer.  Memory is
    O(n^2) scratch plus the keys and a repeat mask: about 11 B per triple
    for p <= 2^30 and 21-23 B above, where blocks hold Python ints
    (tracemalloc at n = 150), so the default budget implies about 110 and
    230 MB.  A repeated key, and so any collision, takes about 25-27 B per
    triple (the argsort and the keys before and after gathering them into
    key order), and at most 28 B when every key repeats exactly twice.
    """
    n = spec.n
    total = comb(n, 3)
    if total > budget:
        raise BudgetExceededError(
            f"C({n},3) = {total} triples exceeds the budget of {budget}")
    ext, p = spec.ext, spec.p
    lifted = spec._lifted.astype(ext.dtype)   # rows (1, alpha_i[:w])
    w = lifted.shape[1] - 1
    pair_j, pair_k = np.triu_indices(n, 1)  # pairs j < k in lexicographic order
    alpha = np.zeros((3, n), dtype=ext.dtype)   # (coordinate, point)
    alpha[:w] = lifted[:, 1:].T
    alpha_j = alpha.take(pair_j, axis=1)
    inverse = ext.inv_many(reduce_mod(alpha_j - alpha.take(pair_k, axis=1), p))
    # table[:, :, t] is the (row, coordinate) matrix of pair t = (j, k), and
    # lifted[i] @ table[:, :, t] the ratio of triple (i, j, k): row 0 holds
    # v = -alpha_j/(alpha_j - alpha_k), rows 1..w the rows of
    # M_{1/(alpha_j - alpha_k)} that alpha_i's nonzero coordinates pick out,
    # in mul_matrix's own (row, coordinate, pair) layout.  int64 stays exact:
    # a block of _ratio_keys sums w <= 3 products and then row 0, at most
    # 3p^2 + p < 2^63 for p <= 2^30 (field._INT64_PRODUCT_MAX_P), and row
    # 0's own sum of w products stays below 3p^2.  spec._lifted is float64
    # below field._FLOAT64_PRODUCT_MAX_P and uint64 from 2^30 to 2^63, for
    # the encoder's kernels; its copy in ext.dtype keeps _ratio_keys and
    # at() in int64 or Python-int arithmetic.
    table = np.empty((1 + w, 3, len(pair_j)), dtype=ext.dtype)
    table[1:] = ext.mul_matrix(inverse)[:w]
    np.negative((alpha_j[:w, None] * table[1:]).sum(axis=0), out=table[0])
    reduce_mod(table[0], p)
    del alpha_j, inverse
    widths = [comb(n - 1 - i, 2) for i in range(n - 2)]     # block i: the pairs j > i
    block_rank = list(accumulate(widths[:-1], initial=0))  # its first triple's rank
    block_pair = [len(pair_j) - width for width in widths]  # and its first pair

    keys = _ratio_keys(table, lifted, block_pair, block_rank, p, total)
    keys.sort()
    if not (keys[1:] == keys[:-1]).any():
        return None
    del keys
    keys = _ratio_keys(table, lifted, block_pair, block_rank, p, total)
    order = np.argsort(keys)   # the ranks in key order, equal keys in runs
    keys = keys[order]
    same = keys[1:] == keys[:-1]   # same[q]: sorted entries q and q + 1 share a key
    del keys
    repeated = np.zeros(total, dtype=bool)   # the sorted entries of runs of 2 or more
    repeated[1:] = same
    repeated[:-1] |= same
    ranks = order[repeated]   # their ranks, run after run
    del order, repeated
    # same rises at each such run's first entry and falls at its last one
    first, last = np.flatnonzero(np.diff(same, prepend=False, append=False)).reshape(-1, 2).T
    sizes = last - first + 1
    del same, first, last
    heads = np.cumsum(sizes) - sizes   # each run's first entry in ranks
    # later[j] is ranks[j] if its run holds a lower rank, else total
    later = np.repeat(np.minimum.reduceat(ranks, heads), sizes)   # the run's lowest rank
    is_lowest = ranks == later
    later[:] = ranks
    later[is_lowest] = total
    del is_lowest

    def at(r):   # the triple of rank r and its ratio value
        i = bisect_right(block_rank, r) - 1
        t = block_pair[i] + r - block_rank[i]
        value = tuple(int(c) for c in lifted[i] @ table[:, :, t] % p)
        return (i + 1, int(pair_j[t]) + 1, int(pair_k[t]) + 1), value

    # candidates in increasing rank: the first whose value equals an earlier
    # entry of its run is triple_b, and that entry triple_a (only one can
    # equal it, or the later of two would be an earlier candidate, so the
    # run's lower ranks are tried in any order); a repeat of the key alone
    # moves on to the next candidate
    while later[j := int(later.argmin())] < total:
        rank_b = int(later[j])
        triple_b, value_b = at(rank_b)
        run = int(np.searchsorted(heads, j, side="right")) - 1
        members = ranks[heads[run]:heads[run] + sizes[run]]
        for rank_a in members[members < rank_b].tolist():
            triple_a, value_a = at(rank_a)
            if value_a == value_b:
                return CollisionWitness(triple_a, triple_b, ExtElem(ext, value_b))
        later[j] = total
    return None


def _ratio_keys(table, lifted, block_pair, block_rank, p, total):
    """Int64 sort keys of all C(n, 3) ratio values, one block of pairs per i.

    Block i is one contiguous (coordinate, pair) buffer for the pairs
    j > i, three contiguous coordinate planes: the products lifted[i, r]
    times row r of the pair table are written into it first (the first one
    straight in, even when zero, every other nonzero one through the
    scratch block and an in-place add) and row 0 is added last, so no pass
    copies the table.  One field.reduce_mod covers the block: through
    libdivide, with the scratch block for its quotients, and by one % for
    the small tail blocks and for an object block, which is then cast to
    int64, of each coordinate's low 63 bits from _INT64_COORD_MAX_P on.
    The key c0 + _KEY_MUL*(c1 + _KEY_MUL*c2) mod 2^64 is built by Horner's
    rule from the three planes straight into its slice of the keys: equal
    values have equal keys, and distinct ones share one only by chance.
    """
    keys = np.empty(total, dtype=np.int64)
    pairs = table.shape[2]
    block = np.empty(3 * pairs, dtype=table.dtype)
    scratch = np.empty_like(block)
    for i, (pair, rank) in enumerate(zip(block_pair, block_rank)):
        size = 3 * (pairs - pair)
        b = block[:size].reshape(3, -1)   # (coordinate, pair): contiguous planes
        s = scratch[:size].reshape(b.shape)
        np.multiply(table[1, :, pair:], lifted[i, 1], out=b)   # w >= 1
        for r, c in enumerate(lifted[i, 2:], 2):
            if c:
                np.multiply(table[r, :, pair:], c, out=s)
                b += s
        b += table[0, :, pair:]
        reduce_mod(b, p, s)
        if b.dtype != np.int64:
            if p >= _INT64_COORD_MAX_P:
                b &= _INT64_COORD_MAX_P - 1   # the low 63 bits
            b = b.astype(np.int64)
        c0, c1, c2 = b
        key = keys[rank:rank + len(c0)]
        np.multiply(c2, _KEY_MUL, out=key)
        key += c1
        key *= _KEY_MUL
        key += c0
    return keys


def vandermonde_det(spec: CodeSpec, triple_a, triple_b) -> ExtElem:
    """Determinant of the 3x3 matrix with rows (1, alpha_{a_m}, alpha_{b_m}).

    Expanded directly, no shared code with the ratio map; it vanishes exactly
    when the two ratio values coincide, which makes it a cross-check.
    """
    for t in (triple_a, triple_b):
        if len(t) != 3 or any(x >= y for x, y in zip(t, t[1:])):
            raise ParameterError(f"triples must be strictly increasing, got {t}")
    x1, x2, x3 = (ExtElem(spec.ext, spec.alpha_coords(i)) for i in triple_a)
    y1, y2, y3 = (ExtElem(spec.ext, spec.alpha_coords(i)) for i in triple_b)
    return (x2 * y3 - x3 * y2) - (x1 * y3 - x3 * y1) + (x1 * y2 - x2 * y1)


def lcs_length(xs: Sequence, ys: Sequence) -> int:
    """Longest common subsequence length, by Hunt-Szymanski on the shared
    symbols: the exact answer for any two words, which audit_code asks only
    of a pair whose keys repeat, and the tests' oracle for it.

    Only a symbol of both words can take part in a common subsequence, so
    the two symbol sets are intersected first (C-level set operations), and
    words that share nothing return 0 at once.  Otherwise ys is indexed by
    shared symbol, and each shared x's matching positions in ys, in
    decreasing order, are fed into a strictly increasing patience-sorting
    LIS: a common subsequence is exactly a chain of matches increasing in
    both words, and the decreasing order lets each x extend a chain at most
    once.  Symbols must be hashable; xs is read twice.  Takes O(n + m)
    expected hashing for lengths n, m, plus O(r log n) for the r matching
    position pairs, and O(n + m) memory; r <= n for two distinct codewords
    of these codes, whose symbols are pairwise distinct unless the word is
    constant, and r = 0 for nearly every random pair.
    """
    shared = set(xs).intersection(ys)
    if not shared:
        return 0
    where: dict = {y: [] for y in shared}
    for j in compress(range(len(ys)), map(shared.__contains__, ys)):
        where[ys[j]].append(j)
    tails: list = []   # tails[l]: least end position in ys of a chain of l + 1
    for x in filter(shared.__contains__, xs):
        for j in reversed(where[x]):
            at = bisect_left(tails, j)
            if at == len(tails):
                tails.append(j)
            else:
                tails[at] = j
    return len(tails)


@dataclass
class AuditResult:
    max_lcs: int
    witness: Optional[tuple[Message, Message]]
    pairs_checked: int


# symbols per audit chunk: enough pairs for one encode_many and one sort to
# amortise their numpy calls, while a chunk's 24-byte rows (96 KB) and 8-byte
# keys stay in cache; per pair, with the sorted keys, 2^12 and 2^13 were
# within 8% of each other at n = 50, 150 and 1000 (p = 10007 and 2^61-1),
# and 2^10 and 2^15 7-50% slower
_AUDIT_CHUNK_SYMBOLS = 1 << 12

# a symbol's audit key c0 + K*(c1 + K*c2) mod 2^64, _ratio_keys's key with
# K = _KEY_MUL, as the uint64 product of its coordinates with these weights;
# K^2 mod 2^64 is taken in Python ints, since numpy warns when a uint64
# scalar product wraps
_SYMBOL_KEY = np.array([1, _KEY_MUL, _KEY_MUL * _KEY_MUL % (1 << 64)], dtype=np.uint64)


def _distinct_messages(pairs):
    """The messages of pairs in order, raising ParameterError at the first
    equal pair when it is reached, so that it and a foreign message found by
    the encode are raised in the order of the pairs."""
    for ma, mb in pairs:
        if ma == mb:
            raise ParameterError("audit pairs must consist of distinct messages")
        yield ma
        yield mb


def audit_code(spec: CodeSpec, pairs: Iterable[tuple[Message, Message]]) -> AuditResult:
    """Max pairwise codeword LCS over the given distinct message pairs.

    A maximum of 3 or more disproves (n-3)-deletion correction; the witness
    pair is the first to reach the maximum.  pairs is any iterable, read
    once, in chunks of max(1, 2^12 // 2n) pairs; ParameterError for an equal
    pair and FieldMismatchError for a foreign message are raised in the
    order of the pairs.  A chunk's words come from one encode_many call,
    O(n) per pair, int64 below 2^63 and Python ints above.  Each symbol
    then gets one uint64 key (_SYMBOL_KEY).  A coordinate enters it whole
    for p < 2^64: viewed as uint64 below 2^63, cast to uint64 from 2^63
    on.  For p > 2^64 it enters by its low 63 bits, the mask that
    _ratio_keys applies from 2^63 on.  The keys are laid out
    one row of 2n per pair and each row is sorted: O(n log n) numpy work
    per pair, and no Python object per symbol.  Equal symbols have equal
    keys, so a pair whose sorted row holds no repeated key has 2n distinct
    symbols and an LCS of exactly 0, which is nearly every random pair.
    Only a pair with a repeated key (a shared symbol, a constant word, or
    two distinct symbols that share a key by chance) has its symbol tuples
    built and its LCS computed exactly by lcs_length, in pair order:
    O(n) expected hashing plus O(r log n) for its r matching position
    pairs, where r <= n for distinct codewords.  Memory is one chunk, about
    2^12 symbols with 8 B of keys each, or O(n) for one pair when that is
    more, beyond whatever the caller holds of pairs.
    """
    per_chunk = max(1, _AUDIT_CHUNK_SYMBOLS // (2 * spec.n))
    pairs = iter(pairs)
    best = 0   # every pair has an LCS of at least 0
    witness = None
    count = 0
    while chunk := list(islice(pairs, per_chunk)):
        words = encode_many(spec, _distinct_messages(chunk))   # (n, 2 * pairs, 3)
        if words.dtype != object:
            coords = words.view(np.uint64)
        elif spec.p <= 1 << 64:   # every coordinate fits: cast, with no Python-int pass
            coords = words.astype(np.uint64)
        else:   # each coordinate by its low 63 bits, as in _ratio_keys
            coords = (words & (_INT64_COORD_MAX_P - 1)).astype(np.uint64)
        keys = np.matmul(coords.transpose(1, 0, 2), _SYMBOL_KEY).reshape(len(chunk), -1)
        keys.sort(axis=1)
        if witness is None:
            witness = chunk[0]
        same = keys[:, 1:] == keys[:, :-1]
        # the pairs with a repeated key; one any() first, as nearly no chunk has one
        marked = np.flatnonzero(same.any(axis=1)).tolist() if same.any() else ()
        for q in marked:
            xs, ys = (list(map(tuple, words[:, b].tolist())) for b in (2 * q, 2 * q + 1))
            l = lcs_length(xs, ys)
            if l > best:
                best = l
                witness = chunk[q]
        count += len(chunk)
    return AuditResult(best, witness, count)


def iter_message_pairs(spec: CodeSpec, count: int, seed: int) -> Iterator[tuple[Message, Message]]:
    """Seeded distinct message pairs for audit_code, generated one at a
    time: O(1) memory, whatever count is."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        ma = random_message(spec, rng)
        mb = random_message(spec, rng)
        if ma != mb:
            made += 1
            yield ma, mb


def sample_message_pairs(spec: CodeSpec, count: int, seed: int):
    """The pairs of iter_message_pairs as one list, for callers that reuse
    them; O(count) memory."""
    return list(iter_message_pairs(spec, count, seed))


def base_field_spec(p: int, n: int) -> CodeSpec:
    """A deliberately condition-violating spec with alpha_i = delta_i.

    Evaluation points straight from the base field collide under the ratio
    map (e.g. Gamma(1,2,3) = Gamma(2,3,4) = 1 for consecutive deltas), which
    is what certification must catch.  Both decoders refuse the spec with
    ParameterError.
    """
    delta = tuple(range(1, n + 1))
    rows = [(d, 0, 0) for d in delta]
    return CodeSpec(p, None, delta, alpha_rows=rows)
