"""Independent certification oracles.

Nothing here shares logic with the decoders: injectivity is certified by
exhaustive enumeration, the determinant is expanded directly rather than
through the ratio map, and LCS is computed by Hunt-Szymanski on the
codeword symbols.  A code corrects t deletions iff every distinct codeword
pair has LCS < n - t, so for these codes (t = n - 3) the audit target is
max LCS <= 2.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, islice
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .code import CodeSpec, Message, encode, encode_many, random_message
from .errors import BudgetExceededError, ParameterError
from .field import ExtElem, find_irreducible_cubic


@dataclass(frozen=True)
class CollisionWitness:
    """Two increasing triples whose ratio values coincide."""

    triple_a: tuple[int, int, int]
    triple_b: tuple[int, int, int]
    value: ExtElem


def check_injectivity(spec: CodeSpec, budget: int = 10_000_000) -> Optional[CollisionWitness]:
    """Certify the ratio map injective by evaluating every increasing triple.

    Returns None on success, the first CollisionWitness otherwise: triple_b
    is the lowest-rank triple (lexicographic order) whose ratio value already
    occurs at a lower rank, triple_a that lower-rank triple.  Refuses
    (BudgetExceededError) when C(n, 3) exceeds the budget, before anything is
    allocated: the certification is exhaustive or it is nothing.

    The C(n, 2) differences alpha_j - alpha_k are inverted as one batch
    (CubicField.inv_many: O(n^2) numpy work and a single F_p inverse) into
    a pair table; then every ratio is computed in numpy, one block of pairs
    (j, k) per i, and the C(n, 3) values are sorted to find repeats, which
    is O(T log T) numpy work for T = C(n, 3) triples.  Each value is stored
    as sort keys: one packed int64 for p < 2^21, c0 + c1*p and c2 for
    p <= 2^31, the three coordinates above (Python ints for p >= 2^63).  The
    leading key is sorted in place, and only when it repeats are the keys
    built a second time (one more O(T) pass) and all of them lexsorted.
    Memory is O(n^2) scratch plus the keys and a repeat mask: about 11 B
    per triple for p < 2^21 and 19 B up to 2^30 (tracemalloc at n = 150),
    so the default budget implies about 110 MB at p < 2^21.  Naming a
    collision takes up to 34 and 42 B per triple.
    """
    n = spec.n
    total = comb(n, 3)
    if total > budget:
        raise BudgetExceededError(
            f"C({n},3) = {total} triples exceeds the budget of {budget}")
    ext, p = spec.ext, spec.p
    lifted = spec._lifted   # rows (1, alpha_i[:w])
    w = lifted.shape[1] - 1
    pair_j, pair_k = np.triu_indices(n, 1)  # pairs j < k in lexicographic order
    alpha_j = spec._alpha[pair_j].T
    inverse = ext.inv_many((alpha_j - spec._alpha[pair_k].T) % p)
    # lifted[i] @ table[:, 3t:3t+3] is the ratio of triple (i, j, k) for pair
    # t = (j, k): row 0 holds v = -alpha_j/(alpha_j - alpha_k), rows 1..w the
    # rows of M_{1/(alpha_j - alpha_k)} that alpha_i's nonzero coordinates
    # pick out.  int64 stays exact, since a sum of row 0 and w <= 3 products
    # is at most p + 3p^2 < 2^63 for p <= 2^30.
    rows = np.array(ext.mul_matrix(inverse)[:w], dtype=ext.dtype)  # (row, coordinate, pair)
    table = np.empty((1 + w, len(pair_j), 3), dtype=ext.dtype)  # (row, pair, coordinate)
    table[0] = (-(alpha_j[:w, None] * rows).sum(axis=0) % p).T
    table[1:] = rows.transpose(0, 2, 1)
    table = table.reshape(1 + w, -1)
    del alpha_j, inverse, rows
    # sort keys: the leading key packs the first `pack` coordinates as
    # c0 + c1*p (+ c2*p^2), the rest follow one column each; a packed key
    # stays below 2^63 for p < 2^21 (three coordinates) and below 2^62 for
    # p <= 2^31 (two)
    pack = 3 if p < (1 << 21) else 2 if p <= (1 << 31) else 1
    block_rank, block_pair = [], []   # first triple rank and first pair of block i
    rank = pair = 0
    for i in range(n - 2):
        pair += n - 1 - i   # the first pair (j, k) with j > i
        block_rank.append(rank)
        block_pair.append(pair)
        rank += len(pair_j) - pair

    keys = _ratio_keys(table, lifted, block_pair, block_rank, p, pack, total)
    # a repeated value repeats its leading key; only then sort every key
    keys[0].sort()
    if not (keys[0, 1:] == keys[0, :-1]).any():
        return None
    del keys
    keys = _ratio_keys(table, lifted, block_pair, block_rank, p, pack, total)
    order = np.lexsort(keys[::-1])
    same = np.ones(total - 1, dtype=bool)
    for column in keys:
        ordered = column[order]
        same &= ordered[1:] == ordered[:-1]
    if not same.any():
        return None
    del ordered
    # the sort is stable, so a run of equal values lists their ranks in
    # increasing order: every entry after the run's first is a repeat, and
    # the lowest-rank repeat is the second entry of its run
    repeats = np.flatnonzero(same) + 1
    pos_b = repeats[np.argmin(order[repeats])]

    def triple(r):
        i = bisect_right(block_rank, r) - 1
        t = block_pair[i] + r - block_rank[i]
        return (i + 1, int(pair_j[t]) + 1, int(pair_k[t]) + 1)

    rank_b = int(order[pos_b])
    lead, *rest = (int(c) for c in keys[:, rank_b])
    value = []
    for _ in range(pack - 1):
        lead, c = divmod(lead, p)
        value.append(c)
    value = (*value, lead, *rest)
    return CollisionWitness(triple(int(order[pos_b - 1])), triple(rank_b), ExtElem(ext, value))


def _ratio_keys(table, lifted, block_pair, block_rank, p, pack, total):
    """Sort keys of all C(n, 3) ratio values, one block of pairs per i.

    Block i is row 0 of the pair table plus lifted[i, r] times row r, built
    by in-place adds that skip zero multipliers, then reduced mod p: int64
    blocks by floor division by the scalar p (which numpy runs through
    libdivide, about twice as fast as %), object blocks by %.  The leading
    key is packed by Horner's rule straight into its row of the keys.
    """
    int64 = table.dtype == np.int64
    keys = np.empty((4 - pack, total),
                    dtype=np.int64 if pack > 1 or p < (1 << 63) else object)
    block = np.empty(table.shape[1], dtype=table.dtype)
    scratch = np.empty_like(block)
    for i, (pair, rank) in enumerate(zip(block_pair, block_rank)):
        size = table.shape[1] - 3 * pair
        b, s = block[:size], scratch[:size]
        b[:] = table[0, 3 * pair:]
        for r, c in enumerate(lifted[i, 1:], 1):
            if c:
                np.multiply(table[r, 3 * pair:], c, out=s)
                b += s
        if int64:
            np.floor_divide(b, p, out=s)
            s *= p
            b -= s
        else:
            b %= p
            if pack > 1:
                b = b.astype(np.int64)  # the packed key fits int64, not its inputs
        coords = b.reshape(-1, 3)
        key = keys[0, rank:rank + len(coords)]
        key[:] = coords[:, pack - 1]
        for e in range(pack - 2, -1, -1):
            key *= p
            key += coords[:, e]
        keys[1:, rank:rank + len(coords)] = coords[:, pack:].T
    return keys


def vandermonde_det(spec: CodeSpec, triple_a, triple_b) -> ExtElem:
    """Determinant of the 3x3 matrix with rows (1, alpha_{a_m}, alpha_{b_m}).

    Expanded directly, no shared code with the ratio map; it vanishes exactly
    when the two ratio values coincide, which makes it a cross-check.
    """
    for t in (triple_a, triple_b):
        if len(t) != 3 or any(x >= y for x, y in zip(t, t[1:])):
            raise ParameterError(f"triples must be strictly increasing, got {t}")
    x1, x2, x3 = (spec.alpha_at(i) for i in triple_a)
    y1, y2, y3 = (spec.alpha_at(i) for i in triple_b)
    return (x2 * y3 - x3 * y2) - (x1 * y3 - x3 * y1) + (x1 * y2 - x2 * y1)


def lcs_length(xs: Sequence, ys: Sequence) -> int:
    """Longest common subsequence length, by Hunt-Szymanski on the shared
    symbols.

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


def fll_distance(xs: Sequence, ys: Sequence) -> int:
    """n - LCS for two equal-length words (deletion balls of radius t
    intersect exactly when this is <= t).

    Costs one lcs_length: O(n) expected hashing plus O(r log n) for the r
    matching position pairs among the shared symbols, and O(n) memory.
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ParameterError(
            f"distance needs equal lengths, got {len(xs)} and {len(ys)}")
    return len(xs) - lcs_length(xs, ys)


@dataclass
class AuditResult:
    max_lcs: int
    witness: Optional[tuple[Message, Message]]
    pairs_checked: int


# symbols per audit chunk: enough pairs for one encode_many to amortise its
# numpy calls, while a chunk's 24-byte rows (96 KB) stay in cache; per pair,
# 2^12 was as fast as 2^10 or 2^13 and 10-20% faster than 2^15 or 2^17 at
# n = 50, 150 and 1000
_AUDIT_CHUNK_SYMBOLS = 1 << 12


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
    order of the pairs.  For p <= 2^30 a chunk's words come from one
    encode_many call, O(n) per pair, and each symbol is hashed as its
    24-byte row, whose bytes are equal exactly when the canonical int64
    coordinates are.  Above that each message is encoded on its own, O(n),
    and its symbols are coordinate tuples, since the raw bytes of an object
    array are pointers.  Each pair then costs one lcs_length: O(n) expected
    hashing plus O(r log n) for the r matching position pairs among the
    shared symbols, where r <= n for distinct codewords and r = 0 for nearly
    every random pair.  Memory is one chunk, about 2^12 symbols, or O(n) for
    one pair when that is more, beyond whatever the caller holds of pairs.
    """
    per_chunk = max(1, _AUDIT_CHUNK_SYMBOLS // (2 * spec.n))
    pairs = iter(pairs)
    best = -1
    witness = None
    count = 0
    while chunk := list(islice(pairs, per_chunk)):
        messages = _distinct_messages(chunk)
        if spec.ext.dtype == object:
            # one product over a chunk's Python ints is no faster than the
            # products apart, and made the 2^61-1 audit about 10% slower
            symbols = (encode(spec, m).symbol_tuples() for m in messages)
        else:
            words = encode_many(spec, messages)
            symbols = iter(words.view(np.dtype((np.void, 24)))[..., 0].T.tolist())
        for ma, mb in chunk:
            l = lcs_length(next(symbols), next(symbols))
            if l > best:
                best = l
                witness = (ma, mb)
        count += len(chunk)
    return AuditResult(best if count else 0, witness, count)


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
    is what certification must catch.  decode_linear refuses the spec with
    ParameterError; decode_cubic makes no promises here.
    """
    delta = tuple(range(1, n + 1))
    rows = [(d, 0, 0) for d in delta]
    return CodeSpec(p, find_irreducible_cubic(p), delta, alpha_rows=rows)
