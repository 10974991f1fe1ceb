"""Independent certification oracles.

Nothing here shares logic with the decoders: injectivity is certified by
exhaustive enumeration, the determinant is expanded directly rather than
through the ratio map, and LCS is a plain dynamic program.  A code corrects
t deletions iff every distinct codeword pair has LCS < n - t, so for these
codes (t = n - 3) the audit target is max LCS <= 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .code import CodeSpec, Message, encode, random_message
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

    Returns None on success, the first CollisionWitness otherwise.  Refuses
    (BudgetExceededError) when C(n, 3) exceeds the budget: the certification
    is exhaustive or it is nothing.
    """
    n = spec.n
    total = comb(n, 3)
    if total > budget:
        raise BudgetExceededError(
            f"C({n},3) = {total} triples exceeds the budget of {budget}")
    ext = spec.ext
    alpha = [spec.alpha_coords(i) for i in range(1, n + 1)]
    # invert each alpha_j - alpha_k once; the triple loop is then pure mul
    inv_jk = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            inv_jk[j][k] = ext.inv(ext.sub(alpha[j], alpha[k]))
    seen: dict = {}
    for i in range(n - 2):
        ai = alpha[i]
        for j in range(i + 1, n - 1):
            num = ext.sub(ai, alpha[j])
            row = inv_jk[j]
            for k in range(j + 1, n):
                val = ext.mul(num, row[k])
                prev = seen.get(val)
                if prev is not None:
                    return CollisionWitness(prev, (i + 1, j + 1, k + 1),
                                            ExtElem(ext, val))
                seen[val] = (i + 1, j + 1, k + 1)
    return None


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
    """Longest common subsequence length, classic two-row dynamic program."""
    xs = list(xs)
    ys = list(ys)
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


def fll_distance(xs: Sequence, ys: Sequence) -> int:
    """n - LCS for two equal-length words (deletion balls of radius t
    intersect exactly when this is <= t)."""
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


def audit_code(spec: CodeSpec, pairs) -> AuditResult:
    """Max pairwise codeword LCS over the given distinct message pairs.

    A maximum of 3 or more disproves (n-3)-deletion correction; the witness
    pair achieving the maximum is always named.
    """
    best = -1
    witness = None
    count = 0
    for ma, mb in pairs:
        if ma == mb:
            raise ParameterError("audit pairs must consist of distinct messages")
        ca = encode(spec, ma).symbol_tuples()
        cb = encode(spec, mb).symbol_tuples()
        l = lcs_length(ca, cb)
        count += 1
        if l > best:
            best = l
            witness = (ma, mb)
    return AuditResult(best if count else 0, witness, count)


def sample_message_pairs(spec: CodeSpec, count: int, seed: int):
    """Seeded distinct message pairs for audit_code."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ma = random_message(spec, rng)
        mb = random_message(spec, rng)
        if ma != mb:
            out.append((ma, mb))
    return out


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
