"""The four benchmark workloads: seeded inputs and one checked operation.

Every input is generated here from the workload seed before anything is
timed, and the package only ever sees the generated inputs.  The channel is
used for generation only; it is never inside a timed or traced region.

A workload is a fixed list of operations (one "pass").  The shares of word
kinds, and the alternation between codes, are the same for every seed; the
seed only changes which messages, symbols and kept triples appear.  Kept
triples are stratified by lexicographic rank (one triple drawn uniformly from
each of `count` equal rank slices), so each triple is still uniform but the
cost of a lexicographic scan over a pass hardly moves from seed to seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

from rsdel import channel, code, decoder, verify
from rsdel.errors import (
    InconsistentReceivedWordError,
    RSDelError,
    UnrecognizedReceivedWordError,
)

P_PACKED = 10007            # p < 2^21: int64 arrays, packed-key numpy scan
P_MIDDLE = 1073741789       # 2^21 <= p <= 2^30: int64 arrays, Python scan
P_OBJECT = (1 << 61) - 1    # p > 2^30: object-dtype arrays, Python scan


@dataclass(frozen=True)
class Op:
    """One timed operation of a pass."""

    kind: str        # valid | constant | garbage | inconsistent | certify | audit
    code: int        # index into the workload's codes
    arg: object = None     # ReceivedTriple for a decode, message pair for an audit
    expect: tuple = ()     # (message, kept triple, codeword digest) for a decodable word


@dataclass(frozen=True)
class Workload:
    name: str
    codes: tuple                 # (p, n) of every code the workload uses
    algo: str                    # decoder function name; "" for certification
    primary: str                 # op kind whose latencies give op_p50_us / op_p95_us
    generate: Callable           # (specs, rng) -> list[Op]
    predictions: tuple = ()      # (count metric, value) that must hold in the traced run


def codeword_digest(cw) -> bytes:
    c = cw.coords
    data = repr(c.tolist()).encode() if c.dtype == object else c.tobytes()
    return hashlib.blake2b(data, digest_size=16).digest()


def unrank_triple(n: int, rank: int) -> tuple[int, int, int]:
    """The 1-based increasing triple with this lexicographic rank among C(n, 3)."""
    i = 1
    while rank >= comb(n - i, 2):
        rank -= comb(n - i, 2)
        i += 1
    j = i + 1
    while rank >= n - j:
        rank -= n - j
        j += 1
    return (i, j, j + 1 + rank)


def stratified_triples(n: int, count: int, rng: random.Random) -> list:
    total = comb(n, 3)
    kept = [unrank_triple(n, int((w + rng.random()) * total / count))
            for w in range(count)]
    rng.shuffle(kept)
    return kept


def channel_word(ci, spec, kept, rng, constant=False) -> Op:
    """Encode a random message and keep the symbols at `kept`."""
    m = code.random_message(spec, rng)
    if constant:
        m = code.Message(m.m1, spec.ext.zero)
    cw = code.encode(spec, m)
    y = channel.apply_deletions(cw, channel.DeletionPattern(kept))
    return Op("constant" if constant else "valid", ci, decoder.ReceivedTriple(*y),
              (m, () if constant else kept, codeword_digest(cw)))


def distinct_symbols(spec, count, rng):
    while True:
        ys = [spec.ext.rand(rng) for _ in range(count)]
        if len({y.coords for y in ys}) == count:
            return ys


def gen_linear_valid(specs, rng, words=2048):
    spec = specs[0]
    return [channel_word(0, spec, kept, rng)
            for kept in stratified_triples(spec.n, words, rng)]


def gen_linear_mixed(specs, rng, words=320):
    spec = specs[0]
    garbage, inconsistent, constant = words // 16, words // 32, words // 32
    ops = [channel_word(0, spec, kept, rng)
           for kept in stratified_triples(spec.n, words - garbage - inconsistent - constant, rng)]
    ops += [channel_word(0, spec, kept, rng, constant=True)
            for kept in stratified_triples(spec.n, constant, rng)]
    ops += [Op("garbage", 0, decoder.ReceivedTriple(*distinct_symbols(spec, 3, rng)))
            for _ in range(garbage)]
    for w in range(inconsistent):
        a, b = distinct_symbols(spec, 2, rng)
        shape = ((a, a, b), (a, b, b), (a, b, a))[w % 3]
        ops.append(Op("inconsistent", 0, decoder.ReceivedTriple(*shape)))
    rng.shuffle(ops)
    return ops


def gen_cubic_scan(specs, rng, words_per_code=48):
    per_code = [[channel_word(ci, spec, kept, rng)
                 for kept in stratified_triples(spec.n, words_per_code, rng)]
                for ci, spec in enumerate(specs)]
    return [op for pair in zip(*per_code) for op in pair]


def gen_certify(specs, rng, pairs=64):
    pair_seed = rng.randrange(1 << 32)
    return [Op("certify", 0)] + [Op("audit", 0, pair) for pair in
                                 verify.sample_message_pairs(specs[0], pairs, pair_seed)]


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("linear-valid", ((P_PACKED, 512),), "decode_linear", "valid",
                 gen_linear_valid, (("decoder.path.fallback", 0),)),
        Workload("linear-mixed", ((P_OBJECT, 64),), "decode_linear", "valid",
                 gen_linear_mixed),
        Workload("cubic-scan", ((P_PACKED, 512), (P_MIDDLE, 96)), "decode_cubic", "valid",
                 gen_cubic_scan, (("decoder.path.closed_form", 0),)),
        Workload("certify", ((P_PACKED, 150),), "", "audit", gen_certify),
    )
}


def regime(spec) -> str:
    """The arithmetic regime of a code: its array dtype and scan kind."""
    zero = spec.ext.zero
    dtype = code.encode(spec, code.Message(zero, zero)).coords.dtype
    return f"p={spec.p} n={spec.n} dtype={dtype} fast_search_ok={spec.fast_search_ok()}"


def build_codes(wl: Workload) -> list:
    # looked up on the module at call time, so the traced run sees its wrapper
    return [code.build_code(p, n) for p, n in wl.codes]


def call(op: Op, spec, algo: str, inst=None):
    """Run one operation; return its result or the package error it raised."""
    try:
        if op.kind == "certify":
            return verify.check_injectivity(spec)
        if op.kind == "audit":
            return verify.audit_code(spec, [op.arg])
        return getattr(decoder, algo)(spec, op.arg, inst)
    except RSDelError as exc:
        return exc


def correct(op: Op, result) -> bool:
    """The correctness gate: the one right outcome for each kind of operation."""
    if op.kind == "garbage":
        return isinstance(result, UnrecognizedReceivedWordError)
    if op.kind == "inconsistent":
        return isinstance(result, InconsistentReceivedWordError)
    if isinstance(result, RSDelError):
        return False
    if op.kind == "certify":
        return result is None
    if op.kind == "audit":
        return result.pairs_checked == 1 and result.max_lcs <= 2
    message, kept, digest = op.expect
    return (result.message == message
            and result.kappa.kept == kept
            and codeword_digest(result.codeword) == digest)
