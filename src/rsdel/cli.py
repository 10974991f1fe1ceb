"""Batch command line: gen-code, encode, corrupt, decode, check-condition,
audit, roundtrip, bench.

Exit status: 0 success, 2 bad parameters/files/usage, 3 inconsistent received
word, 4 unrecognized received word, 1 roundtrip failures or a violated
injectivity condition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import sys
from dataclasses import asdict, dataclass
from math import comb
from statistics import median
from time import perf_counter

import numpy as np

from . import channel, code, decoder, verify
from .errors import (
    BudgetExceededError,
    InconsistentReceivedWordError,
    ParameterError,
    RSDelError,
    UnrecognizedReceivedWordError,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_UNRECOGNIZED = 4

DECODERS = {"cubic": decoder.decode_cubic, "linear": decoder.decode_linear}


def _parse_int_list(text: str):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ParameterError(f"expected comma-separated integers, got {text!r}") from None


def _parse_coords(text: str):
    vals = _parse_int_list(text)
    if len(vals) != 3:
        raise ParameterError(f"expected three comma-separated ints, got {text!r}")
    return tuple(vals)


def cmd_gen_code(args) -> int:
    """Build a code and write its spec file.

    Takes build_code's time (one primality test of p, at most 13 pow
    calls; the canonical-cubic search, each candidate tested once; O(n)
    checks and arrays for the spec) plus O(n) to write the delta line;
    O(n) memory.
    """
    delta = _parse_int_list(args.delta) if args.delta else None
    spec = code.build_code(args.p, args.n, delta)
    code.save_spec(spec, args.out)
    g = spec.g
    print(f"wrote spec p={spec.p} n={spec.n} g=({g.g0},{g.g1},{g.g2}) to {args.out}")
    return EXIT_OK


def cmd_encode(args) -> int:
    """Encode an explicit or seeded random message and write its n symbols.

    Loading the spec is O(n) plus an O(log p) irreducibility test of its
    cubic; the encode and the write are O(n) time and memory.
    """
    spec = code.load_spec(args.spec)
    if args.random:
        rng = random.Random(args.seed)
        m = code.random_message(spec, rng)
    else:
        if args.m1 is None or args.m2 is None:
            raise ParameterError("encode needs --m1 and --m2, or --random")
        m1, m2 = _parse_coords(args.m1), _parse_coords(args.m2)
        for option, coords in (("--m1", m1), ("--m2", m2)):
            code._require_canonical(spec.p, coords, option)  # as in a symbol file
        m = code.Message(spec.ext.elem(*m1), spec.ext.elem(*m2))
    cw = code.encode(spec, m)
    code.save_symbols(args.out, cw)
    print("m1 {},{},{}".format(*m.m1.coords))
    print("m2 {},{},{}".format(*m.m2.coords))
    print(f"wrote {spec.n} symbols to {args.out}")
    return EXIT_OK


def cmd_corrupt(args) -> int:
    """Keep the given or seeded random positions of a codeword file.

    O(n) time and memory to load the spec and the word, O(n + m log m) for
    a random pattern of m survivors, and O(m) to write them.
    """
    spec = code.load_spec(args.spec)
    word = code.load_codeword(args.infile, spec)
    if args.keep:
        pattern = channel.DeletionPattern(tuple(_parse_int_list(args.keep)))
    elif args.deletions is not None:
        survivors = len(word) - args.deletions
        if survivors < 0:
            raise ParameterError(
                f"cannot delete {args.deletions} symbols from {len(word)}")
        pattern = channel.random_pattern(len(word), survivors, args.seed)
    else:
        raise ParameterError("corrupt needs --keep or --deletions")
    received = channel.apply_deletions(word, pattern)
    code.save_symbols(args.out, received)
    print("kept " + ",".join(str(i) for i in pattern.kept))
    print(f"wrote {len(received)} symbols to {args.out}")
    return EXIT_OK


def cmd_decode(args) -> int:
    """Decode a received word of 3 to n symbols and write the codeword.

    Loading is O(n + m) for m received symbols.  The decoder locates the
    later symbols in O(n + m) time and memory beside the decode of the
    first three, which is O(n) time and memory for either --algo on every
    input (a spec file always holds the quadratic map).
    """
    spec = code.load_spec(args.spec)
    symbols = code.load_symbols(args.received, spec)
    outcome = DECODERS[args.algo](spec, symbols)
    code.save_symbols(args.out, outcome.codeword)
    m = outcome.message
    print(f"path {outcome.path}")
    print("m1 {},{},{}".format(*m.m1.coords))
    print("m2 {},{},{}".format(*m.m2.coords))
    if args.emit_kappa:
        if outcome.kappa.kept:
            print("kappa " + " ".join(str(i) for i in outcome.kappa.kept))
        else:
            print("kappa -")
    print(f"wrote {spec.n} symbols to {args.out}")
    return EXIT_OK


def cmd_check_condition(args) -> int:
    """Certify the ratio map of a spec injective over all C(n, 3) triples.

    Refuses before allocating when C(n, 3) exceeds --budget.  Otherwise
    O(T log T) numpy time for T = C(n, 3), and about 11 B per triple for
    p <= 2^30 or 21-23 B above (about 25-27 B, at most 28 B, when a
    collision is named).
    """
    spec = code.load_spec(args.spec)
    witness = verify.check_injectivity(spec, budget=args.budget)
    if witness is None:
        total = comb(spec.n, 3)
        print(f"pass: {total} triples, all ratio values distinct")
        return EXIT_OK
    print("condition violated: triples {} and {} share ratio value ({},{},{})".format(
        witness.triple_a, witness.triple_b, *witness.value.coords))
    return EXIT_FAILURE


def cmd_audit(args) -> int:
    """Max pairwise codeword LCS over --pairs seeded message pairs.

    O(P * n log n) time for P pairs: each costs O(n) of encoding, one key
    per symbol and one numpy sort of its 2n keys, and only a pair whose
    keys repeat (a shared symbol or a constant word) adds an exact LCS of
    O(n) expected hashing plus O(r log n) for its r matching positions.
    The pairs are generated as they are audited, so memory is one audit
    chunk of about 2^12 symbols and 8 B of keys each (O(n) for one pair
    when n > 2^11), whatever P is.
    """
    if args.pairs < 1:
        raise ParameterError(f"audit needs --pairs >= 1, got {args.pairs}")
    spec = code.load_spec(args.spec)
    pairs = verify.iter_message_pairs(spec, args.pairs, args.seed)
    result = verify.audit_code(spec, pairs)
    print(f"pairs {result.pairs_checked}")
    print(f"max-lcs {result.max_lcs}")
    if result.max_lcs >= 3:
        ma, mb = result.witness
        print(f"witness m1={ma.m1.coords},{ma.m2.coords} m2={mb.m1.coords},{mb.m2.coords}")
        print("audit FAILED: some pair shares a length-3 subsequence")
        return EXIT_FAILURE
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    """Encode random messages, delete symbols, decode every channel output.

    Each trial keeps m random positions, m drawn uniformly from 3..n, or,
    with --exhaustive, each of the C(n,3) triples in turn, whose
    trials * C(n,3) received words are refused against --budget before any
    decode.  Every word goes through DECODERS[algo] once per algorithm,
    which checks all m symbols: the decode must return the message and
    codeword and, unless the codeword is constant, claim exactly the kept
    positions, so under --algo both the two decoders agree.  A word costs
    one decode plus O(n + m) per algorithm.
    """
    if args.trials < 1:
        raise ParameterError(f"roundtrip needs --trials >= 1, got {args.trials}")
    spec = code.load_spec(args.spec)
    if args.exhaustive:
        total = args.trials * comb(spec.n, 3)
        if total > args.budget:
            raise BudgetExceededError(
                f"{args.trials} trials of all C({spec.n},3) kept triples are "
                f"{total} received words, over the budget of {args.budget}")
    rng = random.Random(args.seed)
    decodes = list(DECODERS.values()) if args.algo == "both" else [DECODERS[args.algo]]
    failures = 0
    trials = 0
    longest = 0
    for _ in range(args.trials):
        m = code.random_message(spec, rng)
        cw = code.encode(spec, m)
        if args.exhaustive:
            patterns = channel.enumerate_triples(spec.n)
        else:
            survivors = rng.randint(3, spec.n)
            patterns = [channel.random_pattern(spec.n, survivors, rng.randrange(1 << 30))]
        for pattern in patterns:
            received = channel.apply_deletions(cw, pattern)
            longest = max(longest, len(received))
            trials += 1
            ok = True
            for decode in decodes:
                try:
                    out = decode(spec, received)
                except RSDelError:
                    ok = False
                    break
                # constant words claim no pattern; any claimed one must match
                if out.codeword != cw or out.message != m:
                    ok = False
                elif out.kappa.kept and tuple(out.kappa.kept) != pattern.kept:
                    ok = False
            if not ok:
                failures += 1
    print(f"trials {trials}")
    print(f"longest {longest}")
    print(f"successes {trials - failures}")
    print(f"failures {failures}")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


@dataclass
class BenchRecord:
    p: int
    n: int
    algo: str
    trials: int
    search_time: float
    total_time: float
    p50_time: float
    field_ops: int


def _bench_grid(p_values, n_values):
    """(p, n) pairs: one p for every n, or one p per n, and at least one n."""
    if len(p_values) == 1:
        p_values = list(p_values) * len(n_values)
    if not n_values or len(p_values) != len(n_values):
        raise ParameterError("need at least one n, and one p or exactly one p per n")
    return list(zip(p_values, n_values))


def _expect(ok: bool, failure: str) -> None:
    if not ok:
        raise AssertionError(failure)


def _run_jobs(p_values, n_values, budget_seconds, jobs):
    """One record per job that jobs(p, n) yields at each (p, n) of the grid,
    in order.  Returns (records, truncated).

    A job is (algo, fn, args, take, work), and args holds one argument
    tuple per trial.  A trial times the call fn(*args) alone, between two
    perf_counter reads, and then hands its result to take.  total_time is
    the mean of the trial times and p50_time their median.  work is either
    the field_ops of one call, with search_time equal to total_time, or a
    DecodeInstrumentation: after the timed trials, one more pass, timed
    as a whole, calls fn(*args, work) on every argument tuple.  field_ops
    is then the probe's mean total_ops over the trials, and search_time
    is total_time times the share of that pass the probe spent searching,
    so it never exceeds total_time.  Each job's timed trials run after
    one gc.collect() with the collector off, so that no cyclic collection,
    about 1 ms, lands in a trial's time; the collector's prior state comes
    back after them, also when a trial or take raises.
    Before each job, the walk stops if budget_seconds (None: no budget)
    have passed since it began.
    """
    records = []
    started = perf_counter()
    for p, n in _bench_grid(p_values, n_values):
        for algo, fn, args, take, work in jobs(p, n):
            if budget_seconds is not None and perf_counter() - started > budget_seconds:
                return records, True
            gc.collect()
            enabled = gc.isenabled()
            gc.disable()
            times = []
            try:
                for a in args:
                    t0 = perf_counter()
                    out = fn(*a)
                    times.append(perf_counter() - t0)
                    take(out)
            finally:
                if enabled:
                    gc.enable()
            trials = len(times)
            total = sum(times) / trials
            search, field_ops = total, work
            if isinstance(work, decoder.DecodeInstrumentation):
                t0 = perf_counter()
                for a in args:
                    fn(*a, work)
                # the probed pass's search share, applied to the unprobed mean
                search = total * work.search_seconds / (perf_counter() - t0)
                field_ops = round(work.total_ops / trials)
            assert search <= total and field_ops > 0
            records.append(BenchRecord(p, n, algo, trials, search, total,
                                       median(times), field_ops))
    return records, False


def run_bench(p_values, n_values, trials: int, seed: int = 0,
              budget_seconds=None):
    """Code builds and decodes; per (p, n) a "build_code" record, then the
    records "cubic", "linear", "cubic-random", "linear-random",
    "cubic-midpair" and "linear-received".

    The build record times `trials` calls of build_code(p, n): search_time
    and total_time are their mean, p50_time their median, and field_ops is
    n.  The decodes take one message drawn from random.Random(seed).
    "cubic" and "linear" decode the lexicographically last kept triple
    (n-2, n-1, n) on every trial, which maximizes the cubic search's
    nominal count; its ratio does not depend on the message, so every
    trial repeats one search input.  The "-random" records decode, trial by
    trial, the channel words of `trials` fresh kept triples drawn from a
    second random.Random(seed), apart from the message's, so that every p
    decodes the same triples, and both algos the same words.
    "cubic-midpair" decodes (1, ceil(n/2), n) on every trial: its ratio
    pairs up about n/2 positions of the code around sigma = n + 1 and
    matches on the first row, a valid word whose search, one product over
    all n rows, costs what any word's does.  "linear-received" times
    decode_linear on channel words of min(256, n) survivors, a fresh kept
    set per trial drawn from a third random.Random(seed): the closed-form
    decode of the first three symbols and the check of the later ones.
    One untimed decode of the last triple per (code, record) runs before
    the timed trials, so first-call costs (numpy's code pages, allocator
    growth) are not averaged into the times; the decoders keep nothing per
    code.  The timed decodes run without a probe, as callers run them;
    total_time is their mean and p50_time their median.  A
    DecodeInstrumentation charges a second pass of the same words:
    field_ops is its mean nominal count, and search_time total_time times
    the search's share of that pass (see _run_jobs).  Returns (records,
    truncated).
    """
    def jobs(p, n):
        specs = []
        yield "build_code", code.build_code, [(p, n)] * trials, specs.append, n
        spec = specs[-1]
        cw = code.encode(spec, code.random_message(spec, random.Random(seed)))
        triples = random.Random(seed)
        survivors = random.Random(seed)

        def word(kept):
            return channel.apply_deletions(cw, channel.DeletionPattern(tuple(kept)))

        def check(out):
            _expect(out.codeword == cw, "benchmark decode returned a wrong codeword")

        worst = [word((n - 2, n - 1, n))] * trials
        fresh = [word(sorted(triples.sample(range(1, n + 1), 3))) for _ in range(trials)]
        midpair = [word((1, (n + 1) // 2, n))] * trials
        longer = [word(sorted(survivors.sample(range(1, n + 1), min(256, n))))
                  for _ in range(trials)]
        for algo, decode, words in (
                ("cubic", decoder.decode_cubic, worst), ("linear", decoder.decode_linear, worst),
                ("cubic-random", decoder.decode_cubic, fresh),
                ("linear-random", decoder.decode_linear, fresh),
                ("cubic-midpair", decoder.decode_cubic, midpair),
                ("linear-received", decoder.decode_linear, longer)):
            decode(spec, worst[0], None)  # warm-up
            inst = decoder.DecodeInstrumentation()
            yield algo, decode, [(spec, y) for y in words], check, inst

    return _run_jobs(p_values, n_values, budget_seconds, jobs)


AUDIT_BENCH_PAIRS = 64


def run_certify_bench(p_values, n_values, trials: int, seed: int = 0,
                      budget_seconds=None):
    """Certification benchmarks; records "check_injectivity" and "audit_code"
    per (p, n), in the shape of the decode records.

    search_time and total_time are both the mean over `trials` calls,
    p50_time their median.  field_ops counts the work of one call: the
    C(n, 3) ratio values that check_injectivity certifies, and the
    2 * 64 * n symbols that an audit of 64 seeded message pairs encodes.
    Raises AssertionError if a code fails either check.  Returns
    (records, truncated).
    """
    def jobs(p, n):
        spec = code.build_code(p, n)
        pairs = verify.sample_message_pairs(spec, AUDIT_BENCH_PAIRS, seed)
        yield ("check_injectivity", verify.check_injectivity, [(spec,)] * trials,
               lambda witness: _expect(witness is None,
                                       "benchmark code failed check_injectivity"),
               comb(n, 3))
        yield ("audit_code", verify.audit_code, [(spec, pairs)] * trials,
               lambda audit: _expect(audit.max_lcs <= 2, "benchmark code failed audit_code"),
               2 * AUDIT_BENCH_PAIRS * n)

    return _run_jobs(p_values, n_values, budget_seconds, jobs)


def machine_stamp() -> dict:
    """The machine a bench document ran on: the CPU model (the first
    "model name" line of /proc/cpuinfo, read only; platform.processor()
    where that file is missing), the Python and numpy versions, and
    OPENBLAS_NUM_THREADS, which sets the float64 product's thread count
    (None when unset).  Rows with different stamps are not comparable."""
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def write_bench_json(path, records, truncated: bool) -> None:
    with open(path, "w") as fh:
        json.dump({"truncated": truncated, "machine": machine_stamp(),
                   "records": [asdict(r) for r in records]}, fh, indent=1)
        fh.write("\n")


def cmd_bench(args) -> int:
    """Time code builds and decodes of the last, of random and of the
    mid-pair kept triples, or with --certify the certification jobs, over a
    (p, n) grid and write one record per job to the JSON file --out, with
    the machine stamp of machine_stamp.

    Each grid point costs --trials code builds (see build_code) and
    6 * (2 * --trials + 1) decodes (O(n) each, and O(n + m) for the
    min(256, n) survivors of "linear-received"), or --trials
    calls of check_injectivity (O(T log T) for T = C(n, 3)) and of a
    64-pair audit (O(n) per pair).  Memory is that of the largest single
    job, one code at a time: O(n) for a decode of either algorithm, and
    for check_injectivity, which is not budgeted here, about 11 B per
    triple for p <= 2^30 and 21-23 B above (tracemalloc at n = 150); the
    grid and the records are O(grid).  --budget-seconds stops between
    jobs.
    """
    if args.trials < 1:
        raise ParameterError(f"bench needs --trials >= 1, got {args.trials}")
    if args.budget_seconds is not None and not args.budget_seconds > 0:
        raise ParameterError(f"bench needs --budget-seconds > 0, got {args.budget_seconds}")
    p_values = _parse_int_list(args.p)
    n_values = _parse_int_list(args.n)
    run = run_certify_bench if args.certify else run_bench
    records, truncated = run(p_values, n_values, args.trials, seed=args.seed,
                             budget_seconds=args.budget_seconds)
    write_bench_json(args.out, records, truncated)
    note = " (truncated)" if truncated else ""
    print(f"wrote {len(records)} records to {args.out}{note}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsdel",
        description="Deletion-correcting two-dimensional Reed-Solomon codes")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("gen-code", help="construct a code and write its spec file")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--delta", help="comma-separated override, default 1..n")
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_gen_code)

    q = sub.add_parser("encode", help="encode a message to a codeword file")
    q.add_argument("--spec", required=True)
    q.add_argument("--m1", help="c0,c1,c2")
    q.add_argument("--m2", help="c0,c1,c2")
    q.add_argument("--random", action="store_true")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_encode)

    q = sub.add_parser("corrupt", help="apply a deletion pattern to a codeword")
    q.add_argument("--spec", required=True)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--keep", help="kept positions i,j,k (1-based)")
    q.add_argument("--deletions", type=int, help="number of random deletions")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_corrupt)

    q = sub.add_parser("decode", help="decode a received word of 3 to n symbols")
    q.add_argument("--spec", required=True)
    q.add_argument("--received", required=True)
    q.add_argument("--algo", choices=tuple(DECODERS), required=True)
    q.add_argument("--emit-kappa", action="store_true")
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_decode)

    q = sub.add_parser("check-condition",
                       help="exhaustively certify ratio-map injectivity")
    q.add_argument("--spec", required=True)
    q.add_argument("--budget", type=int, default=10_000_000)
    q.set_defaults(fn=cmd_check_condition)

    q = sub.add_parser("audit", help="max pairwise codeword LCS over sampled messages")
    q.add_argument("--spec", required=True)
    q.add_argument("--pairs", type=int, default=500)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_audit)

    q = sub.add_parser("roundtrip", help="encode/corrupt/decode self-test")
    q.add_argument("--spec", required=True)
    q.add_argument("--trials", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--algo", choices=(*DECODERS, "both"), default="both")
    q.add_argument("--exhaustive", action="store_true",
                   help="all C(n,3) kept triples per message instead of one random")
    q.add_argument("--budget", type=int, default=10_000_000,
                   help="refuse --exhaustive when trials * C(n,3) exceeds this many words")
    q.set_defaults(fn=cmd_roundtrip)

    q = sub.add_parser("bench", help="code build timings, decode timings and op counts "
                       "on the last, on random and on the mid-pair kept triples, or "
                       "certification timings with --certify")
    q.add_argument("--p", required=True, help="one modulus, or one per n")
    q.add_argument("--n", required=True, help="comma-separated blocklength grid")
    q.add_argument("--trials", type=int, default=3)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--budget-seconds", type=float, default=None)
    q.add_argument("--certify", action="store_true",
                   help="time check_injectivity and a 64-pair audit_code instead of decodes")
    q.add_argument("--out", required=True, help="JSON file")
    q.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (2) or --help (0), already printed
        return exc.code
    try:
        return args.fn(args)
    except InconsistentReceivedWordError as exc:
        print(f"inconsistent received word: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except UnrecognizedReceivedWordError as exc:
        print(f"unrecognized received word: {exc}", file=sys.stderr)
        return EXIT_UNRECOGNIZED
    except BudgetExceededError as exc:
        print(f"refusing: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RSDelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
