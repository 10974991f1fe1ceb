"""Property tests: every input is decoded exactly or rejected with a typed
error.

Hypothesis draws received words of 3..n symbols (channel outputs, channel
outputs with some symbols replaced, and uniformly random symbols), the
same words built from a codeword's rows and from ExtElems in each of the
symbol arrays' dtypes, messages and evaluation points in each of the
encoder's four arithmetic regimes (under a random irreducible g and delta),
codeword pairs for the audit (random, constant, shifted or sharing a
symbol, on good and on base-field specs), random bytes for the two file
loaders, and command lines for every
subcommand of the CLI but bench, on spec files, symbol files and option
values that are valid, corrupted or random.  Every regime word is also
decoded with and without a probe.  The runs are derandomized, keep no
example database and have fixed example counts, so tier-1 stays
deterministic; the module takes about 10 s (9.6-10.1 s under pytest on a
2-vCPU x86-64 VM), about 1.5 s each for its four slowest properties: the
probe, rows-and-elements, encode and command-line ones.
"""

import contextlib
import io
import itertools
import random
import tempfile
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rsdel.channel import DeletionPattern, apply_deletions
from rsdel.cli import main
from rsdel.code import (
    CodeSpec,
    Codeword,
    Message,
    ReceivedWord,
    encode,
    load_spec,
    load_symbols,
)
from rsdel.decoder import (
    OPS_LATER_PER_SYMBOL,
    OPS_LOOKUP_PER_SYMBOL,
    PATH_CONSTANT,
    DecodeInstrumentation,
    ReceivedTriple,
    decode_cubic,
    decode_linear,
)
from rsdel.errors import (
    InconsistentReceivedWordError,
    ParameterError,
    RSDelError,
    UnrecognizedReceivedWordError,
)
from rsdel.field import MonicCubic, is_irreducible_cubic
from rsdel.verify import AuditResult, audit_code, base_field_spec

from conftest import get_spec, is_checked_pattern

SPECS = ((5, 4), (7, 6), (11, 10), (10007, 12))
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=400,
                    suppress_health_check=[HealthCheck.too_slow])
LOADERS = settings(PROPERTY, max_examples=300)


@st.composite
def received_words(draw):
    """(spec, word, message, pattern): message and pattern are those of the
    channel output the word started from, None for garbage."""
    p, n = draw(st.sampled_from(SPECS))
    spec = get_spec(p, n)
    ext = spec.ext
    coords = st.tuples(*[st.integers(0, p - 1)] * 3)
    size = draw(st.integers(3, n))
    kind = draw(st.sampled_from(("valid", "corrupted", "garbage")))
    if kind == "garbage":
        return spec, tuple(ext.elem(*c) for c in draw(
            st.lists(coords, min_size=size, max_size=size))), None, None
    m1, m2 = draw(coords), draw(coords)
    if draw(st.integers(0, 7)) == 0:
        m2 = (0, 0, 0)   # a constant codeword
    m = Message(ext.elem(*m1), ext.elem(*m2))
    kept = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=size, max_size=size))))
    pattern = DeletionPattern(kept)
    word = list(apply_deletions(encode(spec, m), pattern))
    if kind == "corrupted":
        for at in draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size)):
            word[at] = ext.elem(*draw(coords))
        return spec, tuple(word), None, None
    return spec, tuple(word), m, pattern


def outcome(spec, word, decode):
    try:
        return decode(spec, word)
    except (UnrecognizedReceivedWordError, InconsistentReceivedWordError) as exc:
        return type(exc)


@PROPERTY
@given(received_words())
def test_every_word_decodes_exactly_or_fails_typed(case):
    spec, word, m, pattern = case
    linear = outcome(spec, word, decode_linear)
    cubic = outcome(spec, word, decode_cubic)
    if isinstance(linear, type) or isinstance(cubic, type):
        assert linear is cubic   # both reject, with one type
        assert m is None        # a channel output is never rejected
        return
    assert (linear.message, linear.codeword, linear.kappa, linear.path != PATH_CONSTANT) \
        == (cubic.message, cubic.codeword, cubic.kappa, cubic.path != PATH_CONSTANT)
    out = linear
    assert is_checked_pattern(out.kappa)
    assert encode(spec, out.message) == out.codeword
    if out.path == PATH_CONSTANT:
        assert out.kappa.kept == () and out.message.m2 == 0
        assert all(sym == out.codeword[0] for sym in word)
    else:
        assert tuple(apply_deletions(out.codeword, out.kappa)) == word
    if m is not None:
        assert out.message == m
        assert out.kappa == (DeletionPattern(()) if m.m2 == 0 else pattern)
    # the later symbols only extend what the first three decode to
    for decode, full in ((decode_linear, linear), (decode_cubic, cubic)):
        first = decode(spec, word[:3])
        assert (first.message, first.codeword, first.path) \
            == (full.message, full.codeword, full.path)
        assert first.kappa.kept == full.kappa.kept[:3]


def total_ops(decode, spec, word):
    """The total_ops of one decode of word, rejected or not."""
    inst = DecodeInstrumentation()
    with contextlib.suppress(UnrecognizedReceivedWordError, InconsistentReceivedWordError):
        decode(spec, word, inst)
    return inst.total_ops


@settings(PROPERTY, max_examples=200)
@given(received_words())
def test_later_symbols_add_their_price(case):
    # an m-symbol word costs what its first three do, plus the later-symbol
    # stage: a lookup entry per codeword symbol (none for a constant word)
    # and a locate per later symbol, rejections at a later symbol too; a
    # word whose first three are rejected never reaches the stage
    spec, word, _, _ = case
    for decode in (decode_linear, decode_cubic):
        first = outcome(spec, word[:3], decode)
        price = 0
        if not isinstance(first, type) and len(word) > 3:
            price = ((len(word) - 3) * OPS_LATER_PER_SYMBOL
                     + (spec.n * OPS_LOOKUP_PER_SYMBOL if first.kappa.kept else 0))
        assert total_ops(decode, spec, word) == total_ops(decode, spec, word[:3]) + price


# small primes, whose random symbols often repeat, and one prime per regime
# of the codewords' keys: int64 through float64 or uint64 products, and
# object above 2^63; the uint64 regime at 2^32 + 15 and 2^63 - 25 as well
# (see REGIME_PRIMES)
AUDIT_PRIMES = (5, 7, 13, 10007, (1 << 32) + 15, (1 << 61) - 1, (1 << 63) - 25,
                (1 << 64) - 59)

# one prime per regime of the evaluation matrix: float64 (BLAS), int64,
# uint64 (the split kernel) and object (Python ints); the uint64 regime also
# at the first prime above 2^32, where a column's high half x_hi first
# reaches 1, and at 2^63 - 25, where x_hi and u = v * 2^32 mod p take their
# full range and the kernel's r + p comes closest to 2^64
REGIME_PRIMES = (10007, 54794197, (1 << 32) + 15, (1 << 61) - 1, (1 << 63) - 25,
                 (1 << 64) - 59)


def draw_cubic(draw, p):
    """A uniform monic cubic over F_p, drawn by rejection until it is
    irreducible (about one in three is), from a generator that hypothesis
    seeds, so that the smallest example is one draw and not a run of
    reducible zero cubics."""
    rng = random.Random(draw(st.integers(0, (1 << 32) - 1)))
    while True:
        g = MonicCubic(rng.randrange(p), rng.randrange(p), rng.randrange(p))
        if is_irreducible_cubic(p, g):
            return g


def draw_delta(draw, n, residues):
    """n distinct nonzero residues: a random delta."""
    return draw(st.lists(residues.filter(bool), min_size=n, max_size=n, unique=True))


@st.composite
def regime_encodings(draw):
    """(spec, message): a spec of 3..10 points in one regime, under a
    random irreducible g and delta, from the quadratic map or from
    arbitrary rows (lifted width 1 to 3), and a message, their residues
    drawn uniformly or from the kernel's edges."""
    p = draw(st.sampled_from(REGIME_PRIMES))
    edges = sorted({v % p for v in (0, 1, 2, p - 2, p - 1, (p - 1) // 2,
                                    2**32 - 1, 2**32, 2**32 + 1)})
    residues = st.one_of(st.sampled_from(edges), st.integers(0, p - 1))
    n = draw(st.integers(3, 10))
    g = draw_cubic(draw, p)
    if draw(st.booleans()):
        spec = CodeSpec(p, g, draw_delta(draw, n, residues))
    else:
        rows = draw(st.lists(st.tuples(residues, residues, residues), min_size=n, max_size=n,
                             unique=True))
        spec = CodeSpec(p, g, range(1, n + 1), alpha_rows=rows)
    coords = st.tuples(residues, residues, residues)
    return spec, Message(spec.ext.elem(*draw(coords)), spec.ext.elem(*draw(coords)))


@settings(PROPERTY, max_examples=200)
@given(regime_encodings())
def test_encode_matches_rowwise_field_arithmetic(case):
    # encode's one product, in whichever regime, against m1 + m2*alpha_i by
    # CubicField's Python-int arithmetic, one symbol at a time
    spec, m = case
    ext = spec.ext
    want = [ext.add(m.m1.coords, ext.mul(m.m2.coords, spec.alpha_coords(i)))
            for i in range(1, spec.n + 1)]
    assert encode(spec, m).symbol_tuples() == want


@st.composite
def regime_words(draw):
    """(spec, codeword, pattern): a codeword of a spec of n in 3..10 points
    from the quadratic map, under a random irreducible g and delta, and p
    one of REGIME_PRIMES, whose rows encode a message (constant one time in
    eight), encode one with rows replaced, or are random, and the kept
    positions of a word of 3..n of its symbols."""
    p = draw(st.sampled_from(REGIME_PRIMES))
    n = draw(st.integers(3, 10))
    residues = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    spec = CodeSpec(p, draw_cubic(draw, p), draw_delta(draw, n, residues))
    coords = st.tuples(residues, residues, residues)
    kind = draw(st.sampled_from(("valid", "corrupted", "garbage")))
    if kind == "garbage":
        rows = draw(st.lists(coords, min_size=n, max_size=n))
    else:
        m2 = (0, 0, 0) if draw(st.integers(0, 7)) == 0 else draw(coords)
        m = Message(spec.ext.elem(*draw(coords)), spec.ext.elem(*m2))
        rows = encode(spec, m).symbol_tuples()
        if kind == "corrupted":
            for at in draw(st.sets(st.integers(0, n - 1), min_size=1)):
                rows[at] = draw(coords)
    size = draw(st.integers(3, n))
    kept = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=size, max_size=size))))
    return spec, Codeword(spec, rows), DeletionPattern(kept)


def alike(decode, *args):
    """A decode's (message, kappa, path), or its error's type and reason."""
    try:
        out = decode(*args)
    except RSDelError as exc:
        return type(exc), getattr(exc, "reason", None)
    return out.message, out.kappa, out.path


@settings(PROPERTY, max_examples=200)
@given(regime_words())
def test_words_from_rows_and_from_elements_decode_alike(case):
    # apply_deletions takes a codeword's rows into a word unchecked; the
    # same symbols as ExtElems are checked and built into a word by the
    # decoders.  Every decode reads the two alike, in every symbol dtype
    spec, cw, pattern = case
    rows = apply_deletions(cw, pattern)
    elems = tuple(cw[i - 1] for i in pattern.kept)
    assert type(rows) is ReceivedWord and rows.coords.dtype == spec.ext.symbol_dtype
    assert rows == ReceivedWord(elems) and tuple(rows) == elems
    for decode in (decode_linear, decode_cubic):
        assert alike(decode, spec, rows[:3]) == alike(decode, spec, ReceivedTriple(*elems[:3]))
        assert alike(decode, spec, rows) == alike(decode, spec, elems)


@settings(PROPERTY, max_examples=200)
@given(regime_words())
def test_a_probe_changes_no_outcome(case):
    # the probe only observes: a decode given one returns what a decode
    # without one returns, or raises the same error type with the same reason
    spec, cw, pattern = case
    word = apply_deletions(cw, pattern)
    for decode in (decode_linear, decode_cubic):
        assert alike(decode, spec, word, DecodeInstrumentation()) == alike(decode, spec, word)


def hunt_szymanski(xs, ys):
    """LCS length of two symbol lists: each x's matching positions in ys, in
    decreasing order, extend a strictly increasing patience-sorting LIS."""
    where = {}
    for j, y in enumerate(ys):
        where.setdefault(y, []).append(j)
    tails = []
    for x in xs:
        for j in reversed(where.get(x, ())):
            at = bisect_left(tails, j)
            tails[at:at + 1] = [j]
    return len(tails)


def audit_reference(spec, pairs):
    """The AuditResult of pairs one pair at a time, by hunt_szymanski on the
    symbol tuples of separate encodes; ParameterError at an equal pair."""
    best, witness = 0, None
    for ma, mb in pairs:
        if ma == mb:
            raise ParameterError("equal pair")
        l = hunt_szymanski(encode(spec, ma).symbol_tuples(), encode(spec, mb).symbol_tuples())
        if witness is None or l > best:
            best, witness = l, (ma, mb)
    return AuditResult(best, witness, len(pairs))


@st.composite
def audit_cases(draw):
    """(spec, pairs): a build_code spec or base_field_spec of 3..24 points
    and up to 6 pairs, each random, with a constant word, shifted
    (m1 + m2, m2), an LCS of n - 1 on base_field_spec, or with the second
    word taking a symbol of the first at another position."""
    p = draw(st.sampled_from(AUDIT_PRIMES))
    n = draw(st.integers(3, min(24, p - 1)))
    spec = draw(st.sampled_from((get_spec(p, n), base_field_spec(p, n))))
    ext = spec.ext
    elems = st.tuples(*[st.integers(0, p - 1)] * 3).map(lambda c: ext.elem(*c))
    pairs = []
    for kind in draw(st.lists(st.sampled_from(("random", "constant", "shifted", "sharing")),
                              max_size=6)):
        ma = Message(draw(elems), draw(elems))
        if kind == "random":
            mb = Message(draw(elems), draw(elems))
        elif kind == "constant":
            mb = Message(draw(elems), ext.zero)
        elif kind == "shifted":
            mb = Message(ma.m1 + ma.m2, ma.m2)
        else:
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(1, n))
            m2 = draw(elems)
            mb = Message(encode(spec, ma)[i] - m2 * spec.ext.elem(*spec.alpha_coords(j)), m2)
        pairs.append(draw(st.sampled_from(((ma, mb), (mb, ma)))))
    return spec, pairs


@settings(PROPERTY, max_examples=200)
@given(audit_cases())
def test_audit_matches_per_pair_hunt_szymanski(case):
    # the sorted-key audit against an exact LCS of every pair, equal pairs
    # (a shifted or sharing word can equal its partner) raising alike
    spec, pairs = case
    try:
        want = audit_reference(spec, pairs)
    except ParameterError:
        with pytest.raises(ParameterError):
            audit_code(spec, pairs)
    else:
        assert audit_code(spec, pairs) == want


@pytest.fixture(scope="module")
def new_path():
    """Fresh paths in one temporary directory: every input and output gets
    a new file, since rewriting one file in place costs tens of
    milliseconds a time on some filesystems."""
    with tempfile.TemporaryDirectory() as root:
        names = itertools.count()
        yield lambda: Path(root) / f"file-{next(names)}"


@pytest.fixture(scope="module")
def write_input(new_path):
    def write(data):
        path = new_path()
        path.write_bytes(data)
        return path
    return write


_TOKENS = st.sampled_from(("p", "g", "delta", "5", "7", "11", "10007", "0", "-1", "1,2,3",
                           "1", "2", "3", "4", "x", "", " ", ",", "\t", "1.5", "1e3"))
_TEXT = st.lists(st.lists(_TOKENS, max_size=8).map(" ".join), max_size=6).map("\n".join)
_INPUTS = st.one_of(st.binary(max_size=120), _TEXT.map(str.encode),
                    st.text(max_size=60).map(lambda s: s.encode("utf-8", "surrogatepass")))


@LOADERS
@given(_INPUTS)
@example(b"p 5\ng 1 1 0\ndelta 1 2 3\n")   # a spec that loads
def test_load_spec_raises_only_parameter_error(write_input, data):
    path = write_input(data)
    try:
        spec = load_spec(path)
    except ParameterError:
        return
    assert 3 <= spec.n <= spec.p - 1


_SYMBOL_TEXT = st.lists(
    st.lists(st.sampled_from(("0", "1", "4", "5", "-1", "10006", "10007", "x", "", " ", "2.0")),
             max_size=4).map(",".join), max_size=5).map("\n".join)


@LOADERS
@given(st.one_of(st.binary(max_size=120), _SYMBOL_TEXT.map(str.encode)),
       st.sampled_from(SPECS))
@example(b"1,2,3\n4,0,1\n", (5, 4))   # symbols that load
def test_load_symbols_raises_only_parameter_error(write_input, data, p_n):
    spec = get_spec(*p_n)
    path = write_input(data)
    try:
        symbols = load_symbols(path, spec)
    except ParameterError:
        return
    assert all(sym.field is spec.ext and all(0 <= c < spec.p for c in sym.coords)
               for sym in symbols)


# -- the command line ----------------------------------------------------

CLI_SPECS = SPECS + ((13, 12),)
_SEEDS = st.one_of(st.integers(-3, 3), st.integers(-(1 << 70), 1 << 70))
_INT_LIST = st.lists(st.integers(-2, 14), max_size=5).map(lambda v: ",".join(map(str, v)))
_LIST_TEXT = st.one_of(_INT_LIST, st.sampled_from(("", ",", "x", "1,,2", "1.5,2,3", " 1, 2,3")))


def spec_text(spec):
    return (f"p {spec.p}\ng {spec.g.g0} {spec.g.g1} {spec.g.g2}\n"
            f"delta {' '.join(map(str, spec.delta))}\n").encode()


@st.composite
def cli_files(draw):
    """(spec file bytes, symbol file bytes): a spec of CLI_SPECS or random
    text, and symbols of one of its codewords (all n, some survivors, some
    replaced) or random lines, drawn apart so they may not fit each other."""
    p, n = draw(st.sampled_from(CLI_SPECS))
    spec = get_spec(p, n)
    spec_bytes = spec_text(spec) if draw(st.integers(0, 3)) else draw(_INPUTS)
    kind = draw(st.sampled_from(("codeword", "survivors", "corrupted", "random")))
    if kind == "random":
        return spec_bytes, draw(st.one_of(st.binary(max_size=80), _SYMBOL_TEXT.map(str.encode)))
    coords = st.tuples(*[st.integers(0, p - 1)] * 3)
    m = Message(spec.ext.elem(*draw(coords)), spec.ext.elem(*draw(coords)))
    rows = encode(spec, m).symbol_tuples()
    if kind != "codeword":
        kept = draw(st.sets(st.integers(0, n - 1), max_size=n))
        rows = [rows[i] for i in sorted(kept)]
    if kind == "corrupted" and rows:
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] = draw(st.tuples(*[st.integers(-1, p)] * 3))
    return spec_bytes, "".join(f"{a},{b},{c}\n" for a, b, c in rows).encode()


@st.composite
def cli_argv(draw, spec, symbols, out):
    """One command line; every option argparse types as int gets an int,
    and free text is passed as --option=text or as a separate token, which
    argparse refuses when the text starts with "-" (main returns 2)."""

    def text(option):
        value = draw(_LIST_TEXT)
        return [option, value] if draw(st.booleans()) else [f"{option}={value}"]

    command = draw(st.sampled_from(("gen-code", "encode", "corrupt", "decode",
                                    "check-condition", "audit", "roundtrip")))
    if command == "gen-code":
        p = draw(st.one_of(st.sampled_from([p for p, _ in CLI_SPECS]), st.integers(-2, 40)))
        argv = ["--p", str(p),
                "--n", str(draw(st.integers(-2, 12)))]
        if draw(st.booleans()):
            argv += text("--delta")
        return [command, *argv, "--out", out]
    argv = [command, "--spec", spec]
    if command == "encode":
        if draw(st.booleans()):
            argv += ["--random", "--seed", str(draw(_SEEDS))]
        for option in ("--m1", "--m2"):
            if draw(st.integers(0, 4)):
                argv += text(option)
    elif command == "corrupt":
        argv += ["--in", symbols]
        how = draw(st.sampled_from(("keep", "deletions", "neither")))
        if how == "keep":
            argv += text("--keep")
        elif how == "deletions":
            argv += ["--deletions", str(draw(st.integers(-2, 14))), "--seed", str(draw(_SEEDS))]
    elif command == "decode":
        argv += ["--received", symbols, "--algo", draw(st.sampled_from(("cubic", "linear")))]
        if draw(st.booleans()):
            argv.append("--emit-kappa")
    elif command == "check-condition":
        if draw(st.booleans()):
            argv += ["--budget", str(draw(st.integers(-1, 2000)))]
    elif command == "audit":
        argv += ["--pairs", str(draw(st.integers(-1, 6))), "--seed", str(draw(_SEEDS))]
    else:
        argv += ["--trials", str(draw(st.integers(-1, 3))), "--seed", str(draw(_SEEDS)),
                 "--algo", draw(st.sampled_from(("cubic", "linear", "both")))]
        if draw(st.booleans()):
            argv += ["--exhaustive", "--budget", str(draw(st.integers(0, 400)))]
    if command in ("encode", "corrupt", "decode"):
        argv += ["--out", out]
    return argv


@settings(PROPERTY, max_examples=300)
@given(cli_files(), st.integers(0, 9), st.data())
def test_main_returns_an_exit_code(new_path, write_input, files, missing, data):
    # every command line returns one of the documented exit codes and
    # raises nothing, also on a missing input file (missing == 0)
    spec, symbols = (write_input(b) for b in files)
    if missing == 0:
        spec = new_path()
    argv = data.draw(cli_argv(str(spec), str(symbols), str(new_path())))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert type(code) is int and code in (0, 1, 2, 3, 4), argv
