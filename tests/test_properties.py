"""Property tests: every input is decoded exactly or rejected with a typed
error.

Hypothesis draws received words of 3..n symbols (channel outputs, channel
outputs with some symbols replaced, and uniformly random symbols), random
bytes for the two file loaders, and command lines for every subcommand of
the CLI but bench, on spec files, symbol files and option values that are
valid, corrupted or random.  The runs are derandomized, keep no example
database and have fixed example counts, so tier-1 stays deterministic; the
module's budget is a few seconds (about 3 s on a 2-vCPU x86-64 VM).
"""

import contextlib
import io
import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rsdel.channel import DeletionPattern, apply_deletions
from rsdel.cli import main
from rsdel.code import Message, encode, load_spec, load_symbols
from rsdel.decoder import PATH_CONSTANT, decode_cubic, decode_linear, decode_received
from rsdel.errors import (
    InconsistentReceivedWordError,
    ParameterError,
    UnrecognizedReceivedWordError,
)

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
        return spec, tuple(ext.from_coords(c) for c in draw(
            st.lists(coords, min_size=size, max_size=size))), None, None
    m1, m2 = draw(coords), draw(coords)
    if draw(st.integers(0, 7)) == 0:
        m2 = (0, 0, 0)   # a constant codeword
    m = Message(ext.from_coords(m1), ext.from_coords(m2))
    kept = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=size, max_size=size))))
    pattern = DeletionPattern(kept)
    word = list(apply_deletions(encode(spec, m), pattern))
    if kind == "corrupted":
        for at in draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size)):
            word[at] = ext.from_coords(draw(coords))
        return spec, tuple(word), None, None
    return spec, tuple(word), m, pattern


def outcome(spec, word, decode):
    try:
        return decode_received(spec, word, decode)
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
        assert out.kappa.kept == () and out.message.m2.is_zero()
        assert all(sym == out.codeword[0] for sym in word)
    else:
        assert apply_deletions(out.codeword, out.kappa) == word
    if m is not None:
        assert out.message == m
        assert out.kappa == (DeletionPattern(()) if m.m2.is_zero() else pattern)


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
    m = Message(spec.ext.from_coords(draw(coords)), spec.ext.from_coords(draw(coords)))
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
    and free text is passed as --option=text (text may start with "-"), so
    argparse itself accepts the line and only the command can fail."""
    command = draw(st.sampled_from(("gen-code", "encode", "corrupt", "decode",
                                    "check-condition", "audit", "roundtrip")))
    if command == "gen-code":
        p = draw(st.one_of(st.sampled_from([p for p, _ in CLI_SPECS]), st.integers(-2, 40)))
        argv = ["--p", str(p),
                "--n", str(draw(st.integers(-2, 12)))]
        if draw(st.booleans()):
            argv.append("--delta=" + draw(_LIST_TEXT))
        return [command, *argv, "--out", out]
    argv = [command, "--spec", spec]
    if command == "encode":
        if draw(st.booleans()):
            argv += ["--random", "--seed", str(draw(_SEEDS))]
        for option in ("--m1", "--m2"):
            if draw(st.integers(0, 4)):
                argv.append(f"{option}={draw(_LIST_TEXT)}")
    elif command == "corrupt":
        argv += ["--in", symbols]
        how = draw(st.sampled_from(("keep", "deletions", "neither")))
        if how == "keep":
            argv.append("--keep=" + draw(_LIST_TEXT))
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
