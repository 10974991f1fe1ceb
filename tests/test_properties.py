"""Property tests: every input is decoded exactly or rejected with a typed
error.

Hypothesis draws received words of 3..n symbols (channel outputs, channel
outputs with some symbols replaced, and uniformly random symbols) and random
bytes for the two file loaders.  The runs are derandomized, keep no example
database and have fixed example counts, so tier-1 stays deterministic; the
module's budget is a few seconds (about 2 s on a 2-vCPU x86-64 VM).
"""

import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rsdel.channel import DeletionPattern, apply_deletions
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
def write_input():
    """Writes each input to a new file, since rewriting one file in place
    costs tens of milliseconds a time on some filesystems."""
    with tempfile.TemporaryDirectory() as root:
        names = itertools.count()

        def write(data):
            path = Path(root) / f"input-{next(names)}"
            path.write_bytes(data)
            return path
        yield write


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
