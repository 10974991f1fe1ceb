"""Code construction, encoding, interpolation, and on-disk formats.

A code instance is described by an odd prime p, the canonical irreducible
cubic g over F_p, and an ordered tuple delta of distinct nonzero base-field
values.  The evaluation points are

    alpha_i = delta_i + delta_i^2 * gamma        (coordinates (d, d^2, 0))

and a message (m1, m2) in F_{p^3}^2 encodes to c_i = m1 + m2 * alpha_i.
Positions are 1-based everywhere in the public API.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateInterpolationError, FieldMismatchError, ParameterError
from .field import CubicField, ExtElem, MonicCubic, PrimeField, reduce_mod


def _integers(values, what: str) -> tuple:
    """values as a tuple of Python ints, each read through operator.index,
    so a float or a string is refused rather than truncated; raises
    ParameterError for a value that is not an integer."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ParameterError(f"{what} must be integers") from None


class CodeSpec:
    """Everything needed to encode and decode one code instance.

    Derived data (field contexts, evaluation-point arrays, the delta lookup
    table) is computed once here.  Treat instances as immutable; the numpy
    arrays are marked read-only.  from_quadratic_map records whether the
    evaluation points are delta + delta^2*gamma, the paper's code, which
    both decoders assume and require (they raise ParameterError on any
    other spec).  Specs built with alpha_rows are not; they serve encoding
    and certification, e.g. as counterexamples.  _lifted is the (n, 1 + w)
    locator matrix [1 | alpha[:, :w]], where w counts alpha's columns up to
    its last nonzero one (2 for the quadratic map): one matmul with it
    evaluates a message at every point, and certification builds its
    ratios from it.  _search_columns caches the cubic decoder's search
    columns, built on the spec's first cubic decode: the points sorted by
    first coordinate and their positions, O(n) entries and no tables
    (32*(n + 1) bytes for int64 columns, 131 KB at n = 4096).

    g=None takes the canonical cubic (CubicField's search, as build_code
    does); a given g is tested for irreducibility once.  Construction runs
    one primality test of p (at most 13 pow calls), the cubic search or
    that one gcd test, and O(n) C-level passes to check delta and build
    the arrays and the index.
    """

    __slots__ = ("p", "g", "delta", "n", "field", "ext", "delta_index",
                 "from_quadratic_map", "_alpha", "_lifted", "_search_columns")

    def __init__(self, p: int, g: Optional[MonicCubic], delta: Sequence[int], *,
                 alpha_rows=None):
        field = PrimeField(p)
        ext = CubicField(field, g)
        try:
            n = len(delta)  # before any entry is read: a range is refused unread
        except TypeError:
            raise ParameterError("delta must be a sequence of integers") from None
        if not 3 <= n <= p - 1:
            raise ParameterError(
                f"blocklength must satisfy 3 <= n <= p - 1, got n={n} p={p}")
        delta = _integers(delta, "delta entries")
        if min(delta) <= 0 or max(delta) >= p:
            raise ParameterError("delta entries must be nonzero residues mod p")
        delta_index = dict(zip(delta, range(1, n + 1)))
        if len(delta_index) != n:
            raise ParameterError("delta entries must be distinct")
        self.p = p
        self.g = ext.g
        self.field = field
        self.ext = ext
        self.delta = delta
        self.n = n
        self.delta_index = delta_index
        dtype = ext.dtype
        self.from_quadratic_map = alpha_rows is None
        if alpha_rows is None:
            d = np.array(delta, dtype=dtype)
            alpha = np.stack([d, d * d % p, np.zeros(n, dtype=dtype)], axis=1)
            w = 2   # d and d^2 are nonzero
        else:
            rows = [tuple(c % p for c in _integers(row, "alpha override entries"))
                    for row in alpha_rows]
            if len(rows) != n or any(len(row) != 3 for row in rows):
                raise ParameterError("alpha override must have shape (n, 3)")
            if len(set(rows)) != n:
                raise ParameterError("evaluation points must be distinct")
            alpha = np.array(rows, dtype=dtype)
            w = int(np.flatnonzero(alpha.any(axis=0))[-1]) + 1  # distinct points: w >= 1
        alpha.setflags(write=False)
        self._alpha = alpha
        lifted = np.ones((n, 1 + w), dtype=dtype)
        lifted[:, 1:] = alpha[:, :w]
        lifted.setflags(write=False)
        self._lifted = lifted
        self._search_columns = None  # the decoder's triple-search cache

    def __eq__(self, other):
        return (
            isinstance(other, CodeSpec)
            and other.p == self.p
            and other.g == self.g
            and other.delta == self.delta
            and np.array_equal(other._alpha, self._alpha)
        )

    def __hash__(self):
        return hash((self.p, self.g, self.delta))

    def __repr__(self):
        return f"CodeSpec(p={self.p}, g={tuple(self.g)}, n={self.n})"

    def alpha_coords(self, i: int):
        """Coordinate triple of the i-th evaluation point, i in 1..n, as
        Python ints for either dtype.  One range check and one tolist of
        the point's row: a decode reads three points, and a tolist costs a
        third of three int() conversions of numpy scalars."""
        if not 1 <= i <= self.n:
            raise ParameterError(f"position {i} out of range 1..{self.n}")
        return tuple(self._alpha[i - 1].tolist())

    def alpha_at(self, i: int) -> ExtElem:
        return ExtElem(self.ext, self.alpha_coords(i))

    def fast_search_ok(self) -> bool:
        """Whether p < 2^21, so that p^3 < 2^63 and a symbol packs into one
        int64.  A label of the arithmetic regime only: the decoder's triple
        search runs one kernel for every p and does not dispatch on it."""
        return self.p < (1 << 21)


def build_code(p: int, n: int, delta_override: Optional[Sequence[int]] = None) -> CodeSpec:
    """Construct the code with the canonical cubic and delta = (1, ..., n).

    Every check runs once, and nothing is cached between calls.  Time: one
    primality test of p (at most 13 pow calls), the canonical-cubic search
    with each candidate tested once and the winner not tested again (for
    p = 1 mod 3 a few Euler tests, one pow each; otherwise an O(log p) gcd
    test per candidate, and about one monic cubic in three is irreducible,
    so a few are tried in practice), and O(n) to validate delta and build
    the spec's arrays and lookup dict.  Memory: O(n); an n outside
    3..p - 1 is refused in O(1) memory, before delta = (1, ..., n) exists.
    The cubic decoder's search columns are not built here but on the
    spec's first cubic decode.
    """
    if delta_override is not None:
        delta = tuple(delta_override)
        if len(delta) != n:
            raise ParameterError(f"delta override has {len(delta)} entries, expected {n}")
    else:
        delta = range(1, n + 1)  # CodeSpec checks n before reading it
    return CodeSpec(p, None, delta)


@dataclass(frozen=True)
class Message:
    """A pair (m1, m2); the encoded word evaluates m1 + m2*x at each point."""

    m1: ExtElem
    m2: ExtElem


class Codeword:
    """Length-n vector of F_{p^3} symbols, stored as an (n, 3) array."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec: CodeSpec, coords):
        coords = np.asarray(coords, dtype=spec.ext.dtype)
        if coords.shape != (spec.n, 3):
            raise ParameterError(f"codeword must have shape ({spec.n}, 3)")
        coords.setflags(write=False)
        self.spec = spec
        self.coords = coords

    def __len__(self):
        return self.spec.n

    def __getitem__(self, i: int) -> ExtElem:
        row = self.coords[i]
        return ExtElem(self.spec.ext, (int(row[0]), int(row[1]), int(row[2])))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def symbols(self):
        return tuple(self)

    def symbol_tuples(self):
        """Symbols as coordinate tuples of Python ints, for either dtype."""
        return list(zip(*self.coords.T.tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, Codeword)
            and other.spec == self.spec
            and np.array_equal(other.coords, self.coords)
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.delta, self.coords.tobytes()
                     if self.coords.dtype == np.int64 else tuple(map(tuple, self.coords))))

    def __repr__(self):
        return f"Codeword(n={self.spec.n}, p={self.spec.p})"


def _require_field(ext: CubicField, elems, what: str) -> None:
    """Raise FieldMismatchError unless every element lies in the field ext."""
    for e in elems:
        if e.field is not ext and e.field != ext:
            raise FieldMismatchError(f"{what} lies in {e.field!r}, not in {ext!r}")


def _evaluate(spec: CodeSpec, messages: Iterable[Message]) -> np.ndarray:
    """The B words of messages as one reduced (n, 3B) product, word b in
    columns 3b..3b+2.

    Row i of [1 | alpha[:, :w]] @ [m1; rows 0..w-1 of M_{m2}] is
    m1 + alpha_i*m2, since alpha_i's coordinates past w are zero; the B
    right-hand sides stand side by side as one (1 + w, 3B) matrix, and the
    product is reduced in place by field.reduce_mod.  An entry is at most
    p + 3p^2, exact in int64 for p <= 2^30, where the reduction runs
    through libdivide: faster than % from about 800 entries on (encode at
    n = 512 reduces 1536), a few tenths of a microsecond slower below, and
    object arrays (p > 2^30) keep %.  Raises FieldMismatchError at the
    first message outside spec's field.
    """
    ext = spec.ext
    lifted = spec._lifted
    w = lifted.shape[1] - 1
    rhs = []
    for m in messages:
        _require_field(ext, (m.m1, m.m2), "message")
        rhs.append((m.m1.coords, *ext.mul_matrix(m.m2.coords)[:w]))
    if len(rhs) == 1:
        # one message's rows are already in place, and a plain array is
        # cheapest for encode, which every decode calls
        rows = np.array(rhs[0], dtype=lifted.dtype)
    else:
        flat = chain.from_iterable   # entries in (row, message, coordinate) order
        rows = np.array(list(flat(flat(zip(*rhs)))), dtype=lifted.dtype)
        rows = rows.reshape(1 + w, 3 * len(rhs))
    return reduce_mod(lifted @ rows, spec.p)


def encode_many(spec: CodeSpec, messages: Iterable[Message]) -> np.ndarray:
    """Evaluate B messages at every evaluation point in one matmul.

    messages is any iterable, read once in order.  Returns the C-contiguous
    (n, B, 3) array of canonical coordinates, dtype spec.ext.dtype: word b
    is [:, b], equal to encode(spec, the b-th message).  Raises
    FieldMismatchError at the first message outside spec's field.
    Takes O(nB) time and memory: O(1) Python work per message, then a fixed
    number of numpy calls (one matmul and the in-place reduction of its 3nB
    entries, which for int64 arrays runs through libdivide: see _evaluate).
    """
    words = _evaluate(spec, messages)
    return words.reshape(spec.n, words.shape[1] // 3, 3)


def encode(spec: CodeSpec, m: Message) -> Codeword:
    """Evaluate m1 + m2*alpha_i at every evaluation point: encode_many's
    one-message case, the same single matmul and reduction without the
    (n, 1, 3) view.  The reduction of the 3n entries gains over % from
    n of about 270 on and loses a few tenths of a microsecond below (see
    _evaluate).  Takes O(n) time and memory."""
    return Codeword(spec, _evaluate(spec, (m,)))


def interpolate(spec: CodeSpec, i: int, j: int, y_i: ExtElem, y_j: ExtElem) -> Message:
    """Recover (m1, m2) from two distinct evaluation positions.

    m2 = (y_i - y_j) / (alpha_i - alpha_j),  m1 = y_i - m2 * alpha_i.
    O(1) time and memory: one F_{p^3} inverse, two products, two
    differences, whatever n is.
    """
    if i == j:
        raise DegenerateInterpolationError(f"positions coincide: i = j = {i}")
    ext = spec.ext
    _require_field(ext, (y_i, y_j), "received symbol")
    ai = spec.alpha_coords(i)
    aj = spec.alpha_coords(j)
    yi = y_i.coords
    m2 = ext.mul(ext.sub(yi, y_j.coords), ext.inv(ext.sub(ai, aj)))
    m1 = ext.sub(yi, ext.mul(m2, ai))
    return Message(ExtElem(ext, m1), ExtElem(ext, m2))


def gamma_map(spec: CodeSpec, i: int, j: int, k: int) -> ExtElem:
    """Ratio (alpha_i - alpha_j) / (alpha_j - alpha_k) for i < j < k.

    Injective over increasing triples for specs built from the quadratic
    evaluation map; that is exactly what check_injectivity certifies.
    O(1) time and memory: one F_{p^3} inverse and one product.
    """
    if not (1 <= i < j < k <= spec.n):
        raise ParameterError(
            f"triple must be strictly increasing within 1..{spec.n}, got {(i, j, k)}")
    ai, aj, ak = spec.alpha_at(i), spec.alpha_at(j), spec.alpha_at(k)
    return (ai - aj) / (aj - ak)


def lookup_delta(spec: CodeSpec, d: int) -> Optional[int]:
    """1-based position of base-field value d in delta, or None.

    One dict lookup: O(1) expected time, no allocation.  ParameterError if
    d is not an integer (a float or a string is not truncated).
    """
    try:
        return spec.delta_index.get(operator.index(d))
    except TypeError:
        raise ParameterError(f"delta values must be integers, got {d!r}") from None


def random_message(spec: CodeSpec, rng: random.Random) -> Message:
    """A uniformly random message drawn from rng; O(1) time and memory."""
    return Message(spec.ext.rand(rng), spec.ext.rand(rng))


# -- on-disk formats -----------------------------------------------------
#
# Code-spec file: three whitespace-separated key lines.
#     p 5
#     g 1 1 0          (g0 g1 g2)
#     delta 1 2 3 4
#
# Symbol files (codewords, received words): one symbol per line as
# comma-separated canonical coordinates "c0,c1,c2".


def _text_lines(path, what: str):
    """The lines of a UTF-8 text file, read lazily; raises ParameterError at
    the first byte sequence that is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise ParameterError(f"{what} {str(path)!r} is not UTF-8 text") from None


def save_spec(spec: CodeSpec, path) -> None:
    """Write spec's three key lines; O(n) time and memory (the delta line)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p {spec.p}\n")
        fh.write(f"g {spec.g.g0} {spec.g.g1} {spec.g.g2}\n")
        fh.write("delta " + " ".join(str(d) for d in spec.delta) + "\n")


def load_spec(path) -> CodeSpec:
    """Read a spec file and build its CodeSpec.

    Raises ParameterError for a file that is not UTF-8 text, or a missing,
    repeated, unknown or malformed key.  Takes O(L) time and memory for a
    file of L bytes, plus the CodeSpec construction: one primality test of
    p (at most 13 pow calls), one irreducibility test of the g read (a gcd
    test of O(log p) squares in F_p[x]/(g)), and O(n) checks of delta.
    """
    fields = {}
    for line in _text_lines(path, "spec file"):
        parts = line.split()
        if not parts:
            continue
        key, values = parts[0], parts[1:]
        if key in fields:
            raise ParameterError(f"duplicate key {key!r} in spec file")
        try:
            fields[key] = [int(v) for v in values]
        except ValueError:
            raise ParameterError(f"non-integer value on line {line!r}") from None
    missing = {"p", "g", "delta"} - fields.keys()
    if missing:
        raise ParameterError(f"spec file is missing keys: {sorted(missing)}")
    extra = fields.keys() - {"p", "g", "delta"}
    if extra:
        raise ParameterError(f"spec file has unknown keys: {sorted(extra)}")
    if len(fields["p"]) != 1:
        raise ParameterError("key p takes exactly one value")
    if len(fields["g"]) != 3:
        raise ParameterError("key g takes exactly three values (g0 g1 g2)")
    p = fields["p"][0]
    g = MonicCubic(*fields["g"])
    return CodeSpec(p, g, fields["delta"])


def save_symbols(path, word) -> None:
    """Write a codeword or any symbol sequence, one c0,c1,c2 line each.

    O(m) time and memory for m symbols.
    """
    if isinstance(word, Codeword):
        rows = word.symbol_tuples()
    else:
        rows = [sym.coords for sym in word]
    with open(path, "w", encoding="utf-8") as fh:
        for c0, c1, c2 in rows:
            fh.write(f"{c0},{c1},{c2}\n")


def _require_canonical(p: int, coords, where: str) -> None:
    """Raise ParameterError unless every coordinate lies in [0, p)."""
    if not all(0 <= c < p for c in coords):
        raise ParameterError(f"{where}: coordinates must be canonical in [0, {p})")


def load_symbols(path, spec: CodeSpec):
    """Read a symbol sequence of any length into a tuple of ExtElem.

    Raises ParameterError for a file that is not UTF-8 text, or a line that
    is not three canonical integers.  O(L) time and memory for a file of L
    bytes (O(m) for m symbols).
    """
    out = []
    for lineno, line in enumerate(_text_lines(path, "symbol file"), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParameterError(
                f"line {lineno}: expected three comma-separated ints, got {line!r}")
        try:
            c0, c1, c2 = (int(v) for v in parts)
        except ValueError:
            raise ParameterError(f"line {lineno}: non-integer coordinate") from None
        _require_canonical(spec.p, (c0, c1, c2), f"line {lineno}")
        out.append(ExtElem(spec.ext, (c0, c1, c2)))
    return tuple(out)


def load_codeword(path, spec: CodeSpec) -> Codeword:
    """Read exactly n symbols as a Codeword of spec; raises ParameterError
    for another count.  O(L) time and memory for a file of L bytes."""
    symbols = load_symbols(path, spec)
    if len(symbols) != spec.n:
        raise ParameterError(
            f"codeword file has {len(symbols)} symbols, code needs {spec.n}")
    return Codeword(spec, np.array([s.coords for s in symbols], dtype=spec.ext.dtype))
