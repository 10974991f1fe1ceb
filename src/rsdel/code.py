"""Code construction, encoding, interpolation, and on-disk formats.

A code instance is described by an odd prime p, the canonical irreducible
cubic g over F_p, and an ordered tuple delta of distinct nonzero base-field
values.  The evaluation points are

    alpha_i = delta_i + delta_i^2 * gamma        (coordinates (d, d^2, 0))

and a message (m1, m2) in F_{p^3}^2 encodes to c_i = m1 + m2 * alpha_i.
Positions are 1-based everywhere in the public API.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateInterpolationError, FieldMismatchError, ParameterError
from .field import (
    _FLOAT64_PRODUCT_MAX_P,
    _INT64_COORD_MAX_P,
    _INT64_PRODUCT_MAX_P,
    CubicField,
    ExtElem,
    MonicCubic,
    _integers,
    reduce_mod,
    shoup_columns,
    shoup_product,
)


class CodeSpec:
    """Everything needed to encode and decode one code instance.

    Derived data (the field ext, evaluation-point arrays, the delta lookup
    table) is computed once here.  Treat instances as immutable; the numpy
    arrays are marked read-only.  from_quadratic_map records whether the
    evaluation points are delta + delta^2*gamma, the paper's code, which
    both decoders assume and require (they raise ParameterError on any
    other spec).  Specs built with alpha_rows are not; they serve encoding
    and certification, e.g. as counterexamples.  _lifted is the (n, 1 + w)
    locator matrix [1 | alpha[:, :w]], where w counts alpha's columns up to
    its last nonzero one (2 for the quadratic map): one matmul with it
    evaluates a message at every point, the cubic decoder's triple search
    tests every position with one product of its rows (1, d, d^2), both
    through _lifted_product, and certification builds its ratios from it.
    Its dtype is chosen here, once, by the four regimes of field: float64
    for p < field._FLOAT64_PRODUCT_MAX_P (about 5.5 * 10^7), where both
    products are exact in float64 and BLAS runs them; int64 below 2^30;
    uint64 below 2^63, where _columns holds alpha's first w columns with
    their 32-bit halves in field.shoup_product's (5, w, 1, n) layout (None
    in the other regimes), and that kernel runs both products; object
    above.  _lifted is the spec's one copy of its points: alpha_coords
    reads a point back from it.  Codewords and received words hold their
    coordinates in ext.symbol_dtype.  delta_index maps each delta to its
    1-based position; both decoders read their kept positions from it.  No
    decoder keeps anything on the spec.  Two specs are equal when p, g,
    delta, from_quadratic_map and _lifted agree, so a spec that both
    decoders refuse never equals one that they decode; a spec is equal to
    itself at once, with no array compare.

    g=None takes the canonical cubic (CubicField's search, as build_code
    does); a given g, any sequence of three integers, is tested for
    irreducibility once.  p, g and delta are read through operator.index,
    so a float or a string raises ParameterError.  Construction runs
    CubicField(p, g), one primality test of p (at most 13 pow calls) and
    the cubic search or that one gcd test, and O(n) C-level passes to check
    delta and build the arrays and the index.  The quadratic map's columns
    come straight from delta: below 2^30 d^2 mod p is one int64 numpy pass,
    and from 2^30 on, where d^2 can pass 64 bits, one Python-int pass
    writes it into _lifted.  In the uint64 regime _columns adds a copy of
    the two columns and three passes for their halves.
    """

    __slots__ = ("p", "g", "delta", "n", "ext", "delta_index",
                 "from_quadratic_map", "_lifted", "_columns")

    def __init__(self, p: int, g: Optional[Sequence[int]], delta: Sequence[int], *,
                 alpha_rows=None):
        ext = CubicField(p, g)
        p = ext.p
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
        self.ext = ext
        self.delta = delta
        self.n = n
        self.delta_index = delta_index
        self.from_quadratic_map = alpha_rows is None
        regime = (np.float64 if p < _FLOAT64_PRODUCT_MAX_P else
                  np.int64 if p < _INT64_PRODUCT_MAX_P else
                  np.uint64 if p < _INT64_COORD_MAX_P else object)
        if alpha_rows is None:
            lifted = np.ones((n, 3), dtype=regime)  # w = 2: d and d^2 are nonzero
            if p < _INT64_PRODUCT_MAX_P:
                d = np.array(delta, dtype=np.int64)
                lifted[:, 1] = d
                lifted[:, 2] = d * d % p
            else:
                lifted[:, 1] = delta
                lifted[:, 2] = [d * d % p for d in delta]
        else:
            rows = [tuple(c % p for c in _integers(row, "alpha override entries"))
                    for row in alpha_rows]
            if len(rows) != n or any(len(row) != 3 for row in rows):
                raise ParameterError("alpha override must have shape (n, 3)")
            if len(set(rows)) != n:
                raise ParameterError("evaluation points must be distinct")
            alpha = np.array(rows, dtype=ext.dtype)
            w = int(np.flatnonzero(alpha.any(axis=0))[-1]) + 1  # distinct points: w >= 1
            lifted = np.ones((n, 1 + w), dtype=regime)
            lifted[:, 1:] = alpha[:, :w]
        lifted.setflags(write=False)
        self._lifted = lifted
        self._columns = shoup_columns(lifted[:, 1:].T) if regime is np.uint64 else None

    def __eq__(self, other):
        return other is self or (
            isinstance(other, CodeSpec)
            and other.p == self.p
            and other.g == self.g
            and other.from_quadratic_map == self.from_quadratic_map
            and other.delta == self.delta
            and np.array_equal(other._lifted, self._lifted)
        )

    def __hash__(self):
        return hash((self.p, self.g, self.delta, self.from_quadratic_map))

    def __repr__(self):
        return f"CodeSpec(p={self.p}, g={tuple(self.g)}, n={self.n})"

    def alpha_coords(self, i: int):
        """Coordinate triple of the i-th evaluation point, i in 1..n, as
        Python ints for every dtype of _lifted.  One range check, then, for
        the quadratic map, (d, d^2 mod p, 0) from delta (a decode reads
        three points), or the point's row of an alpha_rows spec's _lifted,
        read back as Python ints and zero-padded to three."""
        if not 1 <= i <= self.n:
            raise ParameterError(f"position {i} out of range 1..{self.n}")
        if self.from_quadratic_map:
            d = self.delta[i - 1]
            return (d, d * d % self.p, 0)
        row = [int(c) for c in self._lifted[i - 1, 1:].tolist()]
        return (*row, 0, 0)[:3]

    def fast_search_ok(self) -> bool:
        """Whether p < 2^21, so that p^3 < 2^63 and a symbol packs into one
        int64.  A label of the arithmetic regime only: nothing in the
        package reads it, and the decoder's triple search takes one path
        for every p."""
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
    p and n are read through operator.index: a float or a string raises
    ParameterError.
    Both decoders use the spec as built: nothing is added on a decode.
    """
    (n,) = _integers((n,), "blocklengths")
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


def _symbol_array(ext: CubicField, values, what: str) -> np.ndarray:
    """values, coordinates three to a symbol, as an (m, 3) array of dtype
    ext.symbol_dtype.  Each value is read through operator.index and range
    checked as a Python int before numpy sees it, so a float, a wide int or
    a non-canonical residue raises ParameterError, never a truncation or an
    OverflowError.  O(m) time and memory."""
    values = _integers(values, what)
    if values and (min(values) < 0 or max(values) >= ext.p):
        raise ParameterError(f"{what} must be canonical in [0, {ext.p})")
    return np.array(values, dtype=ext.symbol_dtype).reshape(-1, 3)


def _row_tuples(coords: np.ndarray) -> list:
    """The rows of an (m, 3) coordinate array as tuples of Python ints."""
    return list(zip(*coords.T.tolist()))


class ReceivedWord:
    """Received symbols of one CubicField, in order: field, and a read-only
    (m, 3) array coords of their canonical coordinates, of dtype
    field.symbol_dtype (int64 for p < 2^63, object above).  This array is
    the one form of a received word that the decoders read.

    ReceivedWord(symbols) takes a non-empty sequence of ExtElem and checks
    it once: FieldMismatchError for a symbol that is not an ExtElem or that
    lies in another field than the first, ParameterError for a coordinate
    that is not an integer in [0, p), checked on Python ints before numpy
    sees them.  O(m) Python work.  _unchecked(field, coords) checks
    nothing: channel.apply_deletions takes a word's kept rows into it,
    load_symbols its checked lines, and a slice views a word's rows.
    Iterating a word, or indexing one symbol, yields ExtElem; a slice is a
    ReceivedWord, also of a Codeword.  Equal words have one field and
    equal coordinates.
    """

    __slots__ = ("field", "coords")

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if not symbols:
            raise ParameterError("a received word needs at least one symbol")
        field = getattr(symbols[0], "field", None)
        for number, y in enumerate(symbols, 1):
            if not isinstance(y, ExtElem):
                raise FieldMismatchError(
                    f"received symbol {number} is a {type(y).__name__}, not an ExtElem")
            if y.field is not field and y.field != field:
                raise FieldMismatchError(
                    f"received symbol {number} lies in {y.field!r}, symbol 1 in {field!r}")
        rows = [y.coords for y in symbols]
        try:
            triples = set(map(len, rows)) == {3}
        except TypeError:
            triples = False
        if not triples:
            raise ParameterError("received symbols must have three coordinates")
        coords = _symbol_array(field, list(chain.from_iterable(rows)),
                               "received symbol coordinates")
        coords.setflags(write=False)
        self.field = field
        self.coords = coords

    @classmethod
    def _unchecked(cls, field: CubicField, coords: np.ndarray) -> "ReceivedWord":
        word = object.__new__(cls)
        coords.setflags(write=False)
        word.field = field
        word.coords = coords
        return word

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ReceivedWord._unchecked(self.field, self.coords[i])
        return ExtElem(self.field, tuple(self.coords[i].tolist()))

    def __iter__(self):
        field = self.field
        return (ExtElem(field, row) for row in _row_tuples(self.coords))

    def symbol_tuples(self):
        """Symbols as coordinate tuples of Python ints, for either dtype."""
        return _row_tuples(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, ReceivedWord)
            and other.field == self.field
            and np.array_equal(other.coords, self.coords)
        )

    def __hash__(self):
        return hash((self.field, tuple(self.symbol_tuples())))

    def __repr__(self):
        return f"ReceivedWord(m={len(self)}, p={self.field.p})"


class Codeword(ReceivedWord):
    """The ReceivedWord of all n symbols of one spec: field is spec.ext and
    coords the read-only (n, 3) array of canonical coordinates, of dtype
    spec.ext.symbol_dtype (int64 for p < 2^63, object above), so that
    equal codewords of one spec hold equal arrays and hash equally.  It is
    sliced, indexed and iterated as a ReceivedWord, and goes as it is to
    channel.apply_deletions or to a decoder.  A codeword equals only a
    codeword of an equal spec, never a ReceivedWord, in either order.

    Codeword(spec, coords) takes any (n, 3) array-like of integers and
    raises ParameterError for another shape, a value that is not an
    integer, or a coordinate outside [0, p): O(n) Python work.
    _unchecked(spec, coords) checks nothing; it is for arrays already
    canonical in that dtype and shape (encode's reduced product,
    load_codeword's checked lines).
    """

    __slots__ = ("spec",)

    def __init__(self, spec: CodeSpec, coords):
        try:
            rows = np.array(coords, dtype=object)
        except (TypeError, ValueError):  # e.g. row blocks whose widths numpy cannot stack
            rows = None
        if rows is None or rows.shape != (spec.n, 3):
            raise ParameterError(f"codeword must have shape ({spec.n}, 3)")
        coords = _symbol_array(spec.ext, rows.ravel().tolist(), "codeword coordinates")
        coords.setflags(write=False)
        self.spec = spec
        self.field = spec.ext
        self.coords = coords

    @classmethod
    def _unchecked(cls, spec: CodeSpec, coords: np.ndarray) -> "Codeword":
        cw = object.__new__(cls)
        coords.setflags(write=False)
        cw.spec = spec
        cw.field = spec.ext
        cw.coords = coords
        return cw

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


def _lifted_product(spec: CodeSpec, rhs) -> np.ndarray:
    """spec._lifted @ rhs reduced mod p, canonical, in spec.ext.symbol_dtype:
    the one arithmetic kernel of the re-encode and of the triple search.

    rhs (an array-like of Python ints, or an integer array) holds canonical
    residues in 1 + w <= 4 rows.  As _lifted's rows are (1, canonical
    coordinates), an entry of the product is at most (p-1) + 3(p-1)^2 <
    3p^2 + p.  _lifted's dtype names the regime.  For
    p < field._FLOAT64_PRODUCT_MAX_P (about 5.5 * 10^7) that sum is below
    2^53, so the float64 product, which BLAS runs, is exact; below 2^30
    it is below 2^63 and the product is int64, which numpy multiplies
    without BLAS.  Both are cast to int64 (a no-op for int64) and reduced
    in place by field.reduce_mod, which picks one % or libdivide by the
    product's size (libdivide from 800 entries on: an encode from n of
    about 267 on, the search's product from n = 800).  Below 2^63
    field.shoup_product multiplies the uint64 columns of spec._columns
    exactly and returns canonical int64 (its docstring states its time and
    memory).  From 2^63 on the product is Python ints, which reduce_mod
    reduces by %.  O(N) time and memory for N entries of
    the product.
    """
    if spec._columns is not None:
        return shoup_product(spec._columns, rhs, spec.p)
    lifted = spec._lifted
    # no name holds the float64 product, so it is freed before the reduction
    product = (lifted @ np.asarray(rhs, dtype=lifted.dtype)).astype(
        spec.ext.symbol_dtype, copy=False)
    return reduce_mod(product, spec.p)


def _evaluate(spec: CodeSpec, messages: Iterable[Message]) -> np.ndarray:
    """The B words of messages as one reduced (n, 3B) product, word b in
    columns 3b..3b+2.

    Row i of [1 | alpha[:, :w]] @ [m1; rows 0..w-1 of M_{m2}] is
    m1 + alpha_i*m2, since alpha_i's coordinates past w are zero; the B
    right-hand sides stand side by side as one (1 + w, 3B) matrix, and
    _lifted_product multiplies and reduces it, exactly in each of the four
    regimes of spec._lifted's dtype.  At p = 10007 (numpy 2.4, OpenBLAS,
    one thread, x86-64) n = 512 takes about 1.0 us for the product (3.4 us
    in int64), 0.6 us for the cast and 2.1 us for field.reduce_mod's
    reduction; n = 4096 takes 3.7 us (21.7 us in int64), 3.0 us and
    7.2 us.  For
    2^30 <= p < 2^63 the uint64 kernel (field.shoup_product) takes about
    12 us at n = 64, 20 us at n = 512 and 60 us at n = 4096, against 23,
    168 and 1320 us for the same product in Python ints; from 2^63 on the
    product is Python ints.  Raises FieldMismatchError at the first message
    outside spec's field.
    """
    ext = spec.ext
    lifted = spec._lifted
    w = lifted.shape[1] - 1
    rhs = []
    for m in messages:
        _require_field(ext, (m.m1, m.m2), "message")
        rhs.append((m.m1.coords, *ext.mul_matrix(m.m2.coords)[:w]))
    flat = chain.from_iterable   # entries in (row, message, coordinate) order
    rows = np.array(list(flat(flat(zip(*rhs)))), dtype=lifted.dtype)
    return _lifted_product(spec, rows.reshape(1 + w, 3 * len(rhs)))


def encode_many(spec: CodeSpec, messages: Iterable[Message]) -> np.ndarray:
    """Evaluate B messages at every evaluation point in one matmul.

    messages is any iterable, read once in order.  Returns the C-contiguous
    (n, B, 3) array of canonical coordinates, dtype spec.ext.symbol_dtype
    (int64 for p < 2^63): word b is [:, b], equal to encode(spec, the b-th
    message).  Raises FieldMismatchError at the first message outside
    spec's field.  Takes O(nB) time and memory: O(1) Python work per
    message, then a fixed number of numpy calls (one matmul, in float64
    through BLAS for p < about 5.5 * 10^7, its cast to int64 and the
    in-place reduction of its 3nB entries by field.reduce_mod; for
    2^30 <= p < 2^63 the uint64 Shoup kernel's fixed number of passes over
    its 2 * 3nB column products: see _evaluate).
    """
    words = _evaluate(spec, messages)
    return words.reshape(spec.n, words.shape[1] // 3, 3)


def encode(spec: CodeSpec, m: Message) -> Codeword:
    """Evaluate m1 + m2*alpha_i at every evaluation point: encode_many's
    one-message case, the same single matmul, cast and reduction without
    the (n, 1, 3) view.  Below p of about 5.5 * 10^7 the matmul is exact in
    float64 and BLAS runs it: at p = 10007 an encode takes about 5.5 us at
    n = 512 and 15 us at n = 4096, against 7.0 and 32 us with an int64
    product (see _evaluate).  field.reduce_mod reduces the 3n entries,
    through libdivide from n of about 267 on and by one % below.  For
    2^30 <= p < 2^63 the product is the uint64 Shoup kernel: at
    p = 2^61 - 1 about 12 us at n = 64 and 20 us at n = 512.  Takes O(n)
    time and memory.  The one message's rows [m1; rows 0..w-1 of M_{m2}]
    go straight to _lifted_product as tuples, without _evaluate's batch
    layout.  The reduced product is canonical, so the codeword takes it
    unchecked."""
    ext = spec.ext
    _require_field(ext, (m.m1, m.m2), "message")
    rhs = (m.m1.coords, *ext.mul_matrix(m.m2.coords)[:spec._lifted.shape[1] - 1])
    return Codeword._unchecked(spec, _lifted_product(spec, rhs))


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
    ai, aj, ak = (ExtElem(spec.ext, spec.alpha_coords(t)) for t in (i, j, k))
    return (ai - aj) / (aj - ak)


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
    """Write a codeword, a received word or any ExtElem sequence, one
    c0,c1,c2 line each.

    O(m) time and memory for m symbols.
    """
    if isinstance(word, ReceivedWord):
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


def load_symbols(path, spec: CodeSpec) -> ReceivedWord:
    """Read a symbol sequence of any length into a ReceivedWord of spec's
    field, parsed straight into its coordinate array: no ExtElem is built.

    Raises ParameterError for a file that is not UTF-8 text, or a line that
    is not three canonical integers; each line is checked as it is read, so
    the word takes its array unchecked.  O(L) time and memory for a file of
    L bytes (O(m) for m symbols).
    """
    values = []
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
        values += (c0, c1, c2)
    ext = spec.ext
    return ReceivedWord._unchecked(ext, np.array(values, dtype=ext.symbol_dtype).reshape(-1, 3))


def load_codeword(path, spec: CodeSpec) -> Codeword:
    """Read exactly n symbols as a Codeword of spec; raises ParameterError
    for another count.  O(L) time and memory for a file of L bytes."""
    word = load_symbols(path, spec)
    if len(word) != spec.n:
        raise ParameterError(
            f"codeword file has {len(word)} symbols, code needs {spec.n}")
    return Codeword._unchecked(spec, word.coords)
