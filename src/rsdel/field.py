"""Exact arithmetic in F_p and in the cubic extension F_{p^3}.

One object holds a field: CubicField(p, g) checks that p is an odd prime and
that g is irreducible, once.  F_p has no object of its own; its elements
are canonical Python ints in [0, p), reduced by %, and a numpy array of
them by reduce_mod, which picks % or libdivide by the array's size.
Elements of F_{p^3} live in the power basis {1, gamma, gamma^2} where gamma
is a root of a monic irreducible cubic g(x) = x^3 + g2*x^2 + g1*x + g0 over
F_p; products reduce through gamma^3 = -(g2*gamma^2 + g1*gamma + g0).

Python ints are arbitrary precision, so moduli up to 2^61 - 1 (and beyond)
need no widening tricks.  The multiply-by-x matrix and the inverse are also
written to run elementwise on numpy coordinate columns, int64 for p < 2^30
and object dtype above (CubicField.dtype), which CubicField.inv_many uses
to invert a batch.

code.CodeSpec's evaluation matrix, whose products are the re-encode and the
cubic search, takes one of four regimes by p:
  - p < _FLOAT64_PRODUCT_MAX_P (about 5.5 * 10^7): float64, whose products
    with coordinates are exact there and run through BLAS, cast back to
    int64 before any reduction;
  - p < _INT64_PRODUCT_MAX_P (2^30): int64, a numpy matmul;
  - p < _INT64_COORD_MAX_P (2^63): uint64, multiplied by shoup_product,
    exact for every odd p there;
  - above: object dtype, Python ints.
Codewords hold int64 coordinates in the first three regimes.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import FieldMismatchError, ParameterError

# The int64 bounds on p, stated once: a column is exact in int64 while p is
# below the bound for what it holds, and holds Python ints (object dtype) above.
_INT64_PRODUCT_MAX_P = 1 << 30  # three products of coordinates plus one: 3p^2 + p < 2^63
_INT64_COORD_MAX_P = 1 << 63    # one coordinate: int64 codewords and shoup_product's operands;
                                # a wider int enters a key by its low 63 bits
# The same sum of three products plus one, in float64: the least p with
# 3p^2 + p >= 2^53.  Below it every entry of a product whose terms are
# canonical coordinates (at most (p-1) + 3(p-1)^2), every partial sum and
# every product is an integer below 2^53, so each is exactly representable
# and no rounding happens, in any summation order and with FMA alike: the
# float64 product, which BLAS runs, equals the integer one.
_FLOAT64_PRODUCT_MAX_P = 54_794_158


def _integers(values, what: str) -> tuple:
    """values as a tuple of Python ints, each read through operator.index,
    so a float or a string is refused rather than truncated; raises
    ParameterError for a value that is not an integer, or for values that
    cannot be iterated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ParameterError(f"{what} must be integers") from None


# Deterministic Miller-Rabin: (bound, bases) pairs, each base set proven exact
# for every n below its bound, and the smallest proven set first.  psi_k
# (OEIS A014233) is the least odd composite that is a strong probable prime to
# each of the first k prime bases, so those k bases are exact below psi_k:
# psi_1..psi_8 from G. Jaeschke, "On strong pseudoprimes to several bases"
# (Math. Comp. 1993), psi_12 and psi_13 from J. Sorenson and J. Webster,
# "Strong pseudoprimes to twelve prime bases" (Math. Comp. 2017).  Between
# psi_7 (= psi_8) and 2^64, J. Sinclair's seven bases (2011, checked against
# J. Feitsma's list of every base-2 strong pseudoprime below 2^64) take the
# place of the 9 to 12 first primes; every base is below psi_7, so none is
# 0 mod n.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BASE_SETS = (
    (2047, _PRIMES[:1]), (1373653, _PRIMES[:2]), (25326001, _PRIMES[:3]),
    (3215031751, _PRIMES[:4]), (2152302898747, _PRIMES[:5]),
    (3474749660383, _PRIMES[:6]), (341550071728321, _PRIMES[:7]),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (318665857834031151167461, _PRIMES[:12]),
    (3317044064679887385961981, _PRIMES[:13]),
)


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly, for every n < psi_13 ~ 3.3 * 10^24.

    Miller-Rabin on the smallest base set proven exact below n
    (_MR_BASE_SETS): one pow per base, so at most 13 pow calls of an
    O(log n)-bit exponent.  p = 10007 takes 2 bases, 2^31 - 1 takes 4, and
    every p from 3.4 * 10^14 up to 2^64 takes 7.  No base set is proven
    from psi_13 on, so there an odd n raises ParameterError; so does an n
    that is not an integer (a float or a string), read through
    operator.index.
    """
    (n,) = _integers((n,), "primality candidates")
    if n < 3 or n % 2 == 0:
        return n == 2
    for bound, bases in _MR_BASE_SETS:
        if n < bound:
            break
    else:
        raise ParameterError(
            f"no proven primality test for n >= {_MR_BASE_SETS[-1][0]}, got {n}")
    d = n - 1
    r = (d & -d).bit_length() - 1   # n - 1 = d * 2^r with d odd
    d >>= r
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class MonicCubic(NamedTuple):
    """Coefficients of g(x) = x^3 + g2*x^2 + g1*x + g0, low degree first."""

    g0: int
    g1: int
    g2: int

    def evaluate(self, x: int, p: int) -> int:
        return (((x + self.g2) * x + self.g1) * x + self.g0) % p


def _reduction_consts(p: int, g: MonicCubic):
    # coordinates of gamma^3 and gamma^4 in the power basis
    h0, h1, h2 = -g.g0 % p, -g.g1 % p, -g.g2 % p
    k0 = h2 * h0 % p
    k1 = (h0 + h2 * h1) % p
    k2 = (h1 + h2 * h2) % p
    return (h0, h1, h2, k0, k1, k2)


def _pow_x_mod_cubic(p: int, g: MonicCubic, e: int):
    """x^e in F_p[x]/(g) by a left-to-right ladder.

    After the leading bit of e, each bit squares the result and, if set,
    multiplies it by x: a shift up one power with gamma^3 folded back in,
    three products instead of a full product.  The square is written out
    too, six coordinate products instead of nine.  Works in the quotient
    ring whether or not g is irreducible.
    """
    if not e:
        return (1, 0, 0)
    h0, h1, h2, k0, k1, k2 = _reduction_consts(p, g)
    c0, c1, c2 = 0, 1, 0
    for bit in bin(e)[3:]:
        # the square's gamma^3 and gamma^4 terms fold back in through h and k
        z3 = 2 * c1 * c2 % p
        z4 = c2 * c2 % p
        t = 2 * c0
        c0, c1, c2 = ((c0 * c0 + z3 * h0 + z4 * k0) % p,
                      (t * c1 + z3 * h1 + z4 * k1) % p,
                      (t * c2 + c1 * c1 + z3 * h2 + z4 * k2) % p)
        if bit == "1":
            c0, c1, c2 = c2 * h0 % p, (c0 + c2 * h1) % p, (c1 + c2 * h2) % p
    return (c0, c1, c2)


def _no_root_by_gcd(p: int, g: MonicCubic) -> bool:
    """Whether gcd(x^p - x, g) = 1, i.e. whether g has no root in F_p.

    gcd(x^p - x, g) collects exactly the linear factors of g.  Euclid's
    steps are written out: x^p - x mod g has degree <= 2; a quadratic
    remainder c2*x^2 + c1*x + c0 is made monic, x^2 + a1*x + a0, and divides
    g with quotient x + (g2 - a1), leaving a linear remainder; and a
    nonzero linear remainder c1*x + c0 shares a factor with the last
    divisor f exactly when f(-c0/c1) = 0.  At most two F_p inverses.
    """
    c0, c1, c2 = _pow_x_mod_cubic(p, g, p)
    c1 = (c1 - 1) % p
    f = (g.g2, g.g1, g.g0)   # the monic divisor's coefficients below its lead
    if c2:
        inv = pow(c2, -1, p)
        a1, a0 = c1 * inv % p, c0 * inv % p
        q = g.g2 - a1
        c1, c0 = (g.g1 - a0 - q * a1) % p, (g.g0 - q * a0) % p
        f = (a1, a0)
    if not c1:
        return c0 != 0   # a constant remainder: the gcd is 1 unless it is 0
    x = -c0 * pow(c1, -1, p) % p
    value = 1
    for coef in f:
        value = (value * x + coef) % p
    return value != 0


def _monic_cubic(p: int, g) -> MonicCubic:
    """g, any sequence of three integers (g0, g1, g2), as a MonicCubic of
    residues mod p; raises ParameterError for anything else."""
    coeffs = _integers(g, "cubic coefficients")
    if len(coeffs) != 3:
        raise ParameterError(f"g must have three coefficients (g0, g1, g2), got {len(coeffs)}")
    return MonicCubic(*(c % p for c in coeffs))


def is_irreducible_cubic(p: int, g: Sequence[int]) -> bool:
    """True iff g has no root in F_p.

    For a cubic that is exactly irreducibility.  Every p takes the same test,
    gcd(x^p - x mod g, g) = 1 with x^p computed by _pow_x_mod_cubic's
    ladder: O(log p) squares in F_p[x]/(g).  There is no O(p) root scan,
    not even for small p.  p and g are read as CubicField reads them, so g
    is any sequence of three integers and anything else raises
    ParameterError.
    """
    (p,) = _integers((p,), "moduli")
    return _no_root_by_gcd(p, _monic_cubic(p, g))


def _canonical_cubic(p: int) -> MonicCubic:
    """The first monic cubic with no root in F_p, ordered by (g2, g1, g0),
    for an odd prime p.

    Each candidate is tested once and the winner is not tested again.  g0 = 0
    is skipped, since x divides that cubic.  The pure-cube family x^3 + g0
    comes first: it has a root iff -g0 is a cube.  When p = 2 (mod 3), or
    p = 3, every residue is a cube and the family is skipped untested; when
    p = 1 (mod 3), the cubes are the c with c^((p-1)/3) = 1, and one Euler
    test (one pow) per g0 finds the least non-cube.  Since -1 = (-1)^3 is a
    cube, -g0 is one iff g0 is, and as products of cubes are cubes, the
    least non-cube is prime: only 2, 3 and the g0 = +-1 (mod 6) from 5 on
    are tested.  Every other family takes one gcd test (_no_root_by_gcd)
    per candidate; about one monic cubic in three is irreducible, so a few
    are tried in practice.
    """
    if p % 3 == 1:
        e = (p - 1) // 3
        for g0 in range(2, p):
            if (g0 < 4 or g0 % 6 in (1, 5)) and pow(g0, e, p) != 1:
                return MonicCubic(g0, 0, 0)
    for g2 in range(p):
        for g1 in range(0 if g2 else 1, p):   # (0, 0) is the pure-cube family
            for g0 in range(1, p):
                cand = MonicCubic(g0, g1, g2)
                if _no_root_by_gcd(p, cand):
                    return cand
    raise AssertionError("no irreducible cubic found; p is not prime")


class CubicField:
    """F_{p^3} = F_p[x]/(g) in the power basis {1, gamma, gamma^2}.

    Coordinate-level methods (add, sub, mul, inv, ...) take and return plain
    3-tuples of canonical ints; ExtElem wraps a tuple together with its field
    for operator syntax.  Hot loops use the tuple methods directly, and
    inv_many takes and returns coordinate columns of dtype self.dtype.

    CubicField(p, g) raises ParameterError unless p is an odd prime, by one
    is_prime(p): at most 13 pow calls, and p >= psi_13 ~ 3.3 * 10^24, where
    no primality test is proven, is refused too.  g=None takes the
    canonical cubic, found by _canonical_cubic's search and kept without a
    second test; a given g is any sequence of three integers (g0, g1, g2),
    a MonicCubic or a plain tuple, costs one gcd test, O(log p) squares in
    F_p[x]/(g), and raises ParameterError when it has a root.  p and g's
    coefficients are read through operator.index, so a float, a string or
    a g of another length raises ParameterError too.

    dtype is that of inv_many's coordinate columns (int64 below 2^30);
    symbol_dtype that of every array of canonical symbol coordinates,
    codewords, encode_many's words and received words: int64 below 2^63,
    object above.
    """

    __slots__ = ("g", "p", "dtype", "symbol_dtype", "_consts")

    def __init__(self, p: int, g: Optional[Sequence[int]] = None):
        (p,) = _integers((p,), "moduli")
        if p < 3 or not is_prime(p):
            raise ParameterError(f"modulus must be an odd prime, got {p}")
        if g is None:
            g = _canonical_cubic(p)
        else:
            g = _monic_cubic(p, g)
            if not _no_root_by_gcd(p, g):
                raise ParameterError(
                    f"x^3 + {g.g2}x^2 + {g.g1}x + {g.g0} has a root mod {p}; "
                    "the quotient is not a field"
                )
        self.p = p
        self.g = g
        self.dtype = np.int64 if p < _INT64_PRODUCT_MAX_P else object  # of coordinate arrays
        self.symbol_dtype = np.int64 if p < _INT64_COORD_MAX_P else object
        self._consts = _reduction_consts(p, g)

    def __eq__(self, other):
        return (
            isinstance(other, CubicField)
            and other.p == self.p
            and other.g == self.g
        )

    def __hash__(self):
        return hash(("CubicField", self.p, self.g))

    def __repr__(self):
        return f"CubicField(p={self.p}, g={tuple(self.g)})"

    # -- element constructors -------------------------------------------

    def elem(self, c0: int = 0, c1: int = 0, c2: int = 0) -> "ExtElem":
        p = self.p
        return ExtElem(self, (c0 % p, c1 % p, c2 % p))

    @property
    def zero(self) -> "ExtElem":
        return ExtElem(self, (0, 0, 0))

    @property
    def one(self) -> "ExtElem":
        return ExtElem(self, (1, 0, 0))

    @property
    def gamma(self) -> "ExtElem":
        return ExtElem(self, (0, 1, 0))

    def rand(self, rng) -> "ExtElem":
        p = self.p
        return ExtElem(self, (rng.randrange(p), rng.randrange(p), rng.randrange(p)))

    # -- coordinate-level arithmetic -------------------------------------

    def add(self, x, y):
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2]) % p)

    def sub(self, x, y):
        p = self.p
        return ((x[0] - y[0]) % p, (x[1] - y[1]) % p, (x[2] - y[2]) % p)

    def neg(self, x):
        p = self.p
        return (-x[0] % p, -x[1] % p, -x[2] % p)

    def mul(self, x, y):
        """Schoolbook product of two coordinate triples; the gamma^3 and
        gamma^4 terms fold back in through the reduction constants."""
        p = self.p
        x0, x1, x2 = x
        y0, y1, y2 = y
        h0, h1, h2, k0, k1, k2 = self._consts
        z3 = (x1 * y2 + x2 * y1) % p
        z4 = x2 * y2 % p
        return (
            (x0 * y0 + z3 * h0 + z4 * k0) % p,
            (x0 * y1 + x1 * y0 + z3 * h1 + z4 * k1) % p,
            (x0 * y2 + x1 * y1 + x2 * y0 + z3 * h2 + z4 * k2) % p,
        )

    def mul_matrix(self, x):
        """Rows (x, x*gamma, x*gamma^2) of the multiply-by-x matrix M_x.

        A coordinate row vector v times M_x is v*x.  Each row is the one
        above times gamma: shift up a power, fold gamma^3 back in.  x is
        taken as canonical coordinates: Python ints, or numpy columns of one
        length, which every entry then is too.
        """
        p = self.p
        h0, h1, h2, _, _, _ = self._consts
        x0, x1, x2 = x
        y0 = x2 * h0 % p
        y1 = (x0 + x2 * h1) % p
        y2 = (x1 + x2 * h2) % p
        return (x, (y0, y1, y2), (y2 * h0 % p, (y0 + y2 * h1) % p, (y1 + y2 * h2) % p))

    def _adjugate(self, x):
        """First row of adj(M_x) and det(M_x), the norm of x, both mod p.

        One formula for Python ints and for int64 or object columns: the
        adjugate entries are reduced before the determinant, so no int64
        intermediate reaches 2^62 for p <= 2^30.
        """
        p = self.p
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = self.mul_matrix(x)
        a0 = (m11 * m22 - m12 * m21) % p
        a1 = (m02 * m21 - m01 * m22) % p
        a2 = (m01 * m12 - m02 * m11) % p
        return (a0, a1, a2), (m00 * a0 + m10 * a1 + m20 * a2) % p

    def inv(self, x):
        """Inverse by Cramer's rule on the multiply-by-x matrix M_x.

        x^-1 is the row vector v with v * M_x = (1, 0, 0), i.e. the first row
        of adj(M_x) / det(M_x): O(1) F_p operations plus one F_p inverse.
        det(M_x) is the norm of x, nonzero exactly when x is.
        """
        p = self.p
        (a0, a1, a2), det = self._adjugate(x)
        if det == 0:
            raise ZeroDivisionError("inverse of zero in F_{p^3}")
        d = pow(det, -1, p)
        return (a0 * d % p, a1 * d % p, a2 * d % p)

    def inv_many(self, cols):
        """Inverses of N elements given as (3, N) canonical coordinate columns.

        The same Cramer formula as inv, run on whole columns, with all N
        norms inverted together by _batch_inverse.  Returns a (3, N) array
        of dtype self.dtype, whatever the input's; raises
        ZeroDivisionError when any element is zero.  Takes O(N) F_p
        operations in O(log N) numpy calls plus one F_p inverse, and O(N)
        memory.
        """
        p = self.p
        cols = np.asarray(cols, dtype=self.dtype)
        adj, det = self._adjugate(cols)
        return np.array(adj, dtype=cols.dtype) * _batch_inverse(det, p) % p


# entries of an int64 array from which reduce_mod's three libdivide passes
# beat one % (see its docstring)
_REDUCE_MOD_MIN_SIZE = 800


def reduce_mod(a, p, scratch=None):
    """Reduce the array a mod p in place and return it.

    The one reduction rule for arrays, so that no caller picks a kernel by
    size.  An int64 array of _REDUCE_MOD_MIN_SIZE entries or more is
    reduced as a - p*(a // p): numpy runs floor division by a scalar
    through libdivide (Granlund and Montgomery, PLDI 1994, a multiply and
    shifts in place of a hardware divide), so the three passes beat one %
    from about 800 entries on (numpy 2.4 on x86-64, libdivide against %:
    2.3 against 2.9 us at 1536 entries, 1.4 against 0.8 us at 288).
    scratch, an int64 array of a's shape, holds the quotients; without it
    one is allocated.  A smaller int64 array, and any other dtype (object
    arrays of Python ints), takes one %, and scratch is not used.  The
    result is canonical in [0, p) for negative entries too.  O(N) time for
    N entries.
    """
    if a.dtype != np.int64 or a.size < _REDUCE_MOD_MIN_SIZE:
        a %= p
        return a
    if scratch is None:
        scratch = np.empty_like(a)
    np.floor_divide(a, p, out=scratch)
    scratch *= p
    a -= scratch
    return a


def shoup_columns(cols):
    """The columns x of the (w, n) array cols, canonical residues mod an odd
    p < 2^63, laid out for shoup_product: the read-only (5, w, 1, n) uint64
    stack (x_lo, x_hi, x_lo, x_hi, x) of x's 32-bit halves and x itself,
    the left factors of the kernel's one multiply, each inner loop over one
    column's n entries.  One copy of cols into the stack (for an object
    array, one Python-int conversion per entry), two passes for the halves
    and one copy of them."""
    w, n = cols.shape
    stack = np.empty((5, w, 1, n), dtype=np.uint64)
    x = stack[4, :, 0]
    x[...] = cols
    np.bitwise_and(x, 0xFFFFFFFF, out=stack[0, :, 0])
    np.right_shift(x, 32, out=stack[1, :, 0])
    stack[2:4] = stack[:2]
    stack.setflags(write=False)
    return stack


def shoup_product(columns, rhs, p):
    """[1 | x.T] @ rhs mod p, canonical int64, exactly, for the columns x of
    shoup_columns and every odd p < 2^63.

    rhs holds 1 + w rows of K canonical residues (nested sequences of Python
    ints, or an integer array), and the result is C-contiguous (n, K); a 1-D
    rhs of 1 + w residues gives an (n,) result.  Each column-times-scalar
    product is Shoup's (as analysed by D. Harvey, "Faster arithmetic for
    number-theoretic transforms", J. Symbolic Comput. 2014) with beta = 2^63:
    the scalar v has the precomputed quotient v' = floor(v * 2^63 / p) < 2^63,
    one Python division, and for x < 2^63, q = floor(x * v' / 2^63) leaves
    r = x*v - q*p in [0, 2p), which uint64 holds, so both products may wrap
    mod 2^64.  q is built exactly from the 32-bit halves of x and v': with
    x_hi, v'_hi < 2^31 the middle word x_lo*v'_lo/2^32 + x_hi*v'_lo +
    x_lo*v'_hi stays below 2^64 - 2^33, and q = 2*x_hi*v'_hi + (that word
    >> 31).  The four half products and x*v are one broadcast multiply of
    the stack by the scalars' five factors.  r is then folded to [0, p) by
    np.minimum(r, r - p), since r - p wraps above r exactly when r < p, and
    so is each sum of two canonical terms, which stays below 2p < 2^64: no
    bound depends on p beyond p < 2^63, and no sum is lazy.

    Time: O(wK) Python big-int divisions, one broadcast multiply over
    5wKn entries, 9 elementwise uint64 passes over wKn and 3 over Kn per
    term of the sum, each inner loop over n.  An encode at p = 2^61 - 1
    (w = 2, K = 3) takes about 12 us at n = 64, 20 us at n = 512 and 60 us
    at n = 4096, and the search's product (K = 1) 10, 12 and 28 us (numpy
    2.4, x86-64).  Memory: the (5, w, K, n) uint64 products and the (n, K)
    result, 8(5w + 1)K bytes per row.
    """
    _, w, _, n = columns.shape
    if isinstance(rhs, np.ndarray):
        rhs = rhs.tolist()
    head, *rows = rhs
    vector = isinstance(head, int)
    if vector:
        head, rows = (head,), [(v,) for v in rows]
    k = len(head)
    scalars = [v for row in rows for v in row]
    quotients = [(v << 63) // p for v in scalars]
    lo = [t & 0xFFFFFFFF for t in quotients]
    factors = np.array([*lo, *lo, *[t >> 32 for t in quotients],
                        *[t >> 32 << 1 for t in quotients], *scalars, *head], dtype=np.uint64)
    products = columns * factors[:5 * w * k].reshape(5, w, k, 1)
    mid, _, _, q, r = products   # x_lo*v'_lo, x_hi*v'_lo, x_lo*v'_hi, x_hi*2v'_hi, x*v
    mid >>= 32
    mid += products[1]
    mid += products[2]   # the middle word, below 2^64 - 2^33
    mid >>= 31
    q += mid
    q *= p
    r -= q               # x*v - q*p in [0, 2p)
    np.subtract(r, p, out=q)
    np.minimum(r, q, out=r)
    acc, scratch = r[0], q[0]
    for term in r[1:]:
        acc += term
        np.subtract(acc, p, out=scratch)
        np.minimum(acc, scratch, out=acc)
    acc += factors[5 * w * k:, None]
    np.subtract(acc, p, out=scratch)
    np.minimum(acc, scratch, out=acc)
    acc = acc.view(np.int64)
    return acc[0] if vector else np.ascontiguousarray(acc.T)


def _batch_inverse(values, p):
    """Inverses mod p of a 1-D int64 or object array, with one F_p inverse.

    Montgomery's trick (Math. Comp. 1987) laid out as a product tree so that
    numpy does the multiplications: multiply the values up in pairs, invert
    the root, then going down each node's inverse is its parent's inverse
    times its sibling.  3(N - 1) products in O(log N) numpy calls, O(N)
    memory.  A zero value makes the root zero and raises ZeroDivisionError.
    """
    size = len(values)
    if not size:
        return values
    levels = []
    while len(values) > 1:
        if len(values) % 2:
            values = np.append(values, 1)
        levels.append(values)
        values = values[0::2] * values[1::2] % p
    root = int(values[0])
    if root == 0:
        raise ZeroDivisionError("inverse of zero in F_{p^3}")
    inverse = np.full(1, pow(root, -1, p), dtype=values.dtype)
    for level in reversed(levels):
        parent = inverse[:len(level) // 2]
        inverse = np.empty_like(level)
        inverse[0::2] = parent * level[1::2] % p
        inverse[1::2] = parent * level[0::2] % p
    return inverse[:size]


class ExtElem:
    """An immutable element of a CubicField.

    Supports +, -, *, / and == against other elements of the same field, and
    against plain ints (embedded into the base subfield): x == 0 tests for
    zero and 1 / x inverts, raising ZeroDivisionError for zero.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field: CubicField, coords):
        self.field = field
        self.coords = coords

    def _coerce(self, other):
        if isinstance(other, ExtElem):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"elements from different contexts: {self.field!r} vs {other.field!r}"
                )
            return other
        if isinstance(other, int):
            return self.field.elem(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.field, self.field.add(self.coords, o.coords))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.field, self.field.sub(self.coords, o.coords))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.field, self.field.sub(o.coords, self.coords))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.field, self.field.mul(self.coords, o.coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.field, self.field.mul(self.coords, self.field.inv(o.coords)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.field, self.field.mul(o.coords, self.field.inv(self.coords)))

    def __neg__(self):
        return ExtElem(self.field, self.field.neg(self.coords))

    def __eq__(self, other):
        if isinstance(other, ExtElem):
            return other.field == self.field and other.coords == self.coords
        if isinstance(other, int):
            return self.coords == (other, 0, 0)
        return NotImplemented

    def __hash__(self):
        # equal to the int k exactly when the coords are (k, 0, 0)
        c0, c1, c2 = self.coords
        if c1 == c2 == 0:
            return hash(c0)
        return hash((self.field.p, self.field.g, self.coords))

    def __repr__(self):
        c0, c1, c2 = self.coords
        return f"ExtElem(({c0}, {c1}, {c2}), p={self.field.p})"
