"""Deletion channel: which positions survive, and in what order.

A DeletionPattern records the kept positions (1-based, strictly increasing);
applying it to a word keeps exactly those symbols in order.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .code import ReceivedWord
from .errors import ParameterError
from .field import _integers


@dataclass(frozen=True)
class DeletionPattern:
    """Kept positions, 1-based and strictly increasing.

    DeletionPattern(kept) reads every position through operator.index and
    checks both properties, raising ParameterError.  _validated(kept) skips
    those checks: it is for the decoders only, whose kept tuples are
    already proven to be increasing Python ints in 1..n (the closed form's
    order test on delta-table positions, the triple search's i < j < k,
    the constant word's (), the decoders' later-symbol check).
    """

    kept: tuple[int, ...]

    def __post_init__(self):
        kept = _integers(self.kept, "kept positions")
        object.__setattr__(self, "kept", kept)
        if min(kept, default=1) < 1:
            raise ParameterError(f"positions are 1-based, got {kept}")
        if any(map(operator.ge, kept, kept[1:])):
            raise ParameterError(f"kept positions must be strictly increasing, got {kept}")

    @classmethod
    def _validated(cls, kept: tuple) -> "DeletionPattern":
        """The pattern of a tuple already known to hold strictly increasing
        Python ints >= 1; no check runs."""
        pattern = object.__new__(cls)
        object.__setattr__(pattern, "kept", kept)
        return pattern

    def __iter__(self):
        return iter(self.kept)


def apply_deletions(word, pattern: DeletionPattern):
    """Symbols of `word` at the kept positions, in order.

    A ReceivedWord, a Codeword among them, gives a ReceivedWord of its
    field: one take of the kept rows of its canonical coordinate array,
    unchecked and with no ExtElem built.  Any other sequence gives a tuple
    of its items.  Takes O(m) time and memory for m kept positions, beyond
    the word itself.
    """
    kept = pattern.kept
    n = len(word)
    if kept and kept[-1] > n:
        raise ParameterError(f"kept position {kept[-1]} exceeds word length {n}")
    if isinstance(word, ReceivedWord):
        rows = np.array(kept, dtype=np.intp) - 1
        return ReceivedWord._unchecked(word.field, word.coords.take(rows, axis=0))
    return tuple(word[i - 1] for i in kept)


def random_pattern(n: int, survivors: int, seed: int) -> DeletionPattern:
    """Uniformly random size-`survivors` kept set; deterministic per seed.

    Takes O(n + s log s) time and O(n) memory for s survivors: the sample
    from 1..n may copy the range, and the kept positions are sorted.
    """
    if not 0 <= survivors <= n:
        raise ParameterError(f"survivors must lie in 0..{n}, got {survivors}")
    rng = random.Random(seed)
    return DeletionPattern(tuple(sorted(rng.sample(range(1, n + 1), survivors))))


def enumerate_triples(n: int) -> Iterator[DeletionPattern]:
    """All C(n, 3) kept triples in lexicographic order.

    A lazy generator: O(1) time per triple, C(n, 3) in all, and O(n)
    memory for the underlying combinations iterator, never the whole list.
    """
    if n < 3:
        raise ParameterError(f"need n >= 3 to keep a triple, got {n}")
    for kept in itertools.combinations(range(1, n + 1), 3):
        yield DeletionPattern(kept)
