import functools

from rsdel import build_code
from rsdel.channel import DeletionPattern


@functools.lru_cache(maxsize=None)
def get_spec(p, n, delta=None):
    # build_code searches for an irreducible cubic; cache so repeated test
    # modules don't redo it for the big primes
    return build_code(p, n, delta_override=delta)


def is_checked_pattern(kappa):
    """Whether a decoded kappa, built without DeletionPattern's checks, is
    exactly the pattern those checks build: a tuple of Python ints, 1-based
    and strictly increasing."""
    return (type(kappa) is DeletionPattern and type(kappa.kept) is tuple
            and kappa == DeletionPattern(kappa.kept)
            and all(type(i) is int for i in kappa.kept))
