"""Two-dimensional Reed-Solomon codes over F_{p^3} that correct n-3 deletions.

Evaluation points alpha_i = delta_i + delta_i^2 * gamma make the triple ratio
(alpha_i - alpha_j)/(alpha_j - alpha_k) injective over increasing triples, so
three surviving symbols pin down their original positions.  Two decoders:
the paper's exhaustive triple search, run as an O(n) equal-key join
whose nominal op count still prices the Theta(n^3) scan, and a linear-time
closed form.  Both take any channel output of 3..n symbols: they decode its
first three and check every later one against the decoded codeword.
"""

from .channel import DeletionPattern, apply_deletions, enumerate_triples, random_pattern
from .code import (
    CodeSpec,
    Codeword,
    Message,
    ReceivedWord,
    build_code,
    encode,
    encode_many,
    gamma_map,
    interpolate,
    load_codeword,
    load_spec,
    load_symbols,
    random_message,
    save_spec,
    save_symbols,
)
from .decoder import (
    PATH_CLOSED_FORM,
    PATH_CONSTANT,
    PATH_FALLBACK,
    DecodeInstrumentation,
    DecodeOutcome,
    ReceivedTriple,
    compute_beta,
    decode_cubic,
    decode_linear,
    extract_coefficients,
    solve_deltas,
)
from .errors import (
    BudgetExceededError,
    DegenerateInterpolationError,
    FieldMismatchError,
    InconsistentReceivedWordError,
    ParameterError,
    RSDelError,
    UnrecognizedReceivedWordError,
)
from .field import (
    CubicField,
    ExtElem,
    MonicCubic,
    is_irreducible_cubic,
    is_prime,
)
from .verify import (
    AuditResult,
    CollisionWitness,
    audit_code,
    base_field_spec,
    check_injectivity,
    iter_message_pairs,
    lcs_length,
    sample_message_pairs,
    vandermonde_det,
)

__version__ = "0.1.0"

__all__ = [
    "AuditResult",
    "BudgetExceededError",
    "CodeSpec",
    "Codeword",
    "CollisionWitness",
    "CubicField",
    "DecodeInstrumentation",
    "DecodeOutcome",
    "DegenerateInterpolationError",
    "DeletionPattern",
    "ExtElem",
    "FieldMismatchError",
    "InconsistentReceivedWordError",
    "Message",
    "MonicCubic",
    "ParameterError",
    "PATH_CLOSED_FORM",
    "PATH_CONSTANT",
    "PATH_FALLBACK",
    "RSDelError",
    "ReceivedTriple",
    "ReceivedWord",
    "UnrecognizedReceivedWordError",
    "apply_deletions",
    "audit_code",
    "base_field_spec",
    "build_code",
    "check_injectivity",
    "compute_beta",
    "decode_cubic",
    "decode_linear",
    "encode",
    "encode_many",
    "enumerate_triples",
    "extract_coefficients",
    "gamma_map",
    "interpolate",
    "is_irreducible_cubic",
    "is_prime",
    "iter_message_pairs",
    "lcs_length",
    "load_codeword",
    "load_spec",
    "load_symbols",
    "random_message",
    "random_pattern",
    "sample_message_pairs",
    "save_spec",
    "save_symbols",
    "solve_deltas",
    "vandermonde_det",
]
