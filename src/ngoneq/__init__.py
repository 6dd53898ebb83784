"""ngoneq: exact matrix solutions of polygon equations, constructed and verified.

For any n >= 5 the package derives the two flip-move sequences of the polygon
equation, attaches an exact rational matrix to every move, multiplies out both
sides by applying each move to the rows it touches, and checks entrywise
equality, all in exact arithmetic.
"""

from .errors import InternalError, InvalidInputError, MoveNotApplicableError
from .exactfield import DenseMatrix, Rat, ZetaAssignment, rat_from_string
from .fvectors import check_move_action, gale_table
from .simplicial import (
    MoveSequence,
    PachnerMove,
    Pair,
    Triangulation,
    equation_sequences,
    final_triangulation,
    initial_triangulation,
)
from .verifier import PropertyResult, VerificationReport, verify_equation, verify_with_properties
from .version import __version__

__all__ = [
    "DenseMatrix",
    "InternalError",
    "InvalidInputError",
    "MoveNotApplicableError",
    "MoveSequence",
    "PachnerMove",
    "Pair",
    "PropertyResult",
    "Rat",
    "Triangulation",
    "VerificationReport",
    "ZetaAssignment",
    "__version__",
    "check_move_action",
    "equation_sequences",
    "final_triangulation",
    "gale_table",
    "initial_triangulation",
    "rat_from_string",
    "verify_equation",
    "verify_with_properties",
]
