"""ngoneq: exact matrix solutions of polygon equations, constructed and verified.

For any n >= 5 the package derives the two flip-move sequences of the polygon
equation, attaches an exact rational matrix to every move, multiplies out both
sides by applying each move backwards to the columns it touches, and checks entrywise
equality, all in exact arithmetic. ``check_move_action`` and ``gale_table`` resolve on first
use (PEP 562 ``__getattr__``): importing the package does not compile ``fvectors``.
"""

from .errors import InternalError, InvalidInputError, MoveNotApplicableError
from .exactfield import DenseMatrix, Rat, ZetaAssignment, rat_from_string
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


def __getattr__(name: str):
    if name in ("check_move_action", "gale_table"):
        from . import fvectors

        return getattr(fvectors, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
