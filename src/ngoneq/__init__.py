"""ngoneq: exact matrix solutions of polygon equations, constructed and verified.

For any n >= 5 the package derives the two flip-move sequences of the polygon
equation, attaches an exact rational matrix to every move, multiplies out both
sides by applying each move to the rows it touches, and checks entrywise
equality, all in exact arithmetic.
"""

from .errors import InternalError, InvalidInputError, MoveNotApplicableError
from .exactfield import (
    DenseMatrix,
    Rat,
    ZetaAssignment,
    rat_from_string,
    rat_to_string,
)
from .fvectors import (
    FVector,
    check_move_action,
    check_orthogonality,
    f_value,
    f_vector,
    g_value,
    stack_f_matrix,
)
from .pmatrix import (
    ActiveIndexMap,
    act_on_rows,
    build_p_matrix,
    extend_matrix,
    extended_matrices,
    product_for_side,
)
from .simplicial import (
    MoveSequence,
    PachnerMove,
    Pair,
    Triangulation,
    apply_move,
    derive_move,
    equation_sequences,
    final_triangulation,
    initial_triangulation,
    triangulation_path,
)
from .verifier import (
    PropertyResult,
    VerificationReport,
    max_stack_rank,
    run_property_suite,
    verify_equation,
    verify_with_properties,
)
from .version import __version__

__all__ = [
    "ActiveIndexMap",
    "DenseMatrix",
    "FVector",
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
    "act_on_rows",
    "apply_move",
    "build_p_matrix",
    "check_move_action",
    "check_orthogonality",
    "derive_move",
    "equation_sequences",
    "extend_matrix",
    "extended_matrices",
    "f_value",
    "f_vector",
    "final_triangulation",
    "g_value",
    "initial_triangulation",
    "max_stack_rank",
    "product_for_side",
    "rat_from_string",
    "rat_to_string",
    "run_property_suite",
    "stack_f_matrix",
    "triangulation_path",
    "verify_equation",
    "verify_with_properties",
]
