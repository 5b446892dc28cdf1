"""Binary search tree monoid, cocharge sequences, and cyclic shift graphs."""

from .cocharge import cochseq_word, cocharge_lower_bound
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DisconnectedError,
    InternalError,
    NotStandardError,
    ParseError,
    RankError,
    SylvError,
)
from .graph import ComponentGraph, component, diameter
from .monoid import SylvElement, element_of, equivalent, rewrite_equivalent
from .pathsynth import PathCertificate, shift_path
from .trees import readings
from .words import Word

__version__ = "0.1.0"

__all__ = [
    # the documented entry points
    "element_of", "readings", "equivalent", "rewrite_equivalent",
    "cochseq_word", "cocharge_lower_bound", "component", "diameter", "shift_path",
    # the types in their signatures
    "SylvElement", "Word", "ComponentGraph", "PathCertificate",
    # errors
    "SylvError", "ParseError", "RankError", "NotStandardError",
    "CapExceededError", "BudgetExceededError", "DisconnectedError", "InternalError",
]
