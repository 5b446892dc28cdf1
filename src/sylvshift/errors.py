"""Exception hierarchy shared by all sylvshift modules."""


class SylvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SylvError):
    """Malformed word or tree text."""


class RankError(SylvError):
    """A symbol exceeds the fixed rank, or ranks of operands disagree."""


class NotStandardError(SylvError):
    """An operation defined only for standard words/trees got a non-standard input."""


class CapExceededError(SylvError):
    """An enumeration grew past its configured cap."""

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} exceeded cap of {cap}")
        self.cap = cap


class BudgetExceededError(SylvError):
    """A closure search visited more states than its budget allows."""

    def __init__(self, budget: int):
        super().__init__(f"rewrite search exceeded budget of {budget} visited words")
        self.budget = budget


class DisconnectedError(SylvError):
    """A graph operation requiring connectivity met a disconnected graph."""

    def __init__(self, parts):
        super().__init__(f"graph is disconnected ({len(parts)} parts)")
        self.parts = parts


class InternalError(SylvError):
    """A structural fact the library relies on failed to hold.

    Raised by the path construction (a step's chain invariants, or a
    finished certificate failing `verify()`), `graph.component` (an
    asymmetric shift relation), `graph.component` and `graph.class_parts`
    (a listing of the class that disagrees with its count),
    `graph.search_parts` and `graph.component` (a row that names a key
    outside the class), `graph.mirror_index` (a letter reversal that is no
    involution), `graph.diameter` (BFS rounds that stall) and the command
    line (`equal --rewrite` disagreeing with insertion). It signals a bug
    in the library (or an input violating a checked precondition), never
    an expected runtime condition.
    """
