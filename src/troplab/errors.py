"""Exception hierarchy.

Precondition failures are the library's "exit 3" class: the input parsed
fine but violates a named mathematical requirement.  Schema errors are the
"exit 2" class: the input never made it past parsing.
"""


class TroplabError(Exception):
    pass


class SchemaError(TroplabError):
    """Malformed input document.  `pointer` locates the offending field."""

    def __init__(self, message: str, pointer: str = "/"):
        super().__init__(f"{message} (at {pointer})")
        self.pointer = pointer


class PreconditionError(TroplabError):
    """A named mathematical precondition failed."""

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant


class NotPositiveDefiniteError(PreconditionError):
    """Carries the index of the first non-positive leading principal minor."""

    def __init__(self, minor_index: int):
        super().__init__(
            "positive-definite",
            f"leading principal minor {minor_index} is not positive",
        )
        self.minor_index = minor_index


class ModeMixError(PreconditionError):
    def __init__(self, message: str):
        super().__init__("matching-arithmetic-modes", message)
