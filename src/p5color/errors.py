"""Exception types shared across the library."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed graph or weights input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CutoffExceeded(RuntimeError):
    """An exact solver or exhaustive check was asked to run past its work
    budget or another desk-scale limit. Loud by design: never a silent
    wrong answer."""


class NotInClass(ValueError):
    """Input graph is not in the declared hereditary class.

    Carries the forbidden-structure witness that proves it.
    """

    def __init__(self, class_name: str, witness):
        super().__init__(
            f"graph is not {class_name}: contains induced "
            f"{witness.pattern} on vertices {list(witness.vertices)}"
        )
        self.class_name = class_name
        self.witness = witness


class UsageError(ValueError):
    """The command line asks for something its options do not allow, or
    names an input it cannot read."""


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


class NotO3Free(PreconditionError):
    """Graph fed to the matching-based coloring route has an independent
    triple; the witness is attached."""

    def __init__(self, witness):
        super().__init__(
            f"graph is not O3-free: independent triple {list(witness.vertices)}"
        )
        self.witness = witness
