"""Exception hierarchy shared across the package, and the limits on what an
answer may hold: the letter budget and the interpreter's digit limit for
printing integers.  Past either, an answer is a DomainError, not a hang or
a traceback."""

import sys

# The most letters an answer may hold: edges of a path word or of an
# element's two path words, or entries of a realized pair's matrices.  With
# small matrix entries a letter costs about a microsecond, so the largest
# answer takes a fraction of a second; a larger one is refused with a
# DomainError.
LETTER_BUDGET = 100_000


class KatsuraError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(KatsuraError):
    """Malformed input data: dimension mismatch, vertex mismatch, edge not in graph."""


class DomainError(KatsuraError):
    """Operation applied outside its mathematical domain."""


class CompositionError(KatsuraError):
    """A raw word contains a non-composable adjacent pair."""


class SemanticError(KatsuraError):
    """A syntactically valid expression refers to data outside the loaded pair."""


def excerpt(text: str, position: int) -> str:
    """The window of `text`, 12 characters each side, that an error at `position` quotes."""
    return text[max(0, position - 12) : position + 12]


class ExprParseError(KatsuraError):
    """Syntax error in an element/path/group expression."""

    def __init__(self, position: int, expected: str, text: str):
        self.position = position
        self.expected = expected
        self.excerpt = excerpt(text, position)
        super().__init__(f"at offset {position}: expected {expected} (near {self.excerpt!r})")


class UnrealizableWithSquareMatrices(KatsuraError):
    """Requested K-groups have mismatched free ranks, which square matrices cannot produce."""


class CertificationError(KatsuraError):
    """Internal: a self-check on a constructed object failed.  Never silently ignored."""


class DepthCapExceeded(KatsuraError):
    """A lazily unfolded computation did not stabilize within the configured cap."""


def format_int(x: int) -> str:
    """Decimal text of x; an integer past the interpreter's digit limit is a
    DomainError that names the limit."""
    try:
        return str(x)
    except ValueError:
        raise DomainError(
            f"the answer holds an integer of more than {sys.get_int_max_str_digits()} digits,"
            " the interpreter's limit for printing integers"
        ) from None
