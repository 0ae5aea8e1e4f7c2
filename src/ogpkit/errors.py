"""Exception hierarchy shared across the package.

Every domain error derives from ShapeError so the CLI can map any of them
to a single exit code.
"""


class ShapeError(Exception):
    """Base class for all domain errors raised by shape operations."""


# poset construction / queries

class DanglingFace(ShapeError):
    pass


class BadGrading(ShapeError):
    pass


class EmptySide(ShapeError):
    pass


class Overlap(ShapeError):
    pass


class UnknownElement(ShapeError):
    pass


class DuplicateLabel(ShapeError):
    """Two elements of a constructed poset get the same label."""


class BadEmbedding(ShapeError):
    """A map of shapes is not total, injective, dimension- and
    face-preserving (and, for marked shapes, marking-preserving)."""


# molecule constructors

class BoundaryMismatch(ShapeError):
    pass


class NotRewritable(ShapeError):
    pass


class LevelOutOfRange(ShapeError):
    pass


class NotRound(ShapeError):
    pass


class ZeroDimensional(ShapeError):
    pass


class DimMismatch(ShapeError):
    pass


# cylinders

class KNotClosed(ShapeError):
    pass


class BadCollapseSet(ShapeError):
    pass


class BadProjection(ShapeError):
    """A collapse map is not total, surjective and dimension-lowering, or
    a cylinder's projection does not carry closures to closures."""


class NotComposable(ShapeError):
    """Two maps do not meet: the first one's target is not the second
    one's source."""


# marked structures

class NotEntire(ShapeError):
    pass


# horns and contexts

class NotAFacet(ShapeError):
    pass


class NotAContext(ShapeError):
    pass


class BadHole(ShapeError):
    """A context's hole is not a closed, full-dimensional, round subset of
    its ambient, or a horn's carrier is not closed."""


class BadMarking(ShapeError):
    """A marking holds an element of dimension 0."""


class IdentityFailed(ShapeError):
    """A checked identity between inclusions failed; carries a certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate or {}


class RecognitionFailed(ShapeError):
    """Re-recognition of a constructed object failed; carries a certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate or {}


# harness

class UnknownLemma(ShapeError):
    pass


class BoundExceeded(ShapeError):
    """A bounded search was asked to run past its configured size cap."""


# expression language

class ExprSyntaxError(Exception):
    """Parse error with position information. Not a ShapeError: the CLI
    maps it to a distinct exit code."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class EvalError(ShapeError):
    """Domain error during expression evaluation, annotated with the
    expression path at which it occurred."""

    def __init__(self, path, cause):
        super().__init__(f"at {path}: {cause}")
        self.path = path
        self.cause = cause
