"""Exception taxonomy shared across the workbench.

Four families, matching the CLI exit codes:

  ParseError family          exit 2   the model file cannot be read
  ValidationFailure family   exit 1   the model is readable but not a valid
                                      closed simply connected manifold model
  MathMismatch family        exit 3   a theorem or structure identity failed
                                      to verify on an otherwise valid model
  InternalCheckFailure family exit 4  one of the tool's own invariants broke,
                                      which always indicates a bug
"""


class ParseError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class UnknownGenerator(ParseError):
    pass


class DegreeMismatch(ParseError):
    pass


class OddExponent(ParseError):
    pass


class ValidationFailure(Exception):
    pass


class NotPoincareDuality(ValidationFailure):
    def __init__(self, degree, message):
        self.degree = degree
        super().__init__("degree %d: %s" % (degree, message))


class IncompleteModel(ValidationFailure):
    pass


class MathMismatch(Exception):
    pass


class QuasiIsoFailure(MathMismatch):
    def __init__(self, degree, message):
        self.degree = degree
        super().__init__(str(message))


class IdentityViolation(MathMismatch):
    pass


class SignIdentityFailure(MathMismatch):
    pass


class DualMismatch(MathMismatch):
    pass


class TheoremMismatch(MathMismatch):
    pass


class SingularDuality(MathMismatch):
    pass


class InternalCheckFailure(Exception):
    pass


class CompositionNotZero(InternalCheckFailure):
    pass


class MissingImage(InternalCheckFailure):
    pass


class DifferentialSquareNonzero(InternalCheckFailure):
    pass


class HodgeSumMismatch(InternalCheckFailure):
    pass


class ChainMapFailure(InternalCheckFailure):
    pass


def exit_code_for(exc):
    """Map an exception to the CLI exit code contract."""
    if isinstance(exc, ParseError):
        return 2
    if isinstance(exc, ValidationFailure):
        return 1
    if isinstance(exc, MathMismatch):
        return 3
    if isinstance(exc, InternalCheckFailure):
        return 4
    raise exc
