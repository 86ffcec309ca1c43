"""Exception taxonomy shared across the package.

Split roughly by pipeline stage so the CLI can map failures onto exit codes:
input/validation problems exit 2, construction/solver problems exit 3 and
verification mismatches exit 4.
"""


class RydcompError(Exception):
    """Base class for everything raised deliberately by this package."""


class ProblemFormatError(RydcompError):
    """The problem file could not be parsed (bad JSON, missing fields...)."""


class ValidationError(RydcompError):
    """Inputs parse but violate a documented precondition."""


class UnsupportedFamilyError(ValidationError):
    """The graph family tag is not one we recognise."""


class GeometryError(RydcompError):
    """A layout cannot be realised (clash, inaccessible port, unsupported shape)."""


class NoRootInRange(RydcompError):
    """A bracketed root search found no sign change in the allowed interval."""


class EnumerationBudgetError(RydcompError):
    """An exact enumeration would exceed the configured budget."""


class PipelineError(RydcompError):
    """Wrapper tagging which compilation stage failed."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
