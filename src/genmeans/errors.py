"""Exception taxonomy shared across the package."""


class GenmeansError(Exception):
    """Base class for all package errors."""


class DimensionError(GenmeansError):
    """Operands have incompatible orders or lengths."""


class SingularTriangleError(GenmeansError):
    """A triangle operation hit a zero diagonal entry."""

    def __init__(self, row):
        self.row = row
        super().__init__(f"zero diagonal entry at row {row}; triangle is not invertible")


class ParameterError(GenmeansError):
    """Aggregated validation report, never a single silent reason: building a
    ``ParameterTriple`` raises it with every violation, and other entry points
    (presets, CLI flags) raise it for their own arguments."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations) or "invalid parameters")


class TailError(GenmeansError):
    """The declared tail of an input does not permit the requested computation."""


class GuardError(GenmeansError):
    """A cost guard rejected the request."""


class SchemaError(GenmeansError):
    """A serialized document violates the schema."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class InconsistencyError(GenmeansError):
    """An internal consistency check failed: a ``selftest`` line, or its
    bounded-source autocompactness check (``selfcheck``)."""
