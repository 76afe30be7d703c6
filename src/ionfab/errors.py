"""Exception hierarchy shared across the toolkit."""


class IonfabError(Exception):
    """Base class for all toolkit errors."""


class DomainError(IonfabError):
    """An argument is outside the physical or mathematical domain of an operation.

    ``where``, when set, locates the bad item in a list argument as
    ``(argument name, path)``, such as ``("demand", "$[3].time_s")``, so
    that a reader of that argument's file can name the file and the item.
    """

    where: tuple[str, str] | None = None


class UnknownSpecies(IonfabError):
    """Requested ion species is not in the species table."""


class SchemaError(IonfabError):
    """A file does not conform to its documented JSON schema.

    ``path`` is a dotted/indexed location such as ``elus[1].trap_frequency_hz``.
    """

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message

    def under(self, prefix: str) -> "SchemaError":
        """This error for the same document embedded at ``prefix`` of a larger one."""
        return SchemaError(self.reason, prefix + self.path[1:])


class InvalidArchitecture(IonfabError):
    """A structurally well-formed architecture failed invariant validation."""

    def __init__(self, report):
        lines = "; ".join(f"{v.path}: {v.message}" for v in report.violations)
        super().__init__(f"architecture invalid: {lines}")
        self.report = report


class ParseError(IonfabError):
    """Circuit text failed to parse; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class CapacityError(IonfabError):
    """A mapping or embedding does not fit on the requested host."""
