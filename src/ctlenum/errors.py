"""Exception types shared across the package."""


class CtlEnumError(Exception):
    """Base class for all errors raised by this package."""


class FormulaSyntaxError(CtlEnumError):
    """Formula text does not conform to the grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class RewriteNotApplicable(CtlEnumError):
    """The formula's root matches no known equivalence."""


class NotAFAGChain(CtlEnumError):
    """Formula is not a chain of AF/AG operators over a single atom."""


class UnmappedAtom(CtlEnumError):
    """A literal occurrence has no entry in the substitution map."""


class NotNNF(CtlEnumError):
    """Formula is not propositional negation normal form."""


class ModelFormatError(CtlEnumError):
    """Model or digraph file is malformed (bad JSON shape, duplicates)."""


class InvalidModelError(CtlEnumError):
    """Model violates structural invariants (root, totality, dangling edges)."""


class RootDeleted(CtlEnumError):
    """A deletion set may never contain the root world."""


class UnknownWorld(CtlEnumError):
    """Referenced world id is not part of the structure."""


class OracleFragmentMismatch(CtlEnumError):
    """A non-Auto oracle was requested outside its formula fragment."""


class CapExceeded(CtlEnumError):
    """Instance is larger than the configured brute-force cap."""


class PartialAssignment(CtlEnumError):
    """Assignment does not cover every variable."""
