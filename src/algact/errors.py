"""Exception hierarchy shared by all algact modules.

Every domain failure raises a subclass of :class:`AlgactError`, so callers
(and the CLI) can distinguish bad input from a property that was checked and
found false; the latter is always reported through a result object, never an
exception.
"""


class AlgactError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(AlgactError):
    def __init__(self, p):
        super().__init__(f"{p} is not a prime number")
        self.p = p


class CharTwoForbidden(AlgactError):
    def __init__(self):
        super().__init__("prime fields of characteristic 2 are not supported")


class DivisionByZero(AlgactError):
    pass


class FieldMismatch(AlgactError):
    pass


class DimensionMismatch(AlgactError):
    pass


class OpIndexOutOfRange(AlgactError):
    pass


class OpArityMismatch(AlgactError):
    pass


class NotAssociative(AlgactError):
    pass


class NotCommutative(AlgactError):
    pass


class NotPoisson(AlgactError):
    pass


class NotCommutativePoisson(AlgactError):
    pass


class ClosureError(AlgactError):
    """An induced operation left the computed span; indicates a bug."""


class ShapeMismatch(AlgactError):
    pass


class InvalidAction(AlgactError):
    def __init__(self, report):
        failed = ", ".join(report.failed_labels())
        super().__init__(f"action fails conditions: {failed}")
        self.report = report


class NotSplit(AlgactError):
    pass


class KernelMismatch(AlgactError):
    pass


class TupleNotInSpace(AlgactError):
    pass


class NotAHomomorphism(AlgactError):
    pass


class BudgetExceeded(AlgactError):
    def __init__(self, needed, budget):
        super().__init__(
            f"enumeration needs {needed} matrices into the weak actor, budget is {budget}"
        )
        self.needed = needed
        self.budget = budget


class UnknownName(AlgactError):
    pass


class InputError(AlgactError):
    """Malformed file or unparseable value supplied from outside."""
