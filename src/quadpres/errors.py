"""Exception types and the one report type shared by all quadpres modules.

Every layered axiom check (the poset, hyperfield, presentable, quadratic and
special-group ladders) returns an AxiomReport, and the CLI writes each as one
entry of its machine report.
"""

from dataclasses import dataclass, field


class InputError(ValueError):
    """Bad arguments: unknown element ids, empty sets, dimension mismatches."""


class ValidationError(ValueError):
    """A structure violates a law it was required to satisfy.

    Carries a human-readable message naming the violated law and, where
    possible, a witness tuple in ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SizeGuardError(RuntimeError):
    """An exhaustive check would exceed its size guard; refused explicitly."""


@dataclass
class AxiomReport:
    """Outcome of a layered axiom check; failures carry witness tuples.

    The report passes iff it lists no failure.  ``notes`` holds the ladder's
    own verdicts and counts.  The CLI writes failures and notes as they are,
    so json.dumps must be able to write every value in them.
    """

    level_passed: str
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def passed(self):
        return not self.failures

    def first_failure(self):
        return self.failures[0] if self.failures else None
