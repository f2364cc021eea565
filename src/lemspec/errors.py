"""Exception types shared across the package.

Validation errors carry a machine-readable witness (a tuple of element
indices) so callers can point at the offending table cells.
"""

from __future__ import annotations


class LemspecError(Exception):
    """Base class for all errors raised by this package."""


class AxiomViolation(LemspecError):
    """A ring, monoid, or action law failed on concrete elements.

    ``axiom`` names the law (e.g. "add-assoc", "M3", "monoid");
    ``witness`` holds the element indices where it fails.
    """

    def __init__(self, axiom: str, witness: tuple = (), detail: str = ""):
        self.axiom = axiom
        self.witness = witness
        msg = f"axiom {axiom} violated at {witness}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ZeroRing(LemspecError):
    """Rings of order 1 are rejected."""


class ImproperIdeal(LemspecError):
    """An operation required a proper ideal but received the whole ring."""


class NotPrimeIdeal(LemspecError):
    """An operation required a prime ideal."""


class EmptyFamily(LemspecError):
    """Joins, meets, sums, and intersections over the empty family are undefined here."""


class EmptySpectrum(LemspecError):
    """An operation required at least one prime element."""


class NotAPoset(LemspecError):
    """The order table is not reflexive, antisymmetric, or transitive."""

    def __init__(self, law: str, witness: tuple):
        self.law = law
        self.witness = witness
        super().__init__(f"{law} fails at {witness}")


class Unbounded(LemspecError):
    """The poset lacks a unique top or bottom element."""


class NotALattice(LemspecError):
    """Some pair has no least upper bound or greatest lower bound."""

    def __init__(self, kind: str, pair: tuple):
        self.kind = kind
        self.pair = pair
        super().__init__(f"pair {pair} has no {kind}")


class ModuleAxiomViolation(LemspecError):
    """A classical finite-module law failed while building an instance."""

    def __init__(self, law: str, witness: tuple = ()):
        self.law = law
        self.witness = witness
        super().__init__(f"module law {law} violated at {witness}")


class InternalError(LemspecError):
    """A fact that holds by construction or by a theorem failed: a bug in lemspec."""


class TopologyAxiomViolation(InternalError):
    """A constructed closed-set family broke a closure axiom."""


class NotTopLeModule(LemspecError):
    """The plain variety family is not closed under finite unions here."""


class ParseError(LemspecError):
    """A descriptor file could not be parsed."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        where = f" (line {line})" if line is not None else ""
        what = f" in field '{field}'" if field else ""
        super().__init__(f"{message}{what}{where}")
