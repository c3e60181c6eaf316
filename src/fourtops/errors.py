"""Exception types shared across the package, the size flags' bound check
and the defaults the CLI's parser names.

This module imports nothing, so ``import fourtops.cli`` loads no other
``fourtops`` module.
"""

# the oracle enumerators' default point cap (see ``census``)
DEFAULT_ORACLE_POINT_CAP = 6

# the closure-law universe's default pair cap (see ``axioms.build_universe``)
DEFAULT_PAIR_CAP = 5000

# the kinds of structure an input or an output names: a point set (``y``) and
# the three faces built from it
STRUCTURE_KINDS = ("y", "nucleus", "grotop", "lt")


class FourtopsError(Exception):
    """Base class for all errors raised by this package."""


class UnknownPoint(FourtopsError):
    """A point identifier is not part of the poset."""


class CycleError(FourtopsError):
    """The generating arrows contain a directed cycle."""


class NotDownClosed(FourtopsError):
    """A set of points is not closed under going below."""


class NotElement(FourtopsError):
    """A down-set does not belong to the algebra it is used with."""


class SizeCapExceeded(FourtopsError):
    """An exhaustive operation was asked to run beyond its size cap."""


class FunctorialityError(FourtopsError):
    """Restriction maps are not path-independent or not total."""


class ShapeMismatch(FourtopsError):
    """Domains or codomains do not line up for the requested operation."""


class InvalidNucleus(FourtopsError):
    """A table on the down-set algebra fails the nucleus axioms."""


class InvalidTopology(FourtopsError):
    """A per-point structure fails its topology axioms."""


class IncoherentQuad(FourtopsError):
    """The four structures of a quadruple disagree with each other."""


class ParseError(FourtopsError):
    """Input text does not match the grammar."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ParseError(f"{flag} must be at least {least}, not {value}")
