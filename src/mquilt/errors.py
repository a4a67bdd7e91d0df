"""Typed errors raised by the library.

Every error is a subclass of :class:`MquiltError`, so callers (and the CLI)
can fence off domain failures from genuine bugs with one except clause.
"""


class MquiltError(ValueError):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------- chain model


class NegativeEntry(MquiltError):
    """A probability entry is negative beyond tolerance."""


class NonStochasticRow(MquiltError):
    """A transition row does not sum to one within tolerance."""


class BadInitial(MquiltError):
    """The initial distribution does not sum to one or has a bad length."""


class DuplicateLabel(MquiltError):
    """Two states share the same label."""


class InvalidTime(MquiltError):
    """A time index lies outside the valid range."""


class NotIrreducible(MquiltError):
    """The transition graph is not strongly connected."""


class NotAperiodic(MquiltError):
    """The chain has period greater than one."""


class ZeroStationaryEntry(MquiltError):
    """The stationary distribution has a numerically zero entry."""


# ------------------------------------------------------------------ influence


class BadShape(MquiltError):
    """A quilt shape is inconsistent with the node index or horizon."""


class EmptyThetaSet(MquiltError):
    """An operation over a set of chain models received no models."""


# ------------------------------------------------------------------ mechanism


class InvalidEpsilon(MquiltError):
    """A privacy budget is not a positive finite number."""


class LengthMismatch(MquiltError):
    """Observed data length disagrees with the release window."""


class BadState(MquiltError):
    """A state label or index does not exist in the model."""


# ---------------------------------------------------------------- composition


class EmptyInput(MquiltError):
    """A composition rule received no release records, or a release no queries."""


class MixedFrameworks(MquiltError):
    """Release records disagree on horizon, state space, or window."""


class QuiltMismatch(MquiltError):
    """Records do not share identical active quilts node by node."""


class NegativeE(MquiltError):
    """A max-divergence bound is negative."""


class OverlappingWindows(MquiltError):
    """Two release windows overlap where disjointness is required."""


class NotApproxVariant(MquiltError):
    """A rule restricted to approximate-influence releases got another kind."""


class TooManyWindows(MquiltError):
    """More disjoint windows than any parallel rule is proved for."""


# --------------------------------------------------------------------- oracle


class TooLarge(MquiltError):
    """A computation would exceed a fixed size limit: an exhaustive
    enumeration, or a two-sided influence table of the quilt search."""


# ----------------------------------------------------------------- fitting/IO


class AlphabetMismatch(MquiltError):
    """Sequences mention labels outside the common alphabet."""


class FormatError(MquiltError):
    """A file does not parse as the expected format."""
