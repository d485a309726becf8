"""Exception types shared across the package.

Every failure mode that callers are expected to catch has a named class here;
generic ValueError/RuntimeError is reserved for actual programming errors.
A run reports a failure by its family: the ConfigError and GroupError
families are configuration errors (exit 1), and every other GibbsmixError
is an invariant failure (exit 2, no traceback).
"""

from __future__ import annotations


class GibbsmixError(Exception):
    """Base class for all package errors."""


class ConfigError(GibbsmixError):
    """Bad experiment configuration (unknown field, wrong type, missing key)."""


class AssertionFailure(GibbsmixError):
    """A runtime numerical assertion failed."""


# -- group construction / validation ----------------------------------------

class GroupError(GibbsmixError):
    pass


class NotSymmetric(GroupError):
    """Generator set is not closed under inversion."""


class ContainsIdentity(GroupError):
    """Generator set contains the identity element."""


class NotGenerating(GroupError):
    """Generator set does not generate the group (Cayley graph disconnected)."""


class SizeLimitExceeded(GroupError):
    """Group order would exceed the dense-table cap."""


class ParseError(GroupError):
    """Malformed group file."""


class InvariantViolation(GibbsmixError):
    """A structural invariant failed; carries the name of the violated axiom."""

    def __init__(self, axiom: str, detail: str = ""):
        self.axiom = axiom
        super().__init__(f"{axiom}: {detail}" if detail else axiom)


# -- kernels ----------------------------------------------------------------

class KernelError(GibbsmixError):
    pass


class NonStochasticRow(KernelError):
    """A kernel row does not sum to 1 within tolerance (transcription bug)."""


class NotReversible(KernelError):
    """Detailed balance fails beyond tolerance."""


class DegenerateEigenvector(KernelError):
    """Second eigenvector has (numerically) no positive part to normalize."""


# -- chains -----------------------------------------------------------------

class RejectionBudgetExceeded(GibbsmixError):
    """Stationary rejection sampler exhausted its attempt budget."""


class DominationViolated(GibbsmixError):
    """Monotone coupling lost the coordinatewise domination invariant."""


class DegeneratePairMass(GibbsmixError):
    """Pair mass too small to divide by in a subset coupling step."""
