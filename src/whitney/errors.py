"""Exception hierarchy shared by all engine modules.

Input problems (bad scene data, malformed expressions) derive from
``InputError``; numerical/structural failures discovered while running
derive from ``EngineError``.  The CLI maps these to exit codes 2 and 3.
"""


class WhitneyError(Exception):
    """Base class for everything raised deliberately by this package."""


class InputError(WhitneyError):
    """Malformed or inconsistent input data."""


class EngineError(WhitneyError):
    """A construction or probe failed at run time."""


# --- expression module ---

class ArityMismatch(InputError):
    pass


class SingularPoint(EngineError):
    """Evaluation or differentiation requested too close to a declared
    singular locus (kink of abs/min/max, zero denominator, sqrt at zero,
    piecewise guard boundary)."""


class UnsupportedNode(InputError):
    pass


# --- jet module ---

class BaseMismatch(EngineError):
    pass


class ShapeMismatch(EngineError):
    pass


class ConsistencyViolation(EngineError):
    """A jet field failed the sampled tangential-derivative compatibility
    check on a stratum."""


# --- geometry module ---

class UnsupportedDescriptor(InputError):
    pass


# --- cutoff module ---

class SlackTooLarge(EngineError):
    """Distance regularization too loose to fit a plateau below the
    requested support ratio."""


# --- extension module ---

class SupportLeak(EngineError):
    """Cutoff support escapes the slab over the cell's parameter domain
    even at the smallest tried ratio."""


class StratificationInvalid(InputError):
    """The scene's stratification is unsound; ``problems`` lists what
    ``Scene.validate`` found (empty when raised elsewhere)."""

    def __init__(self, message: str, problems=()):
        super().__init__(message)
        self.problems = list(problems)


class SequenceLeavesCone(EngineError):
    pass


# --- verify module ---

class DegenerateScales(InputError):
    pass


class StencilOutOfDomain(EngineError):
    pass


# --- scene files ---

class SceneFormatError(InputError):
    """Scene file failed schema validation; message carries a JSON path."""
