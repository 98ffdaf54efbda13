"""Exception hierarchy and record base shared by all engine modules.

Input problems (bad scene data, malformed expressions) derive from
``InputError``; numerical/structural failures discovered while running
derive from ``EngineError``.  The CLI maps these to exit codes 2 and 3.
:class:`Record` is the immutable value type every module's data classes
derive from.
"""


class Record:
    """An immutable record whose fields are its class annotations, in
    order, each with an optional class-level default.

    A subclass's fields are read once, when it is created, and one generic
    implementation serves them all (no code is generated):
    - ``__init__`` takes the fields by position or keyword and fills in
      the defaults; a list default is copied per instance.  A missing,
      unknown or repeated argument raises ``TypeError``.  ``__post_init__``
      then runs, to check the values.
    - Assigning to or deleting an attribute raises ``AttributeError``.
    - Two records are equal when they are of one class and their fields
      are equal, and the hash is that of the field tuple, so records key
      caches by value.  A class holding arrays sets ``__eq__`` and
      ``__hash__`` back to ``object``'s, for identity.
    - The repr is ``Name(field=value, ...)``, without the fields named in
      ``_repr_skip``.
    """

    _fields: tuple = ()
    _defaults: dict = {}
    _repr_skip: tuple = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields
                         if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        fields, defaults = self._fields, self._defaults
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} "
                            f"fields, got {len(args)} positional arguments")
        values = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in defaults:
                value = defaults[name]
                values[name] = value.copy() if type(value) is list else value
            else:
                raise TypeError(
                    f"{type(self).__name__} missing field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unknown or repeated "
                            f"fields {sorted(kwargs)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    # an instance's ``__dict__`` holds its fields, in order, and nothing else

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in self.__dict__.items()
                          if name not in self._repr_skip)
        return f"{type(self).__qualname__}({shown})"


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
