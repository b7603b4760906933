"""Exception types shared across the toolkit, and `Frozen`, the one base
of the immutable records that raise them when built."""


class PumError(Exception):
    """Base class for all toolkit errors."""


class ArityError(PumError, ValueError):
    """Input/output counts do not match what the structure expects."""


class TableSizeError(PumError, ValueError):
    """Exhaustive enumeration refused: too many inputs."""


class NetlistFormatError(PumError, ValueError):
    """Malformed netlist text."""


class MicroProgramError(PumError, ValueError):
    """Malformed or invalid row-activation program."""


class CapacityError(PumError, ValueError):
    """A resource (data rows, columns, spill region) is exhausted."""


class RowSafetyError(PumError, ValueError):
    """A command attempted to write a protected (constant) row."""


class ExecutionError(PumError, RuntimeError):
    """A program aborted mid-run; the message carries the failing line."""


class MetricsError(PumError, ValueError):
    """Malformed profiling-metrics input."""


class MetricsRangeError(MetricsError):
    """Well-formed but out-of-range or inconsistent metric values."""


class ConfigError(PumError, ValueError):
    """Bad configuration file or key."""


class Frozen:
    """Base of an immutable record, driven by `_fields` (a NamedTuple's
    own, or ``_fields = __slots__``): it refuses assignment and deletion,
    sets slots once through `_init(*values)`, pickles through the
    constructor and prints ``Name(field=value, ...)``.  Equality is the
    class's own; a slots class's is identity unless it defines one."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Validated(Frozen):
    """`Frozen` as the first base of a NamedTuple subclass whose `__new__`
    validates.  A NamedTuple's `_replace` builds through `_make`, which
    skips `__new__`; here `_make` calls the class, so `_replace`
    re-validates."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
