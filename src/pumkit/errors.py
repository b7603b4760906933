"""Exception types shared across the toolkit, and the base of the
records that raise them when built."""


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


class Validated:
    """First base of a NamedTuple subclass whose `__new__` validates.

    A NamedTuple's `_replace` builds through `_make`, which skips
    `__new__`; here `_make` calls the class, so `_replace` re-validates.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
