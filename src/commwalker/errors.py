"""Exception types shared across the package, and the one reader of
integer parameters, which raises ConfigInvalidError.

The two branches matter for the CLI: InputError maps to exit status 1
(bad data), ConfigError to exit status 2 (bad parameters).
"""

import operator


class CommWalkerError(Exception):
    """Base class for every error raised by this package."""


class InputError(CommWalkerError):
    """Problem in user-supplied data (graph files, label files, results)."""


class ConfigError(CommWalkerError):
    """Problem in run parameters."""


class MalformedLineError(InputError):
    """A text input line does not have the expected token structure."""


class SelfLoopError(InputError):
    """An edge joins a node to itself."""


class DuplicateEdgeError(InputError):
    """The same undirected edge appears more than once in an edge list."""


class EmptyGraphError(InputError):
    """The input describes a graph with no edges."""


class GmlParseError(InputError):
    """The GML input is structurally broken (brackets, missing keys)."""


class DanglingEdgeError(InputError):
    """A GML edge references a node id that was never declared."""


class UnknownNodeError(InputError):
    """A label file names a node the graph does not have, or misses one."""


class NoEdgesError(InputError):
    """An operation that needs at least one edge got an edgeless graph."""


class SizeMismatchError(InputError):
    """Two partitions being compared cover differently sized node sets."""


class PartitionMismatchError(CommWalkerError):
    """A partition is sized for a different graph."""


class ConfigInvalidError(ConfigError):
    """A parameter value violates its documented constraints."""


def _integer(name: str, value: object) -> int:
    """value read through operator.index; a value that is no integer
    raises ConfigInvalidError naming the parameter."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigInvalidError(f"{name} must be an integer, got {value!r}") from None
