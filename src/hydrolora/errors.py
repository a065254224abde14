"""Exception types shared across the toolkit.

Every error raised by the library derives from :class:`HydroLoraError`, so
callers (and the CLI) can report a single machine-parsable category: the
exception class name.
"""


class HydroLoraError(Exception):
    """Base class for all toolkit errors."""


# INP tokenizing / network building


class UndecodableText(HydroLoraError):
    """Input bytes are not valid UTF-8 text."""


class RowOutsideSection(HydroLoraError):
    """Data row encountered before the first section header."""


class MissingSection(HydroLoraError):
    """A section required to build a network is absent."""


class MalformedRow(HydroLoraError):
    """A row inside a known section cannot be interpreted."""

    def __init__(self, section: str, line: int, reason: str):
        super().__init__(f"[{section}] line {line}: {reason}")
        self.section = section
        self.line = line
        self.reason = reason


class DuplicateId(HydroLoraError):
    """Node or link identifier defined twice."""


class DanglingEndpoint(HydroLoraError):
    """A link references a node that does not exist."""

    def __init__(self, link_id: str, node_id: str):
        super().__init__(f"link {link_id!r} references missing node {node_id!r}")
        self.link_id = link_id
        self.node_id = node_id


class MissingCoordinates(HydroLoraError):
    """A node has no coordinate entry."""

    def __init__(self, node_id: str):
        super().__init__(f"node {node_id!r} has no coordinate entry")
        self.node_id = node_id


class SelfLoop(HydroLoraError):
    """A link connects a node to itself."""

    def __init__(self, link_id: str):
        super().__init__(f"link {link_id!r} connects a node to itself")
        self.link_id = link_id


class CoordinateOverflow(HydroLoraError):
    """Squared distances across the network's extent overflow float64."""


# Graph


class TooFewNodes(HydroLoraError):
    """Graph operations require at least two nodes."""


# Hydraulic features


class UnknownId(HydroLoraError):
    """A series references a node or link absent from the network."""


class NonMonotoneTimestamps(HydroLoraError):
    """Timestamps of a series are not strictly increasing."""


class SchemaMismatch(HydroLoraError):
    """A CSV file does not follow the declared schema."""


class NoSource(HydroLoraError):
    """The network has no reservoir or tank to route demand to."""


class NonFiniteFlow(HydroLoraError):
    """A node's flow overflowed to a non-finite value."""


# Radio / simulation


class InvalidSf(HydroLoraError):
    """Spreading factor outside the configured range."""


class NoGateways(HydroLoraError):
    """At least one gateway is required."""


class NoDevices(HydroLoraError):
    """At least one end device is required."""


# Placement


class InvalidK(HydroLoraError):
    """Gateway count must be a positive integer."""


class DegenerateBBox(HydroLoraError):
    """Bounding box has zero extent on both axes."""


class KExceedsN(HydroLoraError):
    """More gateways requested than nodes available."""


class AllZeroWeights(HydroLoraError):
    """Placement weights sum to zero."""


# Orchestration


class EmptySweep(HydroLoraError):
    """The sweep axis has no values to scan."""


class PredicateError(HydroLoraError):
    """A KPI predicate string cannot be parsed."""


class ConfigError(HydroLoraError):
    """A scenario configuration or option is invalid."""


class ScenarioError(HydroLoraError):
    """A run inside a scenario failed; message carries (K, strategy, seed)."""
