"""Exception hierarchy for the RSP reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything coming out of the package with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class DFGError(ReproError):
    """Raised when a dataflow graph is malformed or used incorrectly."""


class DFGValidationError(DFGError):
    """Raised when dataflow-graph validation fails."""


class UnknownOperationError(DFGError):
    """Raised when an operation name is not present in a dataflow graph."""


class KernelError(ReproError):
    """Raised when a kernel specification is invalid."""


class UnknownKernelError(KernelError):
    """Raised when a kernel name is not present in the registry."""


class ArchitectureError(ReproError):
    """Raised when an architecture specification is inconsistent."""


class ComponentError(ArchitectureError):
    """Raised when a hardware component is unknown or misconfigured."""


class MappingError(ReproError):
    """Raised when a kernel cannot be mapped onto an architecture."""


class SchedulingError(MappingError):
    """Raised when the scheduler cannot produce a legal schedule."""


class PlacementError(MappingError):
    """Raised when an operation cannot be placed on any processing element."""


class SimulationError(ReproError):
    """Raised when the functional simulator encounters an illegal state."""


class ConfigurationError(ReproError):
    """Raised when configuration-context generation or decoding fails."""


class ExplorationError(ReproError):
    """Raised when design-space exploration is given inconsistent inputs."""


class CostModelError(ReproError):
    """Raised when the hardware cost model receives invalid parameters."""


class TimingModelError(ReproError):
    """Raised when the timing model receives invalid parameters."""
