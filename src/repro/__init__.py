"""repro — reproduction of "Resource Sharing and Pipelining in Coarse-Grained
Reconfigurable Architecture for Domain-Specific Optimization" (Kim, Kiemb,
Park, Jung, Choi — DATE 2005).

The package is organised as:

* :mod:`repro.ir`        — kernel dataflow-graph IR and loop kernels,
* :mod:`repro.kernels`   — the paper's Livermore/DSP kernels and the matmul example,
* :mod:`repro.arch`      — the reconfigurable-array architecture template,
* :mod:`repro.core`      — resource sharing/pipelining models and design-space exploration,
* :mod:`repro.mapping`   — the loop-pipelining mapper and the RS/RP rearrangement,
* :mod:`repro.sim`       — a cycle-accurate functional simulator,
* :mod:`repro.synthesis` — the analytical synthesis surrogate and published reference data,
* :mod:`repro.eval`      — regeneration of the paper's tables and figures,
* :mod:`repro.flow`      — the end-to-end RSP design flow of paper Figure 7,
* :mod:`repro.flowgraph` — the executor of the five mapping stages,
* :mod:`repro.engine`    — batched, cache-backed exploration campaigns
  (``python -m repro.engine``).

Quick start::

    from repro.arch import rsp_architecture
    from repro.kernels import get_kernel
    from repro.mapping import RSPMapper

    mapper = RSPMapper()
    result = mapper.map_kernel(get_kernel("MVM"), rsp_architecture(2))
    print(result.cycles, result.stall_cycles)

The package root re-exports the stable public surface (``repro.RSPMapper``,
``repro.MappingPipeline``, ``repro.CampaignRunner``, …); everything in
``__all__`` resolves lazily, so ``import repro`` stays cheap and subsystem
imports only happen when their names are touched.
"""

from repro.errors import (
    ArchitectureError,
    ComponentError,
    ConfigurationError,
    CostModelError,
    DFGError,
    DFGValidationError,
    ExplorationError,
    KernelError,
    MappingError,
    PlacementError,
    ReproError,
    SchedulingError,
    SimulationError,
    TimingModelError,
    UnknownKernelError,
    UnknownOperationError,
)
from repro.flow import FlowOutcome, run_rsp_flow

__version__ = "1.0.0"

#: Lazily-resolved public surface: name -> home module.  PEP 562 keeps
#: ``import repro`` from importing every subsystem until a name is
#: actually touched, while ``from repro import RSPMapper`` and friends
#: remain the documented, stable spellings.
_PUBLIC_API = {
    # architecture + kernels
    "ArchitectureSpec": "repro.arch.template",
    "base_architecture": "repro.arch",
    "rsp_architecture": "repro.arch",
    "get_kernel": "repro.kernels",
    # mapping pipeline
    "RSPMapper": "repro.mapping.mapper",
    "MappingPipeline": "repro.mapping.pipeline",
    "MappingResult": "repro.mapping.pipeline",
    # per-stage keys and accounting
    "stage_key": "repro.flowgraph.core",
    "Artifact": "repro.flowgraph.stats",
    "PipelineStats": "repro.flowgraph.stats",
    "StageTiming": "repro.flowgraph.stats",
    "stage_timings_as_dict": "repro.flowgraph.stats",
    # engine
    "ArtifactStore": "repro.engine.artifacts",
    "CampaignRunner": "repro.engine.runner",
    "CampaignReport": "repro.engine.runner",
    "CampaignSpec": "repro.engine.jobs",
}


def __getattr__(name: str):
    module_name = _PUBLIC_API.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_PUBLIC_API))


__all__ = [
    "ArchitectureError",
    "ComponentError",
    "ConfigurationError",
    "CostModelError",
    "DFGError",
    "DFGValidationError",
    "ExplorationError",
    "KernelError",
    "MappingError",
    "PlacementError",
    "ReproError",
    "SchedulingError",
    "SimulationError",
    "TimingModelError",
    "UnknownKernelError",
    "UnknownOperationError",
    "FlowOutcome",
    "run_rsp_flow",
    "__version__",
    *sorted(_PUBLIC_API),
]
