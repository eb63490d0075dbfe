"""Hardware cost (area) model — paper Equation 2.

The RSP exploration estimates the area of a candidate design from
pre-synthesised components:

.. math::

    HW_{cost} = n \\cdot m \\cdot (Sh\\_PE_{area} + Reg_{area} + SW_{area})
              + Sh\\_Res_{area} \\cdot (n \\cdot shr + m \\cdot shc)
              < n \\cdot m \\cdot PE_{area}

where ``n``/``m`` are the numbers of rows/columns, ``Sh_PE`` is a PE
without the shared resource, ``Reg`` the pipeline/operand registers added
for RSP, ``SW`` the per-PE bus switch, ``Sh_Res`` the shared resource and
``shr``/``shc`` the numbers of shared resources per row/column.  The base
architecture corresponds to the right-hand side: ``n * m * PE_area``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch.components import (
    ComponentLibrary,
    default_component_library,
)
from repro.arch.template import ArchitectureSpec
from repro.errors import CostModelError


@dataclass(frozen=True)
class AreaBreakdown:
    """Per-category area of one architecture design point (slices)."""

    architecture: str
    pe_area: float
    switch_area_per_pe: float
    register_area_per_pe: float
    shared_resource_area: float
    pe_total: float
    switch_total: float
    register_total: float
    shared_total: float
    array_total: float


class HardwareCostModel:
    """Area estimator implementing paper Eq. 2.

    Parameters
    ----------
    library:
        Pre-synthesised component library; defaults to the paper-calibrated
        library of :func:`repro.arch.components.default_component_library`.
    """

    def __init__(self, library: Optional[ComponentLibrary] = None) -> None:
        self.library = library or default_component_library()

    # ------------------------------------------------------------------
    # Per-component areas
    # ------------------------------------------------------------------
    def full_pe_area(self) -> float:
        """Area of a base PE that contains its own critical resource.

        Computed as the sum of the PE's components (multiplexer + ALU +
        multiplier + shifter + output register/glue); with the default
        library this reproduces the 910 slices of paper Table 1.
        """
        return (
            self.library.multiplexer.area_slices
            + self.library.alu.area_slices
            + self.library.multiplier.area_slices
            + self.library.shifter.area_slices
            + self.library.get("output_register").area_slices
        )

    def shared_pe_area(self, spec: ArchitectureSpec) -> float:
        """Area of a PE whose critical resource has been extracted (``Sh_PE``)."""
        shared = self.library.get(spec.shared_resource)
        return self.full_pe_area() - shared.area_slices

    def register_area_per_pe(self, spec: ArchitectureSpec) -> float:
        """``Reg_area`` of Eq. 2: operand/pipeline registers added for RSP."""
        if not spec.uses_pipelining:
            return 0.0
        return self.library.pipeline_register.area_slices * spec.pipelining.registers_inserted

    def switch_area_per_pe(self, spec: ArchitectureSpec) -> float:
        """``SW_area`` of Eq. 2: the per-PE bus switch."""
        ports = spec.switch_ports_per_pe
        if ports == 0:
            return 0.0
        return self.library.bus_switch(ports).area_slices

    def shared_resource_area(self, spec: ArchitectureSpec) -> float:
        """Area of one shared resource instance, including pipeline registers."""
        area = self.library.get(spec.shared_resource).area_slices
        if spec.uses_pipelining:
            area += (
                self.library.pipeline_register.area_slices
                * spec.pipelining.registers_inserted
            )
        return area

    # ------------------------------------------------------------------
    # Whole-array area (Eq. 2)
    # ------------------------------------------------------------------
    def pe_area(self, spec: ArchitectureSpec) -> float:
        """Area of one PE of the given design (without the bus switch)."""
        if spec.uses_sharing:
            return self.shared_pe_area(spec) + self.register_area_per_pe(spec)
        return self.full_pe_area() + self.register_area_per_pe(spec)

    def array_area(self, spec: ArchitectureSpec) -> float:
        """Total array area in slices for ``spec`` (paper Eq. 2)."""
        breakdown = self.breakdown(spec)
        return breakdown.array_total

    def breakdown(self, spec: ArchitectureSpec) -> AreaBreakdown:
        """Detailed per-category area for ``spec``."""
        rows, cols = spec.array.rows, spec.array.cols
        num_pes = rows * cols
        if spec.uses_sharing:
            pe_area = self.shared_pe_area(spec)
        else:
            pe_area = self.full_pe_area()
        register_per_pe = self.register_area_per_pe(spec)
        switch_per_pe = self.switch_area_per_pe(spec)
        shared_unit_area = self.shared_resource_area(spec) if spec.uses_sharing else 0.0
        shared_units = spec.total_shared_units

        pe_total = num_pes * pe_area
        register_total = num_pes * register_per_pe
        switch_total = num_pes * switch_per_pe
        shared_total = shared_units * shared_unit_area
        array_total = pe_total + register_total + switch_total + shared_total
        return AreaBreakdown(
            architecture=spec.name,
            pe_area=pe_area,
            switch_area_per_pe=switch_per_pe,
            register_area_per_pe=register_per_pe,
            shared_resource_area=shared_unit_area,
            pe_total=pe_total,
            switch_total=switch_total,
            register_total=register_total,
            shared_total=shared_total,
            array_total=array_total,
        )

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def area_reduction_percent(self, spec: ArchitectureSpec,
                               base: Optional[ArchitectureSpec] = None) -> float:
        """Area reduction of ``spec`` relative to ``base`` in percent.

        ``base`` defaults to the same array dimensions without sharing or
        pipelining (the paper's "Base" column).  Positive values mean the
        design is smaller than the base.
        """
        base_spec = base or _implicit_base(spec)
        base_area = self.array_area(base_spec)
        if base_area <= 0:
            raise CostModelError("base architecture area must be positive")
        return 100.0 * (base_area - self.array_area(spec)) / base_area

    def satisfies_cost_constraint(self, spec: ArchitectureSpec,
                                  base: Optional[ArchitectureSpec] = None) -> bool:
        """Paper Eq. 2 constraint: the RSP design must be smaller than the base."""
        base_spec = base or _implicit_base(spec)
        return self.array_area(spec) < self.array_area(base_spec)


def _implicit_base(spec: ArchitectureSpec) -> ArchitectureSpec:
    """The base design with the same array dimensions as ``spec``."""
    from repro.arch.template import base_architecture

    return base_architecture(spec.array.rows, spec.array.cols)
