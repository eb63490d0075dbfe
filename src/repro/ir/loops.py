"""Kernel-loop abstraction.

A :class:`Kernel` couples a loop-body generator with iteration metadata.
The RSP flow maps the *unrolled* loop (all iterations) onto the array in
loop-pipelining style, so the kernel can materialise either a single
iteration body (for inspection) or the full unrolled dataflow graph (for
mapping and simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import KernelError
from repro.ir.builder import DFGBuilder
from repro.ir.dfg import DFG, OpType

#: Signature of a loop-body generator.  It receives the builder, the
#: iteration index, and a shared state dictionary used to carry
#: loop-carried values (e.g. the running sum of an inner product) between
#: iterations, and returns nothing.
BodyGenerator = Callable[[DFGBuilder, int, Dict[str, str]], None]

#: Signature of an optional finalisation step emitted after the last
#: iteration (e.g. the final reduction of partial sums and the store of the
#: scalar result of an inner product).
FinalizeGenerator = Callable[[DFGBuilder, Dict[str, str]], None]


@dataclass
class Kernel:
    """A kernel loop to be mapped onto the reconfigurable array.

    Attributes
    ----------
    name:
        Kernel name as used in the paper's tables (e.g. ``"Hydro"``).
    body:
        Callable generating the operations of one loop iteration.
    iterations:
        Default iteration count (the number in parentheses in paper
        Tables 4/5, e.g. Hydro(32)).
    finalize:
        Optional callable generating the epilogue emitted once after the
        last iteration (reduction of partial sums, final stores).
    description:
        One-line description of the computation.
    source:
        Origin of the kernel (``"livermore"``, ``"dsp"``, ``"example"``).
    """

    name: str
    body: BodyGenerator
    iterations: int
    finalize: Optional[FinalizeGenerator] = None
    description: str = ""
    source: str = "custom"

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise KernelError(f"kernel {self.name!r} must have a positive iteration count")
        if not callable(self.body):
            raise KernelError(f"kernel {self.name!r} body must be callable")

    # ------------------------------------------------------------------
    # DFG materialisation
    # ------------------------------------------------------------------
    def build_body(self) -> DFG:
        """Materialise a single loop iteration (iteration index 0)."""
        builder = DFGBuilder(f"{self.name}_body")
        state: Dict[str, str] = {}
        builder.set_iteration(0)
        self.body(builder, 0, state)
        return builder.build()

    def build(self, iterations: Optional[int] = None) -> DFG:
        """Materialise the fully unrolled loop.

        Parameters
        ----------
        iterations:
            Number of iterations to unroll; defaults to :attr:`iterations`.
        """
        count = self.iterations if iterations is None else iterations
        if count <= 0:
            raise KernelError(f"iteration count must be positive, got {count}")
        builder = DFGBuilder(f"{self.name}_x{count}")
        state: Dict[str, str] = {}
        for index in range(count):
            builder.set_iteration(index)
            self.body(builder, index, state)
        if self.finalize is not None:
            builder.set_iteration(count - 1)
            self.finalize(builder, state)
        return builder.build()

    # ------------------------------------------------------------------
    # Characterisation (paper Table 3)
    # ------------------------------------------------------------------
    def operation_set(self) -> List[OpType]:
        """Computational operation types used by the kernel.

        A few iterations (plus the epilogue) are materialised rather than a
        single one because accumulation kernels only emit their additions
        from the second iteration onwards.
        """
        sample_iterations = min(self.iterations, 4)
        return self.build(sample_iterations).operation_set()

    def operation_set_names(self) -> List[str]:
        """Operation-set mnemonics as printed in paper Table 3."""
        return [optype.value for optype in self.operation_set()]

    def total_operations(self, iterations: Optional[int] = None) -> int:
        """Number of operations in the unrolled loop."""
        return len(self.build(iterations))

    def __repr__(self) -> str:
        return f"Kernel(name={self.name!r}, iterations={self.iterations})"


@dataclass
class KernelCharacterisation:
    """Static characterisation of a kernel, mirroring paper Table 3 rows."""

    name: str
    operation_set: List[str]
    iterations: int
    body_operations: int
    body_multiplications: int
    body_memory_operations: int
    max_multiplications_per_cycle: Optional[int] = None

    @classmethod
    def from_kernel(
        cls, kernel: Kernel, max_multiplications_per_cycle: Optional[int] = None
    ) -> "KernelCharacterisation":
        body = kernel.build_body()
        return cls(
            name=kernel.name,
            operation_set=kernel.operation_set_names(),
            iterations=kernel.iterations,
            body_operations=len(body),
            body_multiplications=body.multiplication_count(),
            body_memory_operations=body.memory_operation_count(),
            max_multiplications_per_cycle=max_multiplications_per_cycle,
        )
