"""The loop accelerator machine: functional + cycle-level execution.

Executes a translated loop (a :class:`KernelImage`) against a
:class:`~repro.cpu.memory.Memory`:

* **Functionally** — iteration by iteration with full predication
  semantics, producing bit-identical results to the scalar interpreter
  (the software-pipelined overlap cannot change values because the
  schedule provably respects every dependence; ``validate_schedule``
  guarantees that, and the equivalence tests check it end to end).
* **Cycle-level timing** — iteration *k* of the kernel launches at
  ``k * II``; the loop completes when the last iteration's last result
  retires, so ``kernel = (N - 1) * II + span``.  Invocation pays the
  memory-mapped register-file initialisation and two system-bus
  synchronisations (Section 3: "include synchronization overheads from
  copying results to and from the accelerator over a 10 cycle system
  bus").
* **Structural checks** — every address the datapath would compute is
  cross-checked against the programmed address generators, and load
  data flows through per-stream FIFOs whose occupancy is tracked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.accelerator.addrgen import (
    ResolvedStream,
    distribute_streams,
    resolve_pattern,
)
from repro.accelerator.config import LAConfig
from repro.accelerator.fifo import StreamFIFO
from repro.accelerator.regfile import RegisterFile
from repro.analysis.partition import LoopPartition
from repro.analysis.streams import StreamAnalysis
from repro.cpu.interpreter import Interpreter
from repro.cpu.memory import Memory, Value
from repro.ir.dfg import DataflowGraph
from repro.ir.loop import Loop
from repro.ir.opcodes import Opcode
from repro.ir.ops import Reg
from repro.scheduler.regalloc import RegisterAssignment
from repro.scheduler.rotation import PhysicalAssignment
from repro.scheduler.schedule import ModuloSchedule


# Re-exported from the structured failure taxonomy; historically this
# class was defined here and importers still reach it via this module.
from repro.errors import AcceleratorFault  # noqa: E402  (re-export)


@dataclass
class KernelImage:
    """Everything the VM installs into the code cache for one loop.

    Attributes:
        loop: The CCA-mapped loop body (compound ops included).
        dfg: Dataflow graph of that body.
        partition: control/address/compute classification.
        schedule: The modulo schedule of the compute partition.
        streams: Stream analysis (patterns per memory opid).
        registers: Operand mapping into the LA register files.
        config: The accelerator this image was compiled for.
        rotation: Physical placement of cross-stage values (modulo
            variable expansion); None for hand-built images.
        digest: The transcache content digest this image was cached
            under; the specialization tier (:mod:`repro.accelerator.jit`)
            keys its compiled-function cache on it so service workers
            and ``run_loop`` cache hints reuse one compilation.  None
            for hand-built or uncached images (the jit derives a
            content key itself).
    """

    loop: Loop
    dfg: DataflowGraph
    partition: LoopPartition
    schedule: ModuloSchedule
    streams: StreamAnalysis
    registers: RegisterAssignment
    config: LAConfig
    rotation: Optional[PhysicalAssignment] = None
    digest: Optional[str] = None

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def stage_count(self) -> int:
        return self.schedule.stage_count

    def control_words(self) -> int:
        """Size of the LA control image, in 32-bit words.

        Each FU needs one instruction slot per kernel cycle (Section
        3.1: maximum supported II determines the size of the control
        structure), plus per-stream configuration.
        """
        fu_count = (self.config.num_int_units + self.config.num_fp_units
                    + self.config.num_ccas)
        stream_count = (self.streams.num_load_streams
                        + self.streams.num_store_streams)
        return self.ii * fu_count + 3 * stream_count


@dataclass
class AcceleratorRun:
    """Result of one accelerator invocation."""

    iterations: int
    kernel_cycles: int
    overhead_cycles: int
    live_outs: dict[Reg, Value]
    fifo_max_occupancy: dict[int, int] = field(default_factory=dict)
    addresses_checked: int = 0

    @property
    def total_cycles(self) -> int:
        return self.kernel_cycles + self.overhead_cycles


class LoopAccelerator:
    """A loop accelerator instance attached to the system bus."""

    def __init__(self, config: LAConfig) -> None:
        self.config = config
        self.int_regs = RegisterFile("int", config.num_int_regs)
        self.fp_regs = RegisterFile("fp", config.num_fp_regs)
        self.invocations = 0

    # -- admission ------------------------------------------------------------

    def admits(self, image: KernelImage) -> Optional[str]:
        """Why this accelerator cannot run *image*, or None if it can."""
        if image.ii > self.config.max_ii:
            return (f"II {image.ii} exceeds maximum supported II "
                    f"{self.config.max_ii}")
        if image.streams.num_load_streams > self.config.load_streams:
            return (f"{image.streams.num_load_streams} load streams exceed "
                    f"the {self.config.load_streams} supported")
        if image.streams.num_store_streams > self.config.store_streams:
            return (f"{image.streams.num_store_streams} store streams exceed "
                    f"the {self.config.store_streams} supported")
        if image.registers.int_regs > self.config.num_int_regs:
            return "integer register demand exceeds the register file"
        if image.registers.fp_regs > self.config.num_fp_regs:
            return "floating-point register demand exceeds the register file"
        return None

    # -- timing-only estimation ---------------------------------------------

    def estimate(self, image: KernelImage,
                 trip_count: Optional[int] = None) -> AcceleratorRun:
        """Cycle estimate without functional execution.

        Design-space sweeps translate thousands of (loop, config) pairs;
        the kernel timing is fully determined by the schedule, so the
        functional pass (which exists to prove correctness) can be
        skipped.  Produces the same cycle counts `invoke` reports.
        """
        reason = self.admits(image)
        if reason is not None:
            raise AcceleratorFault(reason)
        loop = image.loop
        trips = loop.trip_count if trip_count is None else trip_count
        live_ins = set(loop.live_ins)
        scalar_ins = sum(1 for reg in image.registers.mapping
                         if reg in live_ins)
        kernel = image.schedule.kernel_cycles(trips, image.dfg)
        overhead = (2 * self.config.bus_latency + scalar_ins
                    + len(loop.live_outs))
        return AcceleratorRun(iterations=trips, kernel_cycles=kernel,
                              overhead_cycles=overhead, live_outs={})

    # -- invocation ------------------------------------------------------------

    def invoke(self, image: KernelImage, memory: Memory,
               live_in_values: Mapping[Reg, Value],
               trip_count: Optional[int] = None) -> AcceleratorRun:
        """Run *image* for *trip_count* iterations.

        The invocation is atomic (Section 2.1): exceptions either wait
        or abort, so there is no mid-loop architectural state to model.
        """
        reason = self.admits(image)
        if reason is not None:
            raise AcceleratorFault(reason)
        self.invocations += 1
        loop = image.loop
        trips = loop.trip_count if trip_count is None else trip_count

        # Memory-mapped register file initialisation.
        int_writes = 0
        fp_writes = 0
        for reg, phys in image.registers.mapping.items():
            if reg in live_in_values:
                if reg.space == "fp":
                    self.fp_regs.write(min(phys, self.config.num_fp_regs - 1),
                                       live_in_values[reg])
                    fp_writes += 1
                else:
                    self.int_regs.write(min(phys, self.config.num_int_regs - 1),
                                        live_in_values[reg])
                    int_writes += 1

        # Program the address generators.
        load_streams: list[ResolvedStream] = []
        store_streams: list[ResolvedStream] = []
        pattern_stream_id: dict[int, int] = {}
        seen: dict[tuple, int] = {}
        for op in loop.body:
            if not op.is_memory:
                continue
            pattern = image.streams.patterns.get(op.opid)
            if pattern is None:
                raise AcceleratorFault(
                    f"op{op.opid}: no stream pattern — loop should have "
                    f"been rejected")
            key = pattern.key()
            if key not in seen:
                stream_id = len(seen)
                seen[key] = stream_id
                resolved = resolve_pattern(pattern, stream_id, live_in_values)
                (store_streams if pattern.is_store else load_streams).append(
                    resolved)
            pattern_stream_id[op.opid] = seen[key]
        resolved_by_id = {s.stream_id: s
                          for s in load_streams + store_streams}
        load_gens = distribute_streams(load_streams,
                                       self.config.load_addr_gens)
        fifos = {s.stream_id: StreamFIFO(s.stream_id)
                 for s in load_streams}

        # Functional execution with address cross-checking.
        interp = Interpreter(memory)
        regs: dict[Reg, Value] = dict(live_in_values)
        addresses_checked = 0
        iterations = 0
        for k in range(trips):
            iterations += 1
            taken = False
            for op in loop.body:
                if op.opcode is Opcode.BR:
                    taken = bool(interp._value(regs, op.srcs[0]))
                    break
                if op.is_memory:
                    stream = resolved_by_id[pattern_stream_id[op.opid]]
                    expected = stream.address(k)
                    actual = int(interp._value(regs, op.srcs[0]))
                    if len(op.srcs) > 1:
                        actual += int(interp._value(regs, op.srcs[1]))
                    if actual != expected:
                        raise AcceleratorFault(
                            f"op{op.opid} iteration {k}: datapath address "
                            f"{actual} != address generator {expected}")
                    addresses_checked += 1
                    if op.is_load:
                        fifo = fifos[stream.stream_id]
                        if fifo.full:
                            fifo.pop()  # oldest element was consumed
                        fifo.push(memory.peek(expected))
                interp.execute_op(op, regs)
            if not taken:
                break

        live_outs = {r: regs[r] for r in loop.live_outs if r in regs}

        kernel = image.schedule.kernel_cycles(iterations, image.dfg)
        overhead = (2 * self.config.bus_latency
                    + int_writes + fp_writes + len(loop.live_outs))
        return AcceleratorRun(
            iterations=iterations,
            kernel_cycles=kernel,
            overhead_cycles=overhead,
            live_outs=live_outs,
            fifo_max_occupancy={sid: f.max_occupancy
                                for sid, f in fifos.items()},
            addresses_checked=addresses_checked,
        )
