"""Multi-threaded application driver for throughput experiments.

The paper's measurement setup feeds packets from a hardware generator to
a 233 MHz IXP1200; worker threads synchronize with the receive/transmit
schedulers and process the stream (Section 11).  Here the simulator
plays the testbed: each hardware thread processes its own packet region
in SDRAM for a fixed number of packets, and throughput is payload bits
over simulated cycles at the IXP1200 clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler import Compilation
from repro.ixp.machine import CLOCK_MHZ, Machine, RunResult
from repro.ixp.memory import MemorySystem


@dataclass
class ThroughputResult:
    run: RunResult
    payload_bytes: int
    packets: int
    threads: int

    @property
    def mbps(self) -> float:
        if self.run.cycles == 0:
            return 0.0  # zero-packet run: no time elapsed, no data moved
        seconds = self.run.cycles / (CLOCK_MHZ * 1e6)
        return self.packets * self.payload_bytes * 8 / seconds / 1e6

    @property
    def cycles_per_packet(self) -> float:
        return self.run.cycles / max(1, self.packets)


def run_physical_threads(
    comp: Compilation,
    app,
    payload_words: list[int],
    threads: int = 4,
    packets_per_thread: int = 4,
    thread_stride: int = 0x400,
    input_overrides: dict | None = None,
    sim_mode: str = "compiled",
) -> ThroughputResult:
    """Run the allocated application over a synthetic packet stream.

    Each thread owns an SDRAM region ``base + tid * thread_stride``
    preloaded with the payload; it processes ``packets_per_thread``
    packets (one per halt iteration).  ``input_overrides`` replaces
    source-level inputs (e.g. ``nblocks``) without mutating ``app``.
    ``sim_mode="interp"`` runs the reference interpreter instead of the
    generated code (the benchmark suite measures the speedup).
    """
    assert comp.alloc is not None, "needs an allocated compilation"
    memory = MemorySystem.create()
    for space, chunks in app.memory_image.items():
        for addr, words in chunks:
            if space == "sdram" and addr >= app.payload_base:
                continue  # payload is placed per-thread below
            memory[space].load_words(addr, words)

    base = app.inputs["base"]
    for tid in range(threads):
        memory["sdram"].load_words(base + tid * thread_stride, payload_words)

    locations = comp.alloc.decoded.input_locations
    name_map = comp.inputs_by_name()

    def physical_inputs(tid: int) -> dict:
        values = dict(app.inputs)
        values.update(input_overrides or {})
        values["base"] = base + tid * thread_stride
        out: dict = {}
        for source_name, value in values.items():
            for temp in name_map.get(source_name, ()):
                loc = locations.get(temp)
                if loc is None:
                    continue
                kind, where = loc
                if kind == "reg":
                    out[(where.bank, where.index)] = value
                else:
                    memory["scratch"].load_words(where, [value])
        return out

    def provider(tid: int, iteration: int):
        if iteration >= packets_per_thread:
            return None
        return physical_inputs(tid)

    machine = Machine(
        comp.physical,
        memory=memory,
        threads=threads,
        physical=True,
        input_provider=provider,
        max_cycles=200_000_000,
        mode=sim_mode,
    )
    run = machine.run()
    packets = threads * packets_per_thread
    return ThroughputResult(
        run, len(payload_words) * 4, packets, threads
    )
