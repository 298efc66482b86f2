"""Memory system model: SRAM, SDRAM and on-chip scratch.

All spaces are word-addressed (32-bit words).  SDRAM transfers move an
even number of words starting at an even word address (the paper's 8-byte
alignment restriction, Section 1.1); SRAM/scratch transfers are 4-byte
(one word) aligned by construction.

Latencies approximate the IXP1200 (in micro-engine cycles).  Each space
services one outstanding aggregate transfer at a time, so threads
hammering one space contend — the effect the paper mentions for the AES
tables living in SRAM ("all tables reside in SRAM memory, resulting in
contention").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulatorError

#: Issue-to-data latencies per space, in cycles.
LATENCY = {"scratch": 12, "sram": 16, "sdram": 24, "rfifo": 10, "tfifo": 10}

#: Additional cycles per word transferred beyond the first.
PER_WORD = {"scratch": 1, "sram": 1, "sdram": 1, "rfifo": 1, "tfifo": 1}

#: Cycles the unit's request pipeline is occupied per transfer (the
#: units accept a new request every few cycles even though each takes
#: LATENCY cycles to complete — requests from different threads overlap).
OCCUPANCY = {"scratch": 2, "sram": 2, "sdram": 4, "rfifo": 2, "tfifo": 2}

#: Default sizes (in words).  The receive/transmit FIFOs are 16 elements
#: of 16 words (64 bytes) each, as on the IXP1200.
DEFAULT_SIZES = {
    "scratch": 1024,
    "sram": 256 * 1024,
    "sdram": 2 * 1024 * 1024,
    "rfifo": 16 * 16,
    "tfifo": 16 * 16,
}

WORD_MASK = 0xFFFFFFFF


@dataclass(slots=True)
class MemorySpace:
    """One word-addressed memory with a single service port.

    Slotted: ``busy_until``/``reads``/``words`` and the cached timing
    constants are touched once per simulated memory reference on every
    tier's hot path.
    """

    name: str
    size: int
    words: dict[int, int] = field(default_factory=dict)
    #: Cycle at which the current in-flight transfer completes.
    busy_until: int = 0
    #: Counters for reporting.
    reads: int = 0
    writes: int = 0
    #: timing constants resolved once in ``__post_init__``.
    _latency: int = field(init=False, repr=False, compare=False, default=0)
    _per_word: int = field(init=False, repr=False, compare=False, default=0)
    _occupancy: int = field(init=False, repr=False, compare=False, default=0)
    _is_sdram: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self) -> None:
        # read()/issue() run once per simulated memory reference — the
        # hottest calls shared by every simulator tier — so the per-space
        # timing constants are resolved once here instead of through
        # name-keyed dict lookups per access.
        if self.name not in LATENCY:
            raise SimulatorError(
                f"memory space '{self.name}' has no timing entry "
                f"(known: {', '.join(LATENCY)})"
            )
        self._latency = LATENCY[self.name]
        self._per_word = PER_WORD[self.name]
        self._occupancy = OCCUPANCY[self.name]
        self._is_sdram = self.name == "sdram"

    def _check(self, addr: int, count: int) -> None:
        if addr < 0 or addr + count > self.size:
            raise SimulatorError(
                f"{self.name} access out of range: addr={addr} count={count} "
                f"size={self.size}"
            )
        if self.name == "sdram":
            if addr % 2 or count % 2:
                raise SimulatorError(
                    f"sdram transfers need 8-byte alignment: addr={addr} "
                    f"count={count}"
                )

    def read(self, addr: int, count: int) -> list[int]:
        if (
            addr < 0
            or addr + count > self.size
            or (self._is_sdram and (addr % 2 or count % 2))
        ):
            self._check(addr, count)  # raises the precise error
        self.reads += 1
        words_get = self.words.get
        return [words_get(addr + i, 0) for i in range(count)]

    def write(self, addr: int, values: list[int]) -> None:
        count = len(values)
        if (
            addr < 0
            or addr + count > self.size
            or (self._is_sdram and (addr % 2 or count % 2))
        ):
            self._check(addr, count)
        self.writes += 1
        words = self.words
        for i, value in enumerate(values):
            words[addr + i] = value & WORD_MASK

    def transfer_time(self, count: int) -> int:
        return self._latency + self._per_word * max(0, count - 1)

    def issue(self, now: int, count: int) -> int:
        """Queue one transfer; returns its completion time.

        The unit is *pipelined*: it accepts a request every
        ``OCCUPANCY`` cycles (plus per-word time) while each request
        still takes the full ``LATENCY`` to return data, so requests
        from different threads overlap — contention shows up as queueing
        on the acceptance rate, not as serialized latencies.
        """
        busy = self.busy_until
        start = now if now >= busy else busy
        extra = self._per_word * (count - 1) if count > 1 else 0
        self.busy_until = start + self._occupancy + extra
        return start + self._latency + extra

    def load_words(self, addr: int, values: list[int]) -> None:
        """Back-door initialization (no cycle cost, no alignment checks)."""
        for i, value in enumerate(values):
            if addr + i >= self.size:
                raise SimulatorError(f"{self.name} preload out of range")
            self.words[addr + i] = value & WORD_MASK

    def dump_words(self, addr: int, count: int) -> list[int]:
        """Back-door inspection (no cycle cost)."""
        return [self.words.get(addr + i, 0) for i in range(count)]


@dataclass
class ScratchRing:
    """A bounded ring queue over a reserved region of one memory space.

    Models the scratch rings line cards use between the receive unit,
    worker micro-engines and the transmit unit: a circular buffer of
    single-word entries with two control words.  The region layout is

    ==========  =======================================
    ``base``      head counter (dequeues so far, mod 2^32)
    ``base+1``    tail counter (enqueues so far, mod 2^32)
    ``base+2+i``  data slot ``i`` (``0 <= i < capacity``)
    ==========  =======================================

    so ring state is part of the ordinary memory image (the stream
    goldens' memory digests cover it).  Every enqueue/dequeue is
    one single-word transfer through the backing space's service port
    (:meth:`MemorySpace.issue`), so ring traffic contends with ordinary
    scratch accesses exactly like any other reference.

    ``try_enqueue``/``try_dequeue`` never block: a full/empty ring
    returns ``None`` and the *caller* decides between dropping (tail
    drop at the receive unit) and retrying (a worker re-polling).  The
    streaming runtime (:class:`repro.ixp.net.NetRuntime`) builds and
    drives every ring; no instruction reaches one.
    """

    name: str
    space: MemorySpace
    base: int
    capacity: int
    head: int = 0
    tail: int = 0
    #: deepest occupancy ever observed (after an enqueue).
    high_water: int = 0
    enqueues: int = 0
    dequeues: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise SimulatorError(f"ring '{self.name}': capacity must be > 0")
        if self.base < 0 or self.base + 2 + self.capacity > self.space.size:
            raise SimulatorError(
                f"ring '{self.name}' region [{self.base}, "
                f"{self.base + 2 + self.capacity}) does not fit in "
                f"{self.space.name} (size {self.space.size})"
            )
        self._sync_control()

    def depth(self) -> int:
        return self.tail - self.head

    @property
    def full(self) -> bool:
        return self.depth() >= self.capacity

    @property
    def empty(self) -> bool:
        return self.depth() == 0

    def _sync_control(self) -> None:
        self.space.words[self.base] = self.head & WORD_MASK
        self.space.words[self.base + 1] = self.tail & WORD_MASK

    def try_enqueue(self, now: int, value: int) -> int | None:
        """Push ``value``; returns the transfer's completion cycle, or
        ``None`` (and no side effects, no port traffic) when full."""
        if self.full:
            return None
        slot = self.base + 2 + (self.tail % self.capacity)
        finish = self.space.issue(now, 1)
        self.space.write(slot, [value])
        self.tail += 1
        self.enqueues += 1
        self.high_water = max(self.high_water, self.depth())
        self._sync_control()
        return finish

    def try_dequeue(self, now: int) -> tuple[int, int] | None:
        """Pop the oldest entry; returns ``(value, completion cycle)``,
        or ``None`` (no side effects) when empty."""
        if self.empty:
            return None
        slot = self.base + 2 + (self.head % self.capacity)
        finish = self.space.issue(now, 1)
        [value] = self.space.read(slot, 1)
        self.head += 1
        self.dequeues += 1
        self._sync_control()
        return value, finish

    def snapshot(self) -> list[int]:
        """Current contents, oldest first (no cycle cost)."""
        return [
            self.space.words.get(
                self.base + 2 + (index % self.capacity), 0
            )
            for index in range(self.head, self.tail)
        ]


@dataclass
class MemorySystem:
    spaces: dict[str, MemorySpace]

    @staticmethod
    def create(sizes: dict[str, int] | None = None) -> "MemorySystem":
        sizes = {**DEFAULT_SIZES, **(sizes or {})}
        return MemorySystem(
            {name: MemorySpace(name, size) for name, size in sizes.items()}
        )

    def __getitem__(self, name: str) -> MemorySpace:
        try:
            return self.spaces[name]
        except KeyError:
            raise SimulatorError(f"unknown memory space '{name}'") from None

    def load_image(self, image: dict[str, list[tuple[int, list[int]]]]) -> None:
        """Preload a ``{space: [(addr, words), ...]}`` image (no cycle cost)."""
        for space, chunks in image.items():
            for addr, words in chunks:
                self[space].load_words(addr, words)
