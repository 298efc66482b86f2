"""Property-based tests for the memory-system model.

The port model (latency / occupancy / per-word costs) and the bounds
checks underpin every simulated cycle count, so they get properties, not
examples: any counterexample here means every benchmark number is
suspect.  Uses hypothesis (already a test dependency); each property is
bounded small enough to stay well under a second.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.errors import SimulatorError
from repro.ixp.memory import (
    LATENCY,
    OCCUPANCY,
    PER_WORD,
    MemorySpace,
    MemorySystem,
    ScratchRing,
    WORD_MASK,
)

SIZE = 256

spaces = st.sampled_from(["scratch", "sram", "sdram"])


def _space(name: str) -> MemorySpace:
    return MemorySpace(name, SIZE)


# -- bounds ----------------------------------------------------------------


@given(
    name=spaces,
    addr=st.integers(min_value=-SIZE, max_value=2 * SIZE),
    count=st.integers(min_value=0, max_value=SIZE),
)
def test_out_of_range_accesses_always_reject(name, addr, count):
    """Every (addr, count) outside [0, size) raises; everything inside
    (and aligned, for sdram) is accepted by both read and write."""
    space = _space(name)
    out_of_range = addr < 0 or addr + count > SIZE
    misaligned = name == "sdram" and (addr % 2 or count % 2)
    if out_of_range or misaligned:
        with pytest.raises(SimulatorError):
            space.read(addr, count)
        with pytest.raises(SimulatorError):
            space.write(addr, [0] * count)
    else:
        assert space.read(addr, count) == [0] * count
        space.write(addr, [1] * count)


@given(
    name=spaces,
    addr=st.integers(min_value=0, max_value=SIZE - 1),
    values=st.lists(
        st.integers(min_value=0, max_value=2**40), min_size=1, max_size=16
    ),
)
def test_read_after_write_round_trips(name, addr, values):
    """What you write (masked to 32 bits) is what you read back, and
    words outside the written range stay zero."""
    space = _space(name)
    if name == "sdram":
        addr -= addr % 2
        if len(values) % 2:
            values = values + [0]
    if addr + len(values) > SIZE:
        addr = SIZE - len(values)
    space.write(addr, values)
    assert space.read(addr, len(values)) == [v & WORD_MASK for v in values]
    if addr >= 2:
        assert space.dump_words(addr - 2, 2) == [0, 0]


@given(
    name=spaces,
    counts=st.lists(
        st.integers(min_value=1, max_value=16), min_size=2, max_size=2
    ),
)
def test_transfer_time_monotone_in_count(name, counts):
    space = _space(name)
    small, large = sorted(counts)
    assert space.transfer_time(small) <= space.transfer_time(large)
    assert space.transfer_time(small) >= LATENCY[name]


@given(
    name=spaces,
    issues=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),  # gap to next issue
            st.integers(min_value=1, max_value=8),  # words
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_back_to_back_issues_never_overlap(name, issues):
    """Completion times strictly increase and consecutive transfers are
    separated by at least the port occupancy: the port serializes its
    acceptance pipeline no matter how requests are timed."""
    space = _space(name)
    now = 0
    finishes = []
    for gap, count in issues:
        now += gap
        finish = space.issue(now, count)
        assert finish >= now + LATENCY[name]
        finishes.append((finish, count))
    for (f1, _), (f2, c2) in zip(finishes, finishes[1:]):
        assert f2 >= f1 + OCCUPANCY[name] + PER_WORD[name] * (c2 - 1)


@given(
    name=spaces,
    count=st.integers(min_value=1, max_value=8),
    now=st.integers(min_value=0, max_value=1000),
)
def test_issue_on_idle_port_completes_at_transfer_time(name, count, now):
    space = _space(name)
    assert space.issue(now, count) == now + space.transfer_time(count)


# -- rings -----------------------------------------------------------------


ring_ops = st.lists(
    st.one_of(
        st.tuples(st.just("enq"), st.integers(min_value=0, max_value=2**33)),
        st.tuples(st.just("deq"), st.just(0)),
    ),
    max_size=60,
)


@given(capacity=st.integers(min_value=1, max_value=8), ops=ring_ops)
@settings(max_examples=60)
def test_ring_is_a_bounded_fifo(capacity, ops):
    """Model check against a plain list: FIFO order, bounded depth,
    control words mirrored into the backing space, correct high-water."""
    scratch = MemorySystem.create({"scratch": 64})["scratch"]
    ring = ScratchRing("r", scratch, 0, capacity)
    model: list[int] = []
    highest = 0
    now = 0
    for kind, value in ops:
        now += 3
        if kind == "enq":
            finish = ring.try_enqueue(now, value)
            if len(model) >= capacity:
                assert finish is None, "enqueue into a full ring succeeded"
            else:
                assert finish is not None and finish > now
                model.append(value & WORD_MASK)
                highest = max(highest, len(model))
        else:
            popped = ring.try_dequeue(now)
            if not model:
                assert popped is None, "dequeue from an empty ring succeeded"
            else:
                value_out, finish = popped
                assert value_out == model.pop(0)
                assert finish > now
        assert ring.depth() == len(model)
        assert ring.snapshot() == model
        assert ring.full == (len(model) == capacity)
        assert ring.empty == (not model)
        assert scratch.words[ring.base] == ring.head & WORD_MASK
        assert scratch.words[ring.base + 1] == ring.tail & WORD_MASK
    assert ring.high_water == highest


@given(base=st.integers(min_value=-4, max_value=70),
       capacity=st.integers(min_value=-2, max_value=70))
def test_ring_regions_validated(base, capacity):
    scratch = MemorySystem.create({"scratch": 64})["scratch"]
    fits = capacity > 0 and base >= 0 and base + 2 + capacity <= 64
    if fits:
        ScratchRing("r", scratch, base, capacity)
    else:
        with pytest.raises(SimulatorError):
            ScratchRing("r", scratch, base, capacity)
