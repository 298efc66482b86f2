"""Register banks and datapaths of the IXP1200 micro-engine (paper Fig 1).

Per thread context there are:

- ``A`` and ``B`` — general purpose banks (16 registers each),
- ``L`` — SRAM/scratch *read* transfer registers (8),
- ``S`` — SRAM/scratch *write* transfer registers (8),
- ``LD`` — SDRAM read transfer registers (8),
- ``SD`` — SDRAM write transfer registers (8),
- ``M`` — on-chip scratch memory, modeled as a bank of unlimited
  capacity; moving a value to/from M is a spill/reload through S/L.

Datapath restrictions (Section 1):

- ALU inputs come from L, LD, A or B, but each of A, B, and {L, LD} can
  supply at most one operand (and not both operands from transfer banks).
- ALU results go to A, B, S or SD.
- There is no direct path between registers of the same transfer bank,
  and values in S/SD can only get anywhere else by going through memory.
"""

from __future__ import annotations

import enum


class Bank(enum.Enum):
    A = "A"
    B = "B"
    L = "L"  # SRAM/scratch read transfer
    S = "S"  # SRAM/scratch write transfer
    LD = "LD"  # SDRAM read transfer
    SD = "SD"  # SDRAM write transfer
    M = "M"  # scratch memory (spill space)
    C = "C"  # virtual constant bank (rematerialization extension, §12)

    def __str__(self) -> str:
        return self.value

    # Enum's default __hash__ is a Python-level function; register-file
    # dict keys are ``(Bank, index)`` tuples hashed on every simulated
    # register access, which makes it one of the hottest calls in a
    # physical-mode run.  Members are singletons and enum equality is
    # identity, so the C-level identity hash is semantically identical.
    __hash__ = object.__hash__


#: Transfer banks (paper: XBank).
XFER_BANKS = (Bank.L, Bank.LD, Bank.S, Bank.SD)

#: General banks participating in the ILP model (paper: GBank = {A, B, M}).
GP_BANKS = (Bank.A, Bank.B, Bank.M)

#: Banks a temporary can physically live in (no C unless remat is on).
REAL_BANKS = (Bank.A, Bank.B, Bank.M, *XFER_BANKS)

#: Number of registers per bank per thread context.  The ILP leaves one
#: spare register in A for breaking parallel-copy cycles during
#: optimistic coalescing (paper Section 6), hence the K constraint uses
#: 15 for A; the *physical* size is 16.
BANK_SIZES = {
    Bank.A: 16,
    Bank.B: 16,
    Bank.L: 8,
    Bank.S: 8,
    Bank.LD: 8,
    Bank.SD: 8,
}

#: K-constraint capacities used by the ILP model.
K_CAPACITY = {Bank.A: 15, Bank.B: 16}

#: Number of transfer registers (XRegs := 0..7).
XFER_SIZE = 8

#: Banks that may feed an ALU operand.
ALU_INPUT_BANKS = frozenset({Bank.A, Bank.B, Bank.L, Bank.LD})

#: Banks that may receive an ALU result.
ALU_OUTPUT_BANKS = frozenset({Bank.A, Bank.B, Bank.S, Bank.SD})

#: Destination bank of aggregate reads per memory space.  The receive
#: FIFO drains through the SRAM-side read transfer registers.
READ_BANK = {"sram": Bank.L, "scratch": Bank.L, "sdram": Bank.LD, "rfifo": Bank.L}

#: Source bank of aggregate writes per memory space; the transmit FIFO
#: fills from the SRAM-side write transfer registers.
WRITE_BANK = {"sram": Bank.S, "scratch": Bank.S, "sdram": Bank.SD, "tfifo": Bank.S}
