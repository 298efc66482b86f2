"""KASUMI-structured cipher reference — after 3GPP TS 35.202.

KASUMI is the 64-bit Feistel cipher of the 3GPP confidentiality (f8) and
integrity (f9) algorithms: 8 rounds; odd rounds apply FL then FO, even
rounds FO then FL; FO is a 3-round ladder of the FI function, which
mixes through two S-boxes, S9 (512 entries) and S7 (128 entries).

**Substitution note** (see DESIGN.md): the authoritative S7/S9 tables
live in the 3GPP specification, which is not available in this offline
environment.  We use deterministic synthetic permutations of the same
sizes instead.  Every structural property the compiler and the
throughput benchmarks exercise — the Feistel ladder, the FI/FO/FL
dataflow, table sizes, their placement in scratch vs SRAM, the packed
per-round subkey fetch — is preserved; only the table *contents* differ,
so this module and the Nova program remain bit-exact mirrors of each
other (which is what the tests verify).
"""

from __future__ import annotations

MASK16 = 0xFFFF
MASK32 = 0xFFFFFFFF


def _synthetic_permutation(size: int, seed: int) -> list[int]:
    """Deterministic Fisher-Yates permutation of range(size)."""
    state = seed & MASK32
    values = list(range(size))

    def next_state() -> int:
        nonlocal state
        # Numerical Recipes LCG; fixed here so tables never change.
        state = (1664525 * state + 1013904223) & MASK32
        return state

    for i in range(size - 1, 0, -1):
        j = next_state() % (i + 1)
        values[i], values[j] = values[j], values[i]
    return values


#: 7-bit S-box (stand-in for TS 35.202 S7; stored in scratch on the IXP).
S7 = _synthetic_permutation(128, seed=0x5353_0007)

#: 9-bit S-box (stand-in for TS 35.202 S9; stored in SRAM on the IXP).
S9 = _synthetic_permutation(512, seed=0x5353_0009)

#: Key-schedule constants C1..C8 (these are from the spec; they are
#: simple nibble patterns and widely reproduced).
_KASUMI_C = [0x0123, 0x4567, 0x89AB, 0xCDEF, 0xFEDC, 0xBA98, 0x7654, 0x3210]


def _rol16(value: int, count: int) -> int:
    return ((value << count) | (value >> (16 - count))) & MASK16


def fi(data: int, key: int) -> int:
    """The FI function: two S9/S7 mixing layers with key injection."""
    nine = (data >> 7) & 0x1FF
    seven = data & 0x7F
    nine = S9[nine] ^ seven
    seven = S7[seven] ^ (nine & 0x7F)
    seven ^= (key >> 9) & 0x7F
    nine ^= key & 0x1FF
    nine = S9[nine] ^ seven
    seven = S7[seven] ^ (nine & 0x7F)
    return ((seven << 9) | nine) & MASK16


def fo(data: int, ko: tuple[int, int, int], ki: tuple[int, int, int]) -> int:
    """The FO function: three FI rounds over 16-bit halves."""
    left = (data >> 16) & MASK16
    right = data & MASK16
    for j in range(3):
        temp = fi(left ^ ko[j], ki[j]) ^ right
        left = right
        right = temp
    return ((left << 16) | right) & MASK32


def fl(data: int, kl: tuple[int, int]) -> int:
    """The FL function: one-bit rotations gated by the subkeys."""
    left = (data >> 16) & MASK16
    right = data & MASK16
    right ^= _rol16(left & kl[0], 1)
    left ^= _rol16(right | kl[1], 1)
    return ((left << 16) | right) & MASK32


def kasumi_subkeys(key: bytes) -> list[dict[str, tuple[int, ...]]]:
    """Per-round subkeys KL/KO/KI (statically computed, as in the paper)."""
    if len(key) != 16:
        raise ValueError("KASUMI needs a 16-byte key")
    k = [int.from_bytes(key[2 * i : 2 * i + 2], "big") for i in range(8)]
    kp = [k[i] ^ _KASUMI_C[i] for i in range(8)]
    rounds = []
    for i in range(8):
        rounds.append(
            {
                "KL": (_rol16(k[i], 1), kp[(i + 2) % 8]),
                "KO": (
                    _rol16(k[(i + 1) % 8], 5),
                    _rol16(k[(i + 5) % 8], 8),
                    _rol16(k[(i + 6) % 8], 13),
                ),
                "KI": (kp[(i + 4) % 8], kp[(i + 3) % 8], kp[(i + 7) % 8]),
            }
        )
    return rounds


def kasumi_encrypt_words(left: int, right: int, key: bytes) -> tuple[int, int]:
    """Encrypt one 64-bit block given as two 32-bit words."""
    return _encrypt_words(left, right, kasumi_subkeys(key))


def _encrypt_words(
    left: int, right: int, subkeys: list[dict[str, tuple[int, ...]]]
) -> tuple[int, int]:
    for i, sub in enumerate(subkeys):
        if i % 2 == 0:
            temp = fo(fl(left, sub["KL"]), sub["KO"], sub["KI"])
        else:
            temp = fl(fo(left, sub["KO"], sub["KI"]), sub["KL"])
        left, right = right ^ temp, left
    return right, left  # undo the final swap


def kasumi_encrypt_block(block: bytes, key: bytes) -> bytes:
    if len(block) != 8:
        raise ValueError("KASUMI block must be 8 bytes")
    left = int.from_bytes(block[:4], "big")
    right = int.from_bytes(block[4:], "big")
    out_l, out_r = kasumi_encrypt_words(left, right, key)
    return out_l.to_bytes(4, "big") + out_r.to_bytes(4, "big")


def kasumi_encrypt_payload(payload: bytes, key: bytes) -> bytes:
    """ECB over a multiple-of-8 payload."""
    if len(payload) % 8:
        raise ValueError("payload must be a multiple of 8 bytes")
    subkeys = kasumi_subkeys(key)
    out = bytearray()
    for i in range(0, len(payload), 8):
        left, right = _encrypt_words(
            int.from_bytes(payload[i : i + 4], "big"),
            int.from_bytes(payload[i + 4 : i + 8], "big"),
            subkeys,
        )
        out.extend(left.to_bytes(4, "big") + right.to_bytes(4, "big"))
    return bytes(out)


def packed_subkey_words(key: bytes) -> list[int]:
    """Per-round subkeys packed two-per-word: 4 words × 8 rounds.

    Layout per round: [KL1|KL2, KO1|KO2, KO3|KI1, KI2|KI3] — the Nova
    program fetches each round's subkeys with one scratch read (paper:
    "each iteration performs one scratch read to access all the subkey
    elements").
    """
    words = []
    for sub in kasumi_subkeys(key):
        kl1, kl2 = sub["KL"]
        ko1, ko2, ko3 = sub["KO"]
        ki1, ki2, ki3 = sub["KI"]
        words.extend(
            [
                (kl1 << 16) | kl2,
                (ko1 << 16) | ko2,
                (ko3 << 16) | ki1,
                (ki2 << 16) | ki3,
            ]
        )
    return words
