"""KASUMI in Nova (paper Section 11, second benchmark).

Implementation choices from the paper:

- the subkey expansion is statically computed, and all per-round subkeys
  are interleaved and packed so that "each iteration performs one
  scratch read to access all the subkey elements",
- all tables are stored in scratch memory except the S9 table, which is
  stored in SRAM,
- the block state (two words) stays in registers; ciphertext is written
  back over the payload.
"""

from __future__ import annotations

from repro.apps.aes_nova import AppBundle
from repro.apps.refimpl import kasumi
from repro.apps.refimpl.kasumi import packed_subkey_words

#: SRAM word address of the 512-entry S9 table.
S9_BASE = 0x2000
#: Scratch word addresses: packed subkeys (32 words), then S7 (128).
SUBKEY_BASE = 0x40
S7_BASE = 0x80

KASUMI_NOVA_SOURCE = f"""
// KASUMI: 8-round Feistel; FO = three FI rounds; FI mixes through the
// S9 (SRAM) and S7 (scratch) tables.  One scratch read per round
// fetches all packed subkeys (paper Section 11); layouts spread the
// packed 16-bit subkeys and split words into halves.

layout round_subkeys = {{
  kl1 : 16, kl2 : 16, ko1 : 16, ko2 : 16,
  ko3 : 16, ki1 : 16, ki2 : 16, ki3 : 16
}};

layout halves = {{ hi : 16, lo : 16 }};

// FI's 16-bit input splits into a 9-bit and a 7-bit part; viewed
// through a layout over the low half of the carrying word.
layout fi_parts = {{16}} ## {{ nine : 9, seven : 7 }};

fun fi (x, ki) : word {{
  let p = unpack[fi_parts](x);
  let s9a = sram({hex(S9_BASE)} + p.nine);
  let nine2 = s9a ^ p.seven;
  let s7a = scratch({hex(S7_BASE)} + p.seven);
  let seven2 = s7a ^ (nine2 & 0x7f);
  let seven3 = seven2 ^ (ki >> 9);
  let nine3 = nine2 ^ (ki & 0x1ff);
  let s9b = sram({hex(S9_BASE)} + nine3);
  let nine4 = s9b ^ seven3;
  let s7b = scratch({hex(S7_BASE)} + seven3);
  let seven4 = s7b ^ (nine4 & 0x7f);
  (seven4 << 9) | nine4
}}

fun rol16_1 (t) : word {{ ((t << 1) | (t >> 15)) & 0xffff }}

fun fl_ (x, kl1, kl2) : word {{
  let h = unpack[halves](x);
  let r2 = h.lo ^ rol16_1(h.hi & kl1);
  let l2 = h.hi ^ rol16_1(r2 | kl2);
  pack[halves] [hi = l2, lo = r2]
}}

fun fo_ (x, ko1, ko2, ko3, ki1, ki2, ki3) : word {{
  let h = unpack[halves](x);
  let t1 = fi(h.hi ^ ko1, ki1) ^ h.lo;
  let t2 = fi(h.lo ^ ko2, ki2) ^ t1;
  let t3 = fi(t1 ^ ko3, ki3) ^ t2;
  pack[halves] [hi = t2, lo = t3]
}}

fun main (base, nblocks) : word {{
  try {{
    if (nblocks == 0) raise EmptyPayload;
    let blk = 0;
    let sum = 0;
    while (blk < nblocks) {{
      let off = base + blk * 2;
      let (l0, r0) = sdram(off);
      let left = l0;
      let right = r0;
      let rnd = 0;
      while (rnd < 8) {{
        // One scratch read for the whole round's packed subkeys.
        let (w0, w1, w2, w3) = scratch({hex(SUBKEY_BASE)} + (rnd << 2));
        let k = unpack[round_subkeys]((w0, w1, w2, w3));
        let temp =
          if (rnd % 2 == 0)
            fo_(fl_(left, k.kl1, k.kl2), k.ko1, k.ko2, k.ko3,
                k.ki1, k.ki2, k.ki3)
          else
            fl_(fo_(left, k.ko1, k.ko2, k.ko3, k.ki1, k.ki2, k.ki3),
                k.kl1, k.kl2);
        let newl = right ^ temp;
        right := left;
        left := newl;
        rnd := rnd + 1;
      }};
      sdram(off) <- (right, left);
      sum := sum ^ right ^ left;
      blk := blk + 1;
    }};
    sum
  }} handle EmptyPayload () {{ 0xdead0000 }}
}}
"""

DEFAULT_KASUMI_KEY = bytes.fromhex("2bd6459f82c5b300952c49104881ff48")


def kasumi_memory_image(key: bytes = DEFAULT_KASUMI_KEY) -> dict:
    return {
        "sram": [(S9_BASE, list(kasumi.S9))],
        "scratch": [
            (SUBKEY_BASE, packed_subkey_words(key)),
            (S7_BASE, list(kasumi.S7)),
        ],
    }


def build_kasumi_app(
    key: bytes = DEFAULT_KASUMI_KEY,
    payload: bytes | None = None,
    base: int = 0x100,
) -> AppBundle:
    """The KASUMI application bundle (payload multiple of 8 bytes)."""
    payload = payload or bytes(range(8))
    if len(payload) % 8:
        raise ValueError("payload must be a multiple of 8 bytes")
    words = [
        int.from_bytes(payload[i : i + 4], "big")
        for i in range(0, len(payload), 4)
    ]
    image = kasumi_memory_image(key)
    image.setdefault("sdram", []).append((base, words))
    return AppBundle(
        name="kasumi",
        source=KASUMI_NOVA_SOURCE,
        memory_image=image,
        inputs={"base": base, "nblocks": len(payload) // 8},
        payload_base=base,
    )


def kasumi_reference_ciphertext(
    payload: bytes, key: bytes = DEFAULT_KASUMI_KEY
) -> list[int]:
    out = kasumi.kasumi_encrypt_payload(payload, key)
    return [int.from_bytes(out[i : i + 4], "big") for i in range(0, len(out), 4)]


def kasumi_xor_sum(ciphertext: list[int]) -> int:
    """The value main() returns for the ciphertext words: their XOR."""
    total = 0
    for word in ciphertext:
        total ^= word
    return total


def kasumi_reference_sum(payload: bytes, key: bytes = DEFAULT_KASUMI_KEY) -> int:
    return kasumi_xor_sum(kasumi_reference_ciphertext(payload, key))
