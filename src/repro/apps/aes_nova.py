"""AES Rijndael in Nova (paper Section 11, first benchmark).

Mirrors the paper's implementation choices:

- the encryption state stays in registers at all times,
- all tables (T0..T3 and the final-round S-box) reside in SRAM —
  "resulting in contention" when several threads run,
- the key expansion is statically computed (round keys in scratch),
- the plaintext is read potentially quad-word *misaligned* — the block
  is selected out of a 6-word SDRAM read through two layout views, the
  paper's alignment trick — but the ciphertext is written quad-word
  aligned,
- a TCP-checksum accumulator over the ciphertext is maintained and
  stored behind the payload,
- no CBC: the payload is a whole number of 16-byte blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.refimpl import aes

#: SRAM word addresses of the tables.
T0_BASE = 0x1000
T1_BASE = 0x1100
T2_BASE = 0x1200
T3_BASE = 0x1300
SBOX_BASE = 0x1400

#: Scratch word address of the 44 round-key words.
RK_BASE = 0

#: Where the checksum/summary pair is stored (SDRAM, relative to the
#: payload end; must stay 8-byte aligned).
AES_NOVA_SOURCE = f"""
// AES-128, T-table formulation.  State in registers; tables in SRAM;
// statically expanded round keys in scratch (paper Section 11).

layout aes_block = {{ b0 : 32, b1 : 32, b2 : 32, b3 : 32 }};

fun round_col (a, b, c, d, rk) : word {{
  let t0 = sram({hex(T0_BASE)} + (a >> 24));
  let t1 = sram({hex(T1_BASE)} + ((b >> 16) & 0xff));
  let t2 = sram({hex(T2_BASE)} + ((c >> 8) & 0xff));
  let t3 = sram({hex(T3_BASE)} + (d & 0xff));
  t0 ^ t1 ^ t2 ^ t3 ^ rk
}}

fun final_col (a, b, c, d, rk) : word {{
  let b0 = sram({hex(SBOX_BASE)} + (a >> 24));
  let b1 = sram({hex(SBOX_BASE)} + ((b >> 16) & 0xff));
  let b2 = sram({hex(SBOX_BASE)} + ((c >> 8) & 0xff));
  let b3 = sram({hex(SBOX_BASE)} + (d & 0xff));
  ((b0 << 24) | (b1 << 16) | (b2 << 8) | b3) ^ rk
}}

fun fold16 (x) : word {{
  let y = (x & 0xffff) + (x >> 16);
  (y & 0xffff) + (y >> 16)
}}

// Trailer word stored conceptually behind the payload: block count and
// the running ciphertext checksum, packed through a layout.
layout trailer = {{ nprocessed : 16, cksum : 16 }};

fun main (base, nblocks, align) : word {{
  try {{
  if (align > 1) raise BadAlign (align);
  if (nblocks == 0) raise EmptyPayload;
  let blk = 0;
  let cksum = 0;
  while (blk < nblocks) {{
    let off = base + blk * 4;
    // The plaintext may be quad-word misaligned: pick the block out of
    // six words through the two layout views (paper Section 3.2).
    let (p0, p1, p2, p3, p4, p5) = sdram(off);
    let u =
      if (align == 0) unpack[aes_block ## {{64}}]((p0, p1, p2, p3, p4, p5))
      else unpack[{{32}} ## aes_block ## {{32}}]((p0, p1, p2, p3, p4, p5));

    let (k0, k1, k2, k3) = scratch({RK_BASE});
    let s0 = u.b0 ^ k0;
    let s1 = u.b1 ^ k1;
    let s2 = u.b2 ^ k2;
    let s3 = u.b3 ^ k3;

    let r = 1;
    while (r < 10) {{
      let (rk0, rk1, rk2, rk3) = scratch({RK_BASE} + (r << 2));
      let n0 = round_col(s0, s1, s2, s3, rk0);
      let n1 = round_col(s1, s2, s3, s0, rk1);
      let n2 = round_col(s2, s3, s0, s1, rk2);
      let n3 = round_col(s3, s0, s1, s2, rk3);
      s0 := n0; s1 := n1; s2 := n2; s3 := n3;
      r := r + 1;
    }};

    let (fk0, fk1, fk2, fk3) = scratch({RK_BASE} + 40);
    let c0 = final_col(s0, s1, s2, s3, fk0);
    let c1 = final_col(s1, s2, s3, s0, fk1);
    let c2 = final_col(s2, s3, s0, s1, fk2);
    let c3 = final_col(s3, s0, s1, s2, fk3);

    // Ciphertext goes out quad-word aligned.
    sdram(off) <- (c0, c1, c2, c3);

    // Maintain the checksum accumulator over the ciphertext.
    cksum := fold16(fold16(cksum + fold16(c0) + fold16(c1))
                    + fold16(c2) + fold16(c3));
    blk := blk + 1;
  }};
  pack[trailer] [nprocessed = blk, cksum = cksum]
  }}
  handle BadAlign (a) {{ 0xbad00000 | a }}
  handle EmptyPayload () {{ 0xdead0000 }}
}}
"""


@dataclass
class AppBundle:
    """Everything needed to compile and run one application."""

    name: str
    source: str
    memory_image: dict[str, list[tuple[int, list[int]]]] = field(
        default_factory=dict
    )
    #: default source-level input values
    inputs: dict[str, int] = field(default_factory=dict)
    #: where packet data lives (space, word address)
    payload_space: str = "sdram"
    payload_base: int = 0x100


DEFAULT_AES_KEY = bytes(range(16))


def aes_memory_image(key: bytes = DEFAULT_AES_KEY) -> dict:
    """Table and round-key image for the Nova AES program."""
    t0, t1, t2, t3 = aes.aes_t_tables()
    return {
        "sram": [
            (T0_BASE, t0),
            (T1_BASE, t1),
            (T2_BASE, t2),
            (T3_BASE, t3),
            (SBOX_BASE, list(aes.AES_SBOX)),
        ],
        "scratch": [(RK_BASE, aes.expand_key(key))],
    }


def build_aes_app(
    key: bytes = DEFAULT_AES_KEY,
    payload: bytes | None = None,
    base: int = 0x100,
    align: int = 0,
) -> AppBundle:
    """The AES application with its memory image and default inputs.

    ``payload`` (multiple of 16 bytes) is placed at SDRAM ``base``
    words; ``align=1`` shifts it one word to exercise the misaligned
    path.
    """
    payload = payload or bytes(range(16))
    if len(payload) % 16:
        raise ValueError("payload must be a multiple of 16 bytes")
    words = [
        int.from_bytes(payload[i : i + 4], "big")
        for i in range(0, len(payload), 4)
    ]
    image = aes_memory_image(key)
    image.setdefault("sdram", []).append((base + align, words))
    nblocks = len(payload) // 16
    return AppBundle(
        name="aes",
        source=AES_NOVA_SOURCE,
        memory_image=image,
        inputs={"base": base, "nblocks": nblocks, "align": align},
        payload_base=base,
    )


def aes_reference_ciphertext(
    payload: bytes, key: bytes = DEFAULT_AES_KEY
) -> list[int]:
    """Expected SDRAM words after the Nova program ran (aligned output)."""
    out = aes.aes_encrypt_payload(payload, key)
    return [int.from_bytes(out[i : i + 4], "big") for i in range(0, len(out), 4)]


def aes_trailer(ciphertext: list[int]) -> int:
    """The trailer word main() returns for the ciphertext words: packed
    (nprocessed, cksum)."""

    def fold16(x: int) -> int:
        y = (x & 0xFFFF) + (x >> 16)
        return (y & 0xFFFF) + (y >> 16)

    cksum = 0
    for i in range(0, len(ciphertext), 4):
        c0, c1, c2, c3 = ciphertext[i : i + 4]
        cksum = fold16(
            fold16(cksum + fold16(c0) + fold16(c1)) + fold16(c2) + fold16(c3)
        )
    nblocks = len(ciphertext) // 4
    return ((nblocks & 0xFFFF) << 16) | (cksum & 0xFFFF)


def aes_reference_checksum(payload: bytes, key: bytes = DEFAULT_AES_KEY) -> int:
    """The trailer word main() returns for ``payload``."""
    return aes_trailer(aes_reference_ciphertext(payload, key))
