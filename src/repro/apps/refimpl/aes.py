"""AES-128 (Rijndael) reference implementation — FIPS-197.

T-table formulation: each encryption round is four table lookups plus
XORs per state column, exactly the structure the Nova program uses on
the IXP (state lives in four 32-bit registers, tables in SRAM).  The
paper's implementation "keeps the encryption state in registers at all
times" and statically computes the key expansion; both choices are
mirrored here.

Only encryption of whole 16-byte blocks is provided (the paper: "We did
not implement CBC, so the data size must be a multiple of 16 bytes").
"""

from __future__ import annotations

MASK32 = 0xFFFFFFFF

# FIPS-197 S-box.
AES_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(value: int) -> int:
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def aes_t_tables() -> tuple[list[int], list[int], list[int], list[int]]:
    """The four round-transform tables T0..T3 (each 256 words)."""
    t0, t1, t2, t3 = [], [], [], []
    for byte in range(256):
        s = AES_SBOX[byte]
        s2 = _xtime(s)
        s3 = s2 ^ s
        word = (s2 << 24) | (s << 16) | (s << 8) | s3
        t0.append(word)
        t1.append(((word >> 8) | (word << 24)) & MASK32)
        t2.append(((word >> 16) | (word << 16)) & MASK32)
        t3.append(((word >> 24) | (word << 8)) & MASK32)
    return t0, t1, t2, t3


#: T0..T3 for :func:`aes_encrypt_words`, built once per process.
_T0, _T1, _T2, _T3 = (tuple(table) for table in aes_t_tables())


def expand_key(key: bytes) -> list[int]:
    """AES-128 key expansion → 44 round-key words (FIPS-197 §5.2)."""
    if len(key) != 16:
        raise ValueError("AES-128 needs a 16-byte key")
    words = [int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = ((temp << 8) | (temp >> 24)) & MASK32  # RotWord
            temp = (
                (AES_SBOX[(temp >> 24) & 0xFF] << 24)
                | (AES_SBOX[(temp >> 16) & 0xFF] << 16)
                | (AES_SBOX[(temp >> 8) & 0xFF] << 8)
                | AES_SBOX[temp & 0xFF]
            )
            temp ^= _RCON[i // 4 - 1] << 24
        words.append(words[i - 4] ^ temp)
    return words


def aes_encrypt_words(block: list[int], round_keys: list[int]) -> list[int]:
    """Encrypt one block given as 4 big-endian words."""
    t0, t1, t2, t3 = _T0, _T1, _T2, _T3
    s = [block[i] ^ round_keys[i] for i in range(4)]
    for rnd in range(1, 10):
        rk = round_keys[4 * rnd : 4 * rnd + 4]
        s = [
            t0[(s[c] >> 24) & 0xFF]
            ^ t1[(s[(c + 1) % 4] >> 16) & 0xFF]
            ^ t2[(s[(c + 2) % 4] >> 8) & 0xFF]
            ^ t3[s[(c + 3) % 4] & 0xFF]
            ^ rk[c]
            for c in range(4)
        ]
    rk = round_keys[40:44]
    out = []
    for c in range(4):
        word = (
            (AES_SBOX[(s[c] >> 24) & 0xFF] << 24)
            | (AES_SBOX[(s[(c + 1) % 4] >> 16) & 0xFF] << 16)
            | (AES_SBOX[(s[(c + 2) % 4] >> 8) & 0xFF] << 8)
            | AES_SBOX[s[(c + 3) % 4] & 0xFF]
        )
        out.append(word ^ rk[c])
    return out


def aes_encrypt_block(block: bytes, key: bytes) -> bytes:
    """Encrypt one 16-byte block with a 16-byte key."""
    if len(block) != 16:
        raise ValueError("AES block must be 16 bytes")
    words = [int.from_bytes(block[i : i + 4], "big") for i in range(0, 16, 4)]
    out = aes_encrypt_words(words, expand_key(key))
    return b"".join(w.to_bytes(4, "big") for w in out)


def aes_encrypt_payload(payload: bytes, key: bytes) -> bytes:
    """ECB over a multiple-of-16 payload (the paper's restriction)."""
    if len(payload) % 16:
        raise ValueError("payload must be a multiple of 16 bytes")
    round_keys = expand_key(key)
    out = bytearray()
    for i in range(0, len(payload), 16):
        words = [
            int.from_bytes(payload[i + 4 * j : i + 4 * j + 4], "big")
            for j in range(4)
        ]
        for w in aes_encrypt_words(words, round_keys):
            out.extend(w.to_bytes(4, "big"))
    return bytes(out)
