"""numpy's ``default_rng(entropy).integers(lo, hi)`` stream, bit for bit.

SeedSequence hashes the entropy (an int or a list of ints, as 32-bit
words) into a pool of 4 words and draws 8 words out: PCG64's 128-bit
seed and stream.  PCG64 is a 128-bit LCG with XSL-RR 64-bit output
(O'Neill 2014, https://www.pcg-random.org/paper.html).  ``integers``
serves each output as two 32-bit halves, the low half first, and draws
a range of up to ``2**32`` values by Lemire's multiply-and-reject.
"""

from __future__ import annotations

__all__ = ["PCG64"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy) -> list[int]:
    """32-bit words, least significant first, at least one per int."""
    if isinstance(entropy, int):
        if entropy < 0:
            raise ValueError("expected non-negative integer")
        words = [entropy & _M32]
        while entropy := entropy >> 32:
            words.append(entropy & _M32)
        return words
    return [w for e in entropy for w in _words(e)]


def _seed(entropy) -> tuple[int, int]:
    """SeedSequence's 8 output words as PCG64's (seed, stream) pair."""
    words = _words(entropy)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * 0x931E8875) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = (const * 0x58F38DED) & _M32
        value = (value * const) & _M32
        out.append(value ^ (value >> 16))
    # the 8 words read as 4 little-endian uint64s: seed hi, lo, stream hi, lo
    u64 = [out[k] | (out[k + 1] << 32) for k in range(0, 8, 2)]
    return (u64[0] << 64) | u64[1], (u64[2] << 64) | u64[3]


class PCG64:
    """The integer stream of ``numpy.random.default_rng(entropy)``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy) -> None:
        seed, stream = _seed(entropy)
        self._inc = ((stream << 1) | 1) & _M128
        self._state = ((self._inc + seed) * _MULT + self._inc) & _M128
        self._half: int | None = None

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        s = self._state = (self._state * _MULT + self._inc) & _M128
        x = ((s >> 64) ^ s) & _M64
        r = s >> 122
        x = ((x >> r) | (x << (64 - r))) & _M64
        self._half = x >> 32
        return x & _M32

    def integers(self, lo: int, hi: int) -> int:
        """One draw from ``[lo, hi)``, as ``Generator.integers(lo, hi)``."""
        rng = hi - lo - 1
        if rng < 0:
            raise ValueError(f"low >= high: {lo} >= {hi}")
        if rng == 0:
            return lo
        if rng > _M32:
            raise ValueError(f"range wider than 2**32: [{lo}, {hi})")
        excl = rng + 1  # 2**32 itself takes one draw and never rejects
        m = self._next32() * excl
        if (m & _M32) < excl:
            threshold = (1 << 32) % excl
            while (m & _M32) < threshold:
                m = self._next32() * excl
        return lo + (m >> 32)
