"""numpy's PCG64 uniform stream, in plain numpy arithmetic.

`Pcg64(seed).random(n)` returns the doubles that numpy's
`Generator(PCG64(seed)).random(n)` returns, so a command that draws need
not import numpy's random package (and with it `secrets`).
The generator is O'Neill's PCG64 (HMC-CS-2014-0905): a 128-bit LCG with the
XSL-RR 128/64 output. numpy seeds it through `SeedSequence`, a port of
O'Neill's `seed_seq`, reproduced here with plain ints. Draws are vectorized
over 128-bit lanes held as (hi, lo) uint64 arrays: the k-th state after s is
M^k s + c_k mod 2^128, read from a jump table of (M^k, c_k) that grows by
doubling up to one block, BLOCK draws, and no further. All wrapping
arithmetic runs on arrays: numpy warns on a scalar overflow, not an array one.
"""

from __future__ import annotations

import operator

import numpy as np

BLOCK = 4096
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_LOW32 = np.uint64(_MASK32)


def _seed_words(entropy: int) -> list[int]:
    """`SeedSequence(entropy).generate_state(4, np.uint64)` as ints."""
    words = [entropy & _MASK32]
    while entropy >> 32 * len(words):
        words.append(entropy >> 32 * len(words) & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    state, hash_const = [], 0x8B51F9DD
    for value in pool * 2:
        value ^= hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    # little-endian uint32 pairs read as uint64 words
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _mul_add(hi: np.ndarray, lo: np.ndarray, x: int, add_hi, add_lo):
    """(hi, lo) * x + (add_hi, add_lo) mod 2^128, lane by lane."""
    x_lo = x & _MASK64
    b0, b1 = np.uint64(x_lo & _MASK32), np.uint64(x_lo >> 32)
    a0, a1 = lo & _LOW32, lo >> 32
    # the high word of lo * x_lo from 32-bit halves (Warren's mulhu), then
    # the cross terms that wrap into it
    t = a1 * b0 + (a0 * b0 >> 32)
    w = (t & _LOW32) + a0 * b1
    out_hi = a1 * b1 + (t >> 32) + (w >> 32) + hi * np.uint64(x_lo) + lo * np.uint64(x >> 64)
    out_lo = lo * np.uint64(x_lo) + add_lo
    return out_hi + add_hi + (out_lo < add_lo), out_lo


class Pcg64:
    """A PCG64 uniform stream, equal draw for draw to numpy's
    `Generator(PCG64(seed)).random`. `seed` is a non-negative int."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"expected non-negative integer, got {seed}")
        w0, w1, w2, w3 = _seed_words(seed)
        inc = (w2 << 65 | w3 << 1 | 1) & _MASK128
        # pcg64_srandom_r: step from 0, add the initial state, step again
        self._state = ((inc + (w0 << 64 | w1)) * _MULT + inc) & _MASK128
        # (M^k, c_k) for k = 1..len, as (hi, lo) lanes: M^k hi, lo, c_k hi, lo
        self._jump = tuple(np.array([value], dtype=np.uint64)
                           for value in (_MULT >> 64, _MULT & _MASK64, inc >> 64, inc & _MASK64))

    def _grow(self, size: int) -> None:
        # s_{L+j} = M^j s_L + c_j, where s_L = M^L s + c_L
        while len(self._jump[0]) < size:
            m_hi, m_lo, c_hi, c_lo = self._jump
            m_last = int(m_hi[-1]) << 64 | int(m_lo[-1])
            c_last = int(c_hi[-1]) << 64 | int(c_lo[-1])
            self._jump = tuple(np.concatenate(pair) for pair in zip(
                self._jump, (*_mul_add(m_hi, m_lo, m_last, 0, 0),
                             *_mul_add(m_hi, m_lo, c_last, c_hi, c_lo))))

    def random(self, n: int) -> np.ndarray:
        """The next n doubles in [0, 1), each (x >> 11) 2^-53 of one 64-bit
        XSL-RR output x."""
        out = np.empty(n)
        for start in range(0, n, BLOCK):
            size = min(BLOCK, n - start)
            self._grow(size)
            m_hi, m_lo, c_hi, c_lo = (lanes[:size] for lanes in self._jump)
            hi, lo = _mul_add(m_hi, m_lo, self._state, c_hi, c_lo)
            self._state = int(hi[-1]) << 64 | int(lo[-1])
            rot = hi >> 58
            word = hi ^ lo
            word = (word >> rot) | (word << ((np.uint64(64) - rot) & np.uint64(63)))
            out[start:start + size] = word >> 11
        out *= 2.0 ** -53
        return out
