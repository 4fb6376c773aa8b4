"""numpy's default_rng stream, uniforms and normals, without numpy.random.

`Uniforms(seed).random()` and `.standard_normal()` return, draw for draw and
bit for bit, what `np.random.default_rng(seed).random()` and
`.standard_normal()` return for an int seed >= 0: the seed goes through
numpy's SeedSequence (O'Neill's entropy pool mixing, 4 words), which seeds a
PCG64 generator (XSL-RR 128/64, O'Neill, HMC-CS-2014-0905). Each double is
(next64 >> 11) * 2^-53, and each normal comes from numpy's 256-layer
ziggurat over next64 (Marsaglia and Tsang 2000, as numpy's distributions.c
draws it), with log1p and exp on its rare slow paths. NEP 19 keeps numpy's
BitGenerator streams fixed across releases, so this stream stays numpy's;
and a run need not load numpy.random, which takes 9-16 ms and 6.3 MB of peak
RSS per process and loads OpenSSL (numpy 2.4, Python 3.11, a 2-vCPU Xeon VM).

The ziggurat's tables cannot be recomputed bit for bit from their recurrence,
so `ziggurat.bin` holds numpy's own: ki_double (256 little-endian uint64),
wi_double and fi_double (256 little-endian doubles each), in that order, from
numpy/random/src/distributions/ziggurat_constants.h. Copyright (c) 2005-2024,
NumPy Developers; BSD-3-Clause (see numpy's LICENSE.txt).
"""

from __future__ import annotations

import functools
import math
import operator
import os
import struct

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
_M52 = (1 << 52) - 1
_ZIG_R = 3.6541528853610087963519472518  # ziggurat_nor_r: the base layer's edge
_ZIG_INV_R = 0.27366123732975827203338247596  # ziggurat_nor_inv_r


@functools.cache
def _ziggurat_tables() -> tuple:
    """(ki, wi, fi) from ziggurat.bin, read on the first normal."""
    with open(os.path.join(os.path.dirname(__file__), "ziggurat.bin"), "rb") as fh:
        data = fh.read()
    return (struct.unpack_from("<256Q", data, 0), struct.unpack_from("<256d", data, 2048),
            struct.unpack_from("<256d", data, 4096))


def _seed_words(seed: int) -> list:
    """The 8 32-bit words SeedSequence(seed).generate_state(4, uint64) returns."""
    entropy = []  # seed as little-endian 32-bit words, [0] for seed 0
    while True:
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    h = 0x43B0D7E5

    def hashmix(value):
        nonlocal h
        value ^= h
        h = h * 0x931E8875 & _M32
        value = value * h & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        value = value * h & _M32
        out.append(value ^ value >> 16)
    return out


class Uniforms:
    """The draws of np.random.default_rng(seed): .random() and .standard_normal(),
    one per call, from one stream as numpy interleaves them."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        w = _seed_words(seed)
        # uint64 k is w[2k] | w[2k+1] << 32; state = u0 << 64 | u1, inc from u2, u3
        state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        seq = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        self._inc = (seq << 1 | 1) & _M128
        self._state = 0
        self._step()
        self._state = (self._state + state) & _M128
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def _next64(self) -> int:
        """The next XSL-RR output: the state's halves xored, rotated by its top 6 bits."""
        self._step()
        s = self._state
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def random(self) -> float:
        """A double in [0, 1): the top 53 bits of the next output."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def standard_normal(self) -> float:
        """A standard normal, by numpy's ziggurat (random_standard_normal)."""
        ki, wi, fi = _ziggurat_tables()
        while True:
            r = self._next64()
            idx = r & 0xFF  # the layer; the next bit is the sign, then 52 bits
            rabs = r >> 9 & _M52
            x = -(rabs * wi[idx]) if r >> 8 & 1 else rabs * wi[idx]
            if rabs < ki[idx]:
                return x  # inside the layer's rectangle: 99.3 % of draws
            if idx == 0:  # the tail beyond _ZIG_R, by Marsaglia's exponential test
                while True:
                    xx = -_ZIG_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return -(_ZIG_R + xx) if rabs >> 8 & 1 else _ZIG_R + xx
            elif (fi[idx - 1] - fi[idx]) * self.random() + fi[idx] < math.exp(-0.5 * x * x):
                return x  # in the wedge under the density
