"""numpy's default uniform stream, without numpy.random.

`Uniforms(seed).random()` returns, draw for draw and bit for bit, what
`np.random.default_rng(seed).random()` returns for an int seed >= 0: the
seed goes through numpy's SeedSequence (O'Neill's entropy pool mixing, 4
words), which seeds a PCG64 generator (XSL-RR 128/64, O'Neill,
HMC-CS-2014-0905), and each double is (next64 >> 11) * 2^-53. NEP 19 keeps
numpy's BitGenerator streams fixed across releases, so this stream stays
numpy's; and a run that draws only uniforms need not load numpy.random,
which takes 9-16 ms and 6.3 MB of peak RSS per process (numpy 2.4, Python
3.11, a 2-vCPU Xeon VM).
"""

from __future__ import annotations

import operator

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128


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
    """The doubles of np.random.default_rng(seed).random(), one per call."""

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

    def random(self) -> float:
        """A double in [0, 1): the top 53 bits of the next XSL-RR output."""
        self._step()
        s = self._state
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        out = (x >> rot | x << (64 - rot)) & _M64
        return (out >> 11) * (1.0 / 9007199254740992.0)
