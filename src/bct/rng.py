"""Deterministic pseudo-random numbers with a pinned bitstream.

The generator is splitmix64: the k-th output (k = 1, 2, ...) for seed s is
``mix(s + k * GAMMA) mod 2**64``. Because outputs depend only on the seed and
the counter, batches of draws can be produced vectorized and the stream is
reproducible across platforms.

Test vectors (seed 0, first three outputs):
    0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
"""

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_INV53 = 2.0 ** -53


def mix(z: int) -> int:
    """Finalize one 64-bit state word into an output word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive(seed: int, *keys: int) -> int:
    """Derive an independent stream seed from a base seed and integer keys."""
    s = seed & _MASK
    for k in keys:
        s = mix(s ^ mix(k & _MASK))
    return s


def _mix_array(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2**64, matching the scalar path
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class Rng:
    """Counter-based splitmix64 stream.

    Scalar draws and vectorized draws taken from the same position produce
    the same words, so consumers may batch freely without changing results.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._k = 0  # number of words consumed

    def next_u64(self) -> int:
        self._k += 1
        return mix((self.seed + self._k * GAMMA) & _MASK)

    def u64_array(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        ks = np.arange(self._k + 1, self._k + n + 1, dtype=np.uint64)
        self._k += n
        with np.errstate(over="ignore"):
            words = _mix_array(np.uint64(self.seed) + ks * np.uint64(GAMMA))
        return words

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n floats in [lo, hi) built from the top 53 bits of each word."""
        u = (self.u64_array(n) >> np.uint64(11)).astype(np.float64) * _INV53
        return lo + (hi - lo) * u

    def randint(self, bound: int) -> int:
        """Integer in [0, bound) via modulo reduction (bias < 2**-53 at our scales)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, descending index, j = word mod (i+1)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> np.ndarray:
        """shuffle(list(range(n))) as int64, its n - 1 words drawn at once."""
        idx = list(range(n))
        js = self.u64_array(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)
