"""Counter-based random streams for reproducible, shardable Monte Carlo.

Every trial owns an independent stream derived from (seed, cell labels,
trial index).  Words are produced by applying the splitmix64 finalizer to a
running counter, so the i-th word of a stream is a pure function of
(key, i): trials can be generated serially, in shards, or vectorised with
numpy and the byte streams are identical on every platform.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# golden-ratio increment and the Stafford mix13 constants used by splitmix64
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def mix64_np(z: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer; matches :func:`mix64` word for word.

    Returns a new array and leaves ``z`` unchanged.
    """
    return _mix64_inplace(np.array(z, dtype=np.uint64))


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied in place to a uint64 array, which it returns."""
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX_A)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX_B)
        z ^= z >> np.uint64(31)
    return z


def derive_key(seed: int, *labels: int) -> int:
    """Derive a stream key from a seed and a label path (cell ids, trial index)."""
    key = mix64(seed + _GAMMA)
    for lab in labels:
        key = derive_sub(key, lab)
    return key


def derive_sub(key: int, label: int) -> int:
    """One derivation step: the stream key for ``label`` under ``key``."""
    return mix64(key ^ mix64(label + _GAMMA))


def trial_keys(cell_key: int, trials: np.ndarray) -> np.ndarray:
    """Vectorised ``derive_key(seed, ..., t)`` given the already-derived cell key."""
    t = trials.astype(np.uint64, copy=False)
    with np.errstate(over="ignore"):
        inner = _mix64_inplace(t + np.uint64(_GAMMA))
    inner ^= np.uint64(cell_key)
    return _mix64_inplace(inner)


def words_np(keys: np.ndarray, index: np.ndarray | int) -> np.ndarray:
    """Vectorised stream words: ``word(key, i) = mix64(key + (i + 1) * GAMMA)``.

    ``keys`` and ``index`` broadcast against each other, so one call can
    produce a (trials, words) block for a whole batch.
    """
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        ctr = np.uint64(_GAMMA) * (idx + np.uint64(1))
        return _mix64_inplace(np.asarray(keys, dtype=np.uint64) + ctr)


def advance_keys(keys: np.ndarray, offset: np.ndarray | int) -> np.ndarray:
    """Keys of the streams ``keys`` moved on by ``offset`` words.

    ``word(key + offset * GAMMA, i) = word(key, offset + i)`` mod 2**64, so
    word i of an advanced stream is word ``offset + i`` of the original.
    ``keys`` and ``offset`` broadcast against each other.
    """
    # ufuncs wrap uint64 silently, on 0-d arrays too
    off = np.asarray(offset, dtype=np.uint64)
    return np.asarray(keys, dtype=np.uint64) + np.uint64(_GAMMA) * off


class RngStream:
    """Sequential view of one counter-based stream.

    The stream is stateless under the hood: word ``i`` only depends on
    (seed, labels, i), which is what makes sharded runs reproduce serial
    runs exactly.
    """

    __slots__ = ("key", "pos")

    def __init__(self, seed: int, *labels: int):
        self.key = derive_key(seed, *labels)
        self.pos = 0

    @classmethod
    def from_key(cls, key: int, pos: int = 0) -> "RngStream":
        s = cls.__new__(cls)
        s.key = key
        s.pos = pos
        return s

    def next_word(self) -> int:
        w = mix64(self.key + (self.pos + 1) * _GAMMA)
        self.pos += 1
        return w

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound). Modulo bias is ~bound / 2**64."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_word() % bound

    def draw_order(self, items: list) -> list:
        """Uniform random ordering of ``items``.

        Consumes exactly ``len(items)`` words (the final pick burns one word
        on a singleton) so that word positions stay aligned across code
        paths that generate the same order vectorised.
        """
        pool = list(items)
        size = len(pool)
        out = []
        for _ in range(size):
            j = self.next_word() % size
            out.append(pool[j])
            size -= 1
            pool[j] = pool[size]
        return out
