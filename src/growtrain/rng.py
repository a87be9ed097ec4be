"""Deterministic random number generation.

All randomness in the package flows through :class:`Rng`, a thin wrapper
around numpy's Philox bit generator (a published counter-based generator
with a 64-bit seed).  The same seed produces the same stream on every
platform.  Independent substreams are created with :meth:`Rng.fork`, keyed
by a string label; a fork depends only on the root seed and the label path,
never on how many values the parent has already drawn.

Fork labels used across the package (documented so streams stay stable):

- ``"transitions"`` / ``"sequences.<stream>"`` -- corpus generation
- ``"init"`` -- weight initialization
- ``"stage<t>.data"`` -- batch order and masking for stage t
- ``"stage<t>.step<i>"`` -- dropout draws for one optimizer step
- ``"layer<l>.attn"`` / ``"layer<l>.ffn"`` -- per-layer dropout inside a
  forward pass (forked from the per-step or per-sequence rng)
"""

from __future__ import annotations

import hashlib
from functools import cache, cached_property

import numpy as np

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _label_hash(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _uint32_words(n: int) -> tuple[int, ...]:
    """A non-negative int as SeedSequence reads it: 32-bit words, least
    significant first, with 0 as one word."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return tuple(words)


@cache
def _word_hash_consts(position: int) -> tuple[tuple[int, int], ...]:
    """Per pool slot, the (xor, multiply) constants with which SeedSequence
    hashes the entropy word at ``position`` >= 4.  Its c-th hash call xors
    with INIT_A * MULT_A**c and multiplies by the next power; the word at
    position i takes calls 16 + 4 (i - 4) + slot, after the pool's own
    mixing, so they depend on the position alone."""
    xors = [_INIT_A * pow(_MULT_A, 4 * position + slot, 1 << 32) & _M32
            for slot in range(_POOL_SIZE)]
    return tuple((xor, xor * _MULT_A & _M32) for xor in xors)


def _mix_in(pool: list[int], words, start: int) -> list[int]:
    """The pool after SeedSequence mixes in ``words``, the entropy words at
    positions start, start + 1, ... (all >= 4): a fork's pool is its
    parent's with the label's words mixed in."""
    pool = list(pool)
    for position, word in enumerate(words, start):
        for slot, (xor, mult) in enumerate(_word_hash_consts(position)):
            h = (word ^ xor) * mult & _M32
            h ^= h >> 16
            r = (_MIX_L * pool[slot] - _MIX_R * h) & _M32
            pool[slot] = r ^ (r >> 16)
    return pool


class _Pool(np.random.bit_generator.ISeedSequence):
    """A SeedSequence reduced to its mixed entropy pool: ``generate_state``
    is numpy's, and building one mixes nothing and reads no OS entropy."""

    def __init__(self, pool: list[int]):
        self.pool = pool

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        wide = np.dtype(dtype) == np.uint64
        out, hash_const = [], _INIT_B
        for i in range(2 * n_words if wide else n_words):
            v = self.pool[i % _POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B & _M32
            v = v * hash_const & _M32
            out.append(v ^ (v >> 16))
        if wide:  # numpy reads the 32-bit words as little-endian pairs
            out = [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]
        return np.array(out, dtype=dtype)


class Rng:
    """Seeded Philox generator with labeled, draw-independent forking.

    The stream of a path is that of ``Philox(SeedSequence([seed mod 2**64,
    *label hashes]))``.  Each Rng keeps that SeedSequence's entropy words
    and, once a draw or a fork needs it, its pool; a fork below a path of
    at least 4 words mixes its label's words into the parent's pool, and
    the generator is seeded from the pool without a SeedSequence.
    """

    def __init__(self, seed: int, _parent: "Rng | None" = None,
                 _label_words: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._parent = _parent
        self._words = ((_parent._words if _parent is not None
                        else _uint32_words(self.seed & 0xFFFFFFFFFFFFFFFF))
                       + _label_words)

    @cached_property
    def _pool(self) -> list[int]:
        parent = self._parent
        if parent is None or len(parent._words) < _POOL_SIZE:
            return np.random.SeedSequence(self._words).pool.tolist()
        return _mix_in(parent._pool, self._words[len(parent._words):],
                       len(parent._words))

    @cached_property
    def _gen(self) -> np.random.Generator:
        # Built on the first draw: most forks (per-sequence and per-step
        # parents, layer forks without dropout) only fork again.
        return np.random.Generator(np.random.Philox(_Pool(self._pool)))

    def fork(self, label: str) -> "Rng":
        """Independent child stream; determined by (seed, label path) only."""
        return Rng(self.seed, self, _uint32_words(_label_hash(label)))

    # -- draws (delegate to the underlying numpy Generator) ----------------

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def buffered_uint32(self) -> int | None:
        """The 32-bit half that a bounded-integer draw left in the bit
        generator, or None; numpy's next 32-bit draw returns it before
        taking a fresh 64-bit word (low half first, high half buffered)."""
        state = self._gen.bit_generator.state
        return state["uinteger"] if state["has_uint32"] else None

    def random_raw(self, size=None):
        """Raw uint64 Philox outputs; ``uniform(size=size)`` consumes the
        stream identically and returns ``(raw >> 11) * 2**-53``."""
        return self._gen.bit_generator.random_raw(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, a, size=None, replace=True, p=None):
        return self._gen.choice(a, size=size, replace=replace, p=p)

    def dirichlet(self, alpha):
        return self._gen.dirichlet(alpha)

    def truncated_normal(self, shape, std: float, clip: float = 2.0) -> np.ndarray:
        """Normal(0, std) with draws beyond ``clip`` std devs resampled."""
        out = self._gen.normal(0.0, std, size=shape)
        bad = np.abs(out) > clip * std
        while np.any(bad):
            out[bad] = self._gen.normal(0.0, std, size=int(bad.sum()))
            bad = np.abs(out) > clip * std
        return out
