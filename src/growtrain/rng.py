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
from functools import cached_property

import numpy as np


def _label_hash(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """Seeded Philox generator with labeled, draw-independent forking."""

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = tuple(_path)

    @cached_property
    def _gen(self) -> np.random.Generator:
        # Built on the first draw: most forks (per-sequence and per-step
        # parents, layer forks without dropout) only fork again.
        entropy = [self.seed & 0xFFFFFFFFFFFFFFFF, *self._path]
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

    def fork(self, label: str) -> "Rng":
        """Independent child stream; determined by (seed, label path) only."""
        return Rng(self.seed, self._path + (_label_hash(label),))

    # -- draws (delegate to the underlying numpy Generator) ----------------

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

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
