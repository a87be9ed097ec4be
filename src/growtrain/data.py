"""Deterministic synthetic corpus, masking, and truncation.

Sequences come from a seeded order-1 Markov chain whose transition matrix
is itself seeded and sparse (each token has at most 8 likely successors
carrying 98% of the mass, with 2% smoothing), so masked-token prediction is
learnable well above chance.  Token id ``mask_token_id`` is reserved and
never emitted by the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ValidationError
from .rng import Rng


@dataclass(frozen=True)
class DataConfig:
    V: int
    corpus_size: int
    seq_len_full: int
    train_len: int
    masks_per_seq: int
    mask_token_id: int = 0
    markov_order: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.corpus_size < 1:
            raise ValidationError(f"corpus_size must be >= 1, got {self.corpus_size}")
        if self.train_len > self.seq_len_full:
            raise ValidationError(
                f"train_len {self.train_len} exceeds seq_len_full {self.seq_len_full}")
        if not 0 < self.masks_per_seq < self.train_len:
            raise ValidationError(
                f"masks_per_seq {self.masks_per_seq} must be in (0, train_len)")
        if not 0 <= self.mask_token_id < self.V:
            raise ValidationError(f"mask_token_id {self.mask_token_id} out of vocab")
        if self.markov_order not in (0, 1):
            raise ValidationError(f"markov_order must be 0 or 1, got {self.markov_order}")

    def to_dict(self) -> dict:
        return {
            "V": self.V, "corpus_size": self.corpus_size,
            "seq_len_full": self.seq_len_full, "train_len": self.train_len,
            "masks_per_seq": self.masks_per_seq, "mask_token_id": self.mask_token_id,
            "markov_order": self.markov_order, "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "DataConfig":
        dc = DataConfig(**d)
        dc.validate()
        return dc


def valid_tokens(dc: DataConfig) -> np.ndarray:
    return np.array([t for t in range(dc.V) if t != dc.mask_token_id], dtype=np.int64)


def transition_matrix(dc: DataConfig, rng: Rng) -> np.ndarray:
    """Row-stochastic (V, V) matrix over non-mask tokens; mask row/col zero.

    Tokens are grouped round-robin into clusters of about nine, and each
    token's likely successors are drawn from its own cluster, so sequences
    dwell inside one cluster for many steps.  Sequence-level context then
    carries most of the predictive signal, which keeps masked-token
    prediction learnable at very small model scale.
    """
    tokens = valid_tokens(dc)
    n = tokens.size
    T = np.zeros((dc.V, dc.V))
    n_clusters = max(1, n // 9)
    clusters = [tokens[i % n_clusters == np.arange(n) % n_clusters]
                for i in range(n_clusters)]
    for i, tok in enumerate(tokens):
        r = rng.fork(f"row{tok}")
        group = clusters[i % n_clusters]
        n_succ = min(8, group.size)
        succ = group[r.choice(group.size, size=n_succ, replace=False)]
        weights = r.dirichlet(np.ones(n_succ))
        row = np.full(dc.V, 0.02 / n)
        row[dc.mask_token_id] = 0.0
        row[succ] += 0.98 * weights
        T[tok] = row / row.sum()
    return T


def gen_corpus(dc: DataConfig, rng: Rng, stream: str = "train") -> np.ndarray:
    """(corpus_size, seq_len_full) int64 token array, deterministic per seed.

    The transition matrix depends only on the rng's "transitions" fork, so
    train and held-out streams share one chain.  Each token is one uniform
    draw, taken in row-major order and inverted through the row's CDF the
    way ``Generator.choice(V, p=row)`` does (cumsum normalized by its last
    element, ``searchsorted(side="right")``), so the corpus equals a
    token-by-token ``choice`` loop while every position is sampled across
    all sequences at once.  A smaller ``corpus_size`` gives the first rows
    of a larger one bit for bit.
    """
    dc.validate()
    tokens = valid_tokens(dc)
    marginal = np.full(dc.V, 0.0)
    marginal[tokens] = 1.0 / tokens.size
    u = rng.fork(f"sequences.{stream}").uniform(size=(dc.corpus_size, dc.seq_len_full))
    marginal_cdf = np.cumsum(marginal)
    marginal_cdf /= marginal_cdf[-1]
    if dc.markov_order == 0:
        return np.searchsorted(marginal_cdf, u, side="right").astype(np.int64)
    cdf = np.cumsum(transition_matrix(dc, rng.fork("transitions")), axis=1)
    cdf[tokens] /= cdf[tokens, -1:]   # the mask token's row is all zero and never used
    corpus = np.zeros((dc.corpus_size, dc.seq_len_full), dtype=np.int64)
    corpus[:, 0] = np.searchsorted(marginal_cdf, u[:, 0], side="right")
    for i in range(1, dc.seq_len_full):
        # count of CDF entries <= u: searchsorted(side="right") on each row
        corpus[:, i] = (cdf[corpus[:, i - 1]] <= u[:, i, None]).sum(axis=1)
    return corpus


def truncate(sequence: np.ndarray, train_len: int) -> np.ndarray:
    """Keep the first train_len tokens."""
    return sequence[:train_len]


def _raw_words(rng: Rng, count: int):
    """The rng's 64-bit words in stream order, drawn ``count`` at a time."""
    while True:
        yield from rng.random_raw(count).tolist()


def _uint32_halves(words, buffered: int | None):
    """numpy's 32-bit draws: a half left buffered by an earlier draw, then
    the low and high half of each further word.  A word is taken from
    ``words`` only when the halves run out, so 64-bit draws from the same
    iterator between two 32-bit draws fall where numpy's would."""
    if buffered is not None:
        yield buffered
    for word in words:
        yield word & 0xFFFFFFFF
        yield word >> 32


def _bounded_uint32(halves, n: int) -> int:
    """numpy's draw of ``integers(0, n)`` for 1 <= n <= 2**32 - 1: Lemire's
    multiply-shift on 32-bit halves, redrawing while the low product word
    falls below (2**32 - n) mod n.  n = 1 draws nothing."""
    if n == 1:
        return 0
    product = next(halves) * n
    if product & 0xFFFFFFFF < n:
        threshold = (2**32 - n) % n
        while product & 0xFFFFFFFF < threshold:
            product = next(halves) * n
    return product >> 32


def mask_tokens(sequence: np.ndarray, masks_per_seq: int, rng: Rng,
                mask_token_id: int, V: int,
                replace_probs: tuple[float, float, float] = (0.8, 0.1, 0.1)):
    """BERT-style masking: distinct uniform positions; 80% become the mask
    token, 10% a random non-mask token, 10% stay unchanged.

    Position by position, the decisions consume the stream exactly as one
    ``rng.uniform()`` and, for a random token, one ``rng.integers(0, V - 1)``
    would; they are read from raw words, so the rng's state afterwards is
    not that of those calls.  Returns (input_ids, sorted positions, target
    ids).
    """
    n = sequence.shape[0]
    if masks_per_seq > n:
        raise InputError(f"masks_per_seq {masks_per_seq} exceeds length {n}")
    positions = np.sort(rng.choice(n, size=masks_per_seq, replace=False))
    targets = sequence[positions].copy()
    inputs = sequence.copy()
    p_mask, p_rand, _ = replace_probs
    # a uniform takes one word, a random token at most one more (rejections
    # aside), so one block covers the sequence
    words = _raw_words(rng, 2 * masks_per_seq)
    halves = _uint32_halves(words, rng.buffered_uint32())
    for pos in positions.tolist():
        u = (next(words) >> 11) * 2.0**-53
        if u < p_mask:
            inputs[pos] = mask_token_id
        elif u < p_mask + p_rand:
            tok = _bounded_uint32(halves, V - 1)
            inputs[pos] = tok if tok < mask_token_id else tok + 1
    return inputs, positions.astype(np.int64), targets


def assemble(corpus: np.ndarray, indices, dc: DataConfig, rng: Rng):
    """(ids, masked positions, targets) of the given corpus rows, truncated
    to ``train_len`` and masked with ``rng.fork(f"seq{index}")``, so a row's
    masks depend only on its index."""
    ids, positions, targets = [], [], []
    for idx in indices:
        seq = truncate(corpus[idx], dc.train_len)
        inp, pos, tgt = mask_tokens(seq, dc.masks_per_seq, rng.fork(f"seq{idx}"),
                                    dc.mask_token_id, dc.V)
        ids.append(inp)
        positions.append(pos)
        targets.append(tgt)
    return np.stack(ids), np.stack(positions), np.stack(targets)


def iter_batches(corpus: np.ndarray, batch_size: int, dc: DataConfig, rng: Rng):
    """Endless batch stream: each epoch is a fresh permutation covering the
    corpus exactly once (final batch may be short)."""
    epoch = 0
    size = corpus.shape[0]
    while True:
        er = rng.fork(f"epoch{epoch}")
        order = er.permutation(size)
        mask_rng = rng.fork(f"epoch{epoch}.mask")
        for start in range(0, size, batch_size):
            yield assemble(corpus, order[start:start + batch_size], dc, mask_rng)
        epoch += 1
