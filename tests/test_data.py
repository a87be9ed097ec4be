import math

import numpy as np
import numpy.testing as npt
import pytest

from growtrain.data import (DataConfig, gen_corpus, iter_batches, mask_tokens,
                            transition_matrix, truncate)
from growtrain.errors import InputError, ValidationError
from growtrain.model import ModelConfig
from growtrain.rng import Rng
from growtrain.train import Schedule, Stage


def small_dc(**kw):
    base = dict(V=16, corpus_size=8, seq_len_full=32, train_len=32,
                masks_per_seq=4)
    base.update(kw)
    return DataConfig(**base)


def scalar_gen_corpus(dc, rng, stream="train"):
    """Token-by-token ``Generator.choice`` loop: the reference gen_corpus equals."""
    T = transition_matrix(dc, rng.fork("transitions"))
    marginal = np.full(dc.V, 1.0 / (dc.V - 1))
    marginal[dc.mask_token_id] = 0.0
    r = rng.fork(f"sequences.{stream}")
    corpus = np.zeros((dc.corpus_size, dc.seq_len_full), dtype=np.int64)
    for s in range(dc.corpus_size):
        corpus[s, 0] = r.choice(dc.V, p=marginal)
        for i in range(1, dc.seq_len_full):
            p = marginal if dc.markov_order == 0 else T[corpus[s, i - 1]]
            corpus[s, i] = r.choice(dc.V, p=p)
    return corpus


class TestDataConfig:
    def test_validation_catches_bad_lengths(self):
        with pytest.raises(ValidationError):
            small_dc(train_len=64).validate()
        with pytest.raises(ValidationError):
            small_dc(masks_per_seq=32).validate()
        with pytest.raises(ValidationError):
            small_dc(mask_token_id=16).validate()
        with pytest.raises(ValidationError):
            small_dc(corpus_size=0).validate()

    def test_round_trip_dict(self):
        dc = small_dc()
        assert DataConfig.from_dict(dc.to_dict()) == dc


class TestGenCorpus:
    def test_deterministic_per_seed(self):
        dc = small_dc()
        a = gen_corpus(dc, Rng(3))
        b = gen_corpus(dc, Rng(3))
        npt.assert_array_equal(a, b)
        c = gen_corpus(dc, Rng(4))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("order", [0, 1])
    def test_equals_scalar_choice_loop(self, seed, order):
        dc = small_dc(markov_order=order, mask_token_id=seed, seed=seed)
        for stream in ("train", "heldout"):
            npt.assert_array_equal(gen_corpus(dc, Rng(seed), stream),
                                   scalar_gen_corpus(dc, Rng(seed), stream))

    def test_mask_token_never_emitted(self):
        corpus = gen_corpus(small_dc(), Rng(5))
        assert not np.any(corpus == 0)

    def test_streams_differ_but_share_chain(self):
        dc = small_dc()
        train = gen_corpus(dc, Rng(6), stream="train")
        heldout = gen_corpus(dc, Rng(6), stream="heldout")
        assert not np.array_equal(train, heldout)

    def test_bigram_statistics_match_transition_matrix(self):
        # V=4 minus the mask token leaves 3 usable tokens
        dc = DataConfig(V=4, corpus_size=100, seq_len_full=1000, train_len=1000,
                        masks_per_seq=10)
        rng = Rng(7)
        T = transition_matrix(dc, rng.fork("transitions"))
        corpus = gen_corpus(dc, rng)
        prev = corpus[:, :-1].ravel()
        nxt = corpus[:, 1:].ravel()
        for tok in (1, 2, 3):
            sel = nxt[prev == tok]
            count = sel.size
            for succ in (1, 2, 3):
                p = T[tok, succ]
                sigma = math.sqrt(p * (1 - p) / count)
                freq = np.mean(sel == succ)
                assert abs(freq - p) < max(3 * sigma, 1e-3)

    def test_order_zero_is_iid(self):
        dc = DataConfig(V=4, corpus_size=50, seq_len_full=1000, train_len=1000,
                        masks_per_seq=10, markov_order=0)
        corpus = gen_corpus(dc, Rng(8))
        # each non-mask token uniform at 1/3 regardless of predecessor
        prev = corpus[:, :-1].ravel()
        nxt = corpus[:, 1:].ravel()
        n = prev.size
        sigma = math.sqrt((1 / 3) * (2 / 3) / n)
        for tok in (1, 2, 3):
            for succ in (1, 2, 3):
                sel = nxt[prev == tok]
                freq = np.mean(sel == succ)
                assert abs(freq - 1 / 3) < 5 * math.sqrt(
                    (1 / 3) * (2 / 3) / sel.size)

    def test_rows_are_stochastic(self):
        dc = small_dc()
        T = transition_matrix(dc, Rng(9))
        npt.assert_allclose(T[1:].sum(axis=1), 1.0, atol=1e-12)
        npt.assert_array_equal(T[:, 0], 0.0)
        npt.assert_array_equal(T[0], 0.0)


class TestMaskTokens:
    def test_zero_masks_identity(self):
        seq = np.arange(1, 9)
        inp, pos, tgt = mask_tokens(seq, 0, Rng(10), 0, 16)
        npt.assert_array_equal(inp, seq)
        assert pos.size == 0 and tgt.size == 0

    def test_forced_full_mask_branch(self):
        seq = np.arange(1, 9)
        inp, pos, tgt = mask_tokens(seq, 8, Rng(11), 0, 16,
                                    replace_probs=(1.0, 0.0, 0.0))
        npt.assert_array_equal(inp, 0)
        npt.assert_array_equal(np.sort(pos), np.arange(8))
        npt.assert_array_equal(tgt, seq)

    def test_targets_are_original_tokens(self):
        seq = Rng(12).integers(1, 16, size=(64,))
        inp, pos, tgt = mask_tokens(seq, 10, Rng(13), 0, 16)
        npt.assert_array_equal(tgt, seq[pos])

    def test_positions_distinct_and_sorted(self):
        seq = np.ones(32, dtype=np.int64)
        _, pos, _ = mask_tokens(seq, 12, Rng(14), 0, 16)
        assert np.all(np.diff(pos) > 0)

    def test_random_replacement_never_mask_token(self):
        seq = np.ones(64, dtype=np.int64) * 5
        inp, pos, _ = mask_tokens(seq, 64, Rng(15), 0, 16,
                                  replace_probs=(0.0, 1.0, 0.0))
        assert not np.any(inp == 0)

    def test_split_fractions_within_3_sigma(self):
        n_draws = 10_000
        counts = {"mask": 0, "random": 0, "keep": 0}
        rng = Rng(16)
        for i in range(n_draws // 10):
            seq = rng.integers(1, 16, size=(10,))
            inp, pos, tgt = mask_tokens(seq, 10, rng.fork(f"m{i}"), 0, 16)
            for p, t in zip(pos, tgt):
                if inp[p] == 0:
                    counts["mask"] += 1
                elif inp[p] == t:
                    counts["keep"] += 1
                else:
                    counts["random"] += 1
        # "keep" undercounts when the random draw reproduces the original
        # token (prob 1/15 within the 10% branch); fold that in
        n = sum(counts.values())
        p_rand_hit = 0.1 / 15
        for key, p in (("mask", 0.8), ("random", 0.1 - p_rand_hit),
                       ("keep", 0.1 + p_rand_hit)):
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[key] / n - p) < 3 * sigma, (key, counts)

    def test_too_many_masks_rejected(self):
        with pytest.raises(InputError):
            mask_tokens(np.ones(4, dtype=np.int64), 5, Rng(17), 0, 16)


class TestTruncate:
    def test_longer_than_sequence_is_identity(self):
        seq = np.arange(8)
        npt.assert_array_equal(truncate(seq, 100), seq)

    def test_keeps_prefix(self):
        seq = np.arange(512)
        npt.assert_array_equal(truncate(seq, 128), np.arange(128))

    def test_idempotent(self):
        seq = np.arange(512)
        npt.assert_array_equal(truncate(truncate(seq, 128), 128),
                               truncate(seq, 128))


class TestBatches:
    def test_same_seed_identical_batches(self):
        dc = small_dc()
        corpus = gen_corpus(dc, Rng(18))
        a = next(iter_batches(corpus, 4, dc, Rng(19)))
        b = next(iter_batches(corpus, 4, dc, Rng(19)))
        for x, y in zip(a, b):
            npt.assert_array_equal(x, y)

    def test_epoch_partitions_corpus(self):
        dc = small_dc(masks_per_seq=2, train_len=8)
        corpus = gen_corpus(dc, Rng(20))
        it = iter_batches(corpus, 3, dc, Rng(21))
        seen = []
        rows = 0
        while rows < dc.corpus_size:
            ids, _, _ = next(it)
            rows += ids.shape[0]
            seen.extend(ids[:, :].tolist())
        # each epoch covers every corpus row exactly once (masking aside,
        # row multiset sizes must match)
        assert rows == dc.corpus_size

    def test_mask_count_constant(self):
        dc = small_dc()
        corpus = gen_corpus(dc, Rng(22))
        ids, pos, tgt = next(iter_batches(corpus, 5, dc, Rng(23)))
        assert pos.shape == (5, dc.masks_per_seq)
        assert tgt.shape == (5, dc.masks_per_seq)

    def test_truncation_applied(self):
        dc = small_dc(train_len=8, masks_per_seq=2)
        corpus = gen_corpus(dc, Rng(24))
        ids, _, _ = next(iter_batches(corpus, 4, dc, Rng(25)))
        assert ids.shape == (4, 8)

    def test_batch_targets_equal_corpus_tokens(self):
        dc = small_dc()
        corpus = gen_corpus(dc, Rng(26))
        it = iter_batches(corpus, dc.corpus_size, dc, Rng(27))
        ids, pos, tgt = next(it)
        # recover each row's source sequence by matching unmasked positions
        for j in range(ids.shape[0]):
            unmasked = np.setdiff1d(np.arange(dc.train_len), pos[j])
            match = [i for i in range(dc.corpus_size)
                     if np.array_equal(corpus[i, unmasked], ids[j][unmasked])]
            assert len(match) >= 1
            src = corpus[match[0]]
            npt.assert_array_equal(tgt[j], src[pos[j]])

    def test_bad_batch_size_rejected(self):
        """A schedule is rejected before any batch is drawn."""
        model = ModelConfig(L=1, D=4, H=8, M=2, N_max=32, V=16)
        for batch_size in (0, -1):
            stages = (Stage(steps=2), Stage(steps=2, batch_size=batch_size))
            with pytest.raises(ValidationError, match="stage 1: batch_size"):
                Schedule(stages=stages, model0=model, data0=small_dc()).validate()
