import random

import numpy as np
import numpy.testing as npt

from growtrain import rng as rng_module
from growtrain.rng import Rng, _label_hash


def test_lazy_fork_draws_the_philox_stream_of_its_path():
    fork = Rng(42).fork("stage1").fork("step3")
    assert "_gen" not in vars(fork)  # no generator before the first draw
    entropy = [42, _label_hash("stage1"), _label_hash("step3")]
    ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
    npt.assert_array_equal(fork.uniform(size=5), ref.uniform(size=5))
    npt.assert_array_equal(fork.normal(size=3), ref.normal(size=3))


def test_random_raw_is_the_uniform_stream():
    """uniform(size) returns (raw >> 11) * 2**-53 of the same draws."""
    a, b = Rng(3).fork("x"), Rng(3).fork("x")
    raw = a.random_raw((4, 6))
    assert raw.dtype == np.uint64 and raw.shape == (4, 6)
    npt.assert_array_equal((raw >> np.uint64(11)) * 2.0**-53, b.uniform(size=(4, 6)))
    npt.assert_array_equal(a.uniform(size=3), b.uniform(size=3))


def test_fork_keys_equal_seed_sequence_on_random_paths(monkeypatch):
    """Each Rng's Philox key and stream equal those of numpy's SeedSequence
    over its entropy path, whether its pool was mixed from the parent's
    pool or from scratch.  Label hashes are forced so that 0, one-word and
    two-word hashes all occur; seeds cover 0, one and two words and
    negative values."""
    forced = {}
    monkeypatch.setattr(rng_module, "_label_hash", forced.__getitem__)
    pick = random.Random(2024)
    hashes = (lambda: 0, lambda: pick.randrange(1, 2**32),
              lambda: pick.randrange(2**32, 2**64), lambda: pick.getrandbits(64))
    seeds = (0, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, -1, -2**40)
    nodes = [(Rng(seed), [seed % 2**64]) for seed in seeds]
    drawn = set()
    for i in range(2000):
        parent, entropy = pick.choice([n for n in nodes if len(n[1]) <= 6])
        if pick.random() < 0.2 and id(parent) not in drawn:
            drawn.add(id(parent))  # a parent that has drawn forks the same
            assert parent.random_raw() == np.random.Philox(
                np.random.SeedSequence(entropy)).random_raw()
        label = f"label{i}"
        forced[label] = pick.choice(hashes)()
        nodes.append((parent.fork(label), entropy + [forced[label]]))
    assert {len(entropy) - 1 for _, entropy in nodes} >= set(range(7))
    for fork, entropy in nodes:
        seq = np.random.SeedSequence(entropy)
        npt.assert_array_equal(fork._gen.bit_generator.state["state"]["key"],
                               seq.generate_state(2, np.uint64))
        ref = np.random.Philox(seq)
        ref.random_raw(int(id(fork) in drawn))
        npt.assert_array_equal(fork.random_raw(3), ref.random_raw(3))


def test_pool_generate_state_is_seed_sequences():
    seq = np.random.SeedSequence([5, 2**40, 0, 9, 2**33 + 1])
    pool = rng_module._Pool(seq.pool.tolist())
    for n_words, dtype in ((2, np.uint64), (3, np.uint64), (5, np.uint32), (0, np.uint32)):
        out = pool.generate_state(n_words, dtype)
        assert out.dtype == dtype
        npt.assert_array_equal(out, seq.generate_state(n_words, dtype))
