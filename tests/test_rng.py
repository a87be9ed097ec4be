import numpy as np
import numpy.testing as npt

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
