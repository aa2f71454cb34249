"""Tests for the splittable counter-based RNG."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcbricks import core
from mcbricks.rng import (
    RngKey,
    fold_in,
    fold_in_range,
    make_key,
    normal_matrix,
    normal_vector,
    permutation,
    split_key,
    uniform,
    uniform_vector,
)


def test_make_key_is_deterministic():
    assert make_key(42) == make_key(42)
    assert make_key(0) != make_key(1)


def test_make_key_wraps_seed_to_64_bits():
    assert make_key(2**64 + 5) == make_key(5)
    assert make_key(-1) == make_key(2**64 - 1)


def test_key_words_fit_in_64_bits():
    key = make_key(123456789)
    assert 0 <= key.hi < 2**64
    assert 0 <= key.lo < 2**64


def test_split_is_pure():
    key = make_key(7)
    assert split_key(key, 2) == split_key(key, 2)
    assert split_key(key, 100) == split_key(key, 100)


def test_split_children_distinct_from_each_other_and_parent():
    key = make_key(3)
    children = split_key(key, 2)
    assert children[0] != children[1]
    assert key not in children


def test_split_1000_keys_no_collisions():
    children = split_key(make_key(99), 1000)
    assert len(set(children)) == 1000


def test_split_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        split_key(make_key(0), 0)


@pytest.mark.parametrize("num", [1, 3, 8, 9, 50])
def test_fold_in_matches_split(num):
    """fold_in(key, i) must agree with split_key for every prefix length."""
    key = make_key(17)
    children = split_key(key, num)
    for i in range(num):
        assert fold_in(key, i) == children[i]


def test_fold_in_rejects_negative_index():
    with pytest.raises(ValueError):
        fold_in(make_key(1), -1)


@settings(max_examples=100, deadline=None)
@given(
    key=st.builds(RngKey, st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    start=st.integers(0, 10**6),
    length=st.integers(0, 600),
)
@example(key=RngKey(2**64 - 1, 2**64 - 1), start=0, length=513)
@example(key=RngKey(0, 0), start=255, length=core._BLOCK_STEPS + 1)
def test_fold_in_range_rows_are_fold_in(key, start, length):
    """Row j is ``fold_in(key, start + j)``, across block lengths."""
    block = fold_in_range(key, start, start + length)
    assert block.dtype == np.uint64 and block.shape == (length, 2)
    assert [RngKey(*row) for row in block.tolist()] == [
        fold_in(key, i) for i in range(start, start + length)
    ]


@pytest.mark.parametrize("start, stop", [(-1, 3), (5, 4)])
def test_fold_in_range_rejects_a_bad_range(start, stop):
    with pytest.raises(ValueError):
        fold_in_range(make_key(0), start, stop)


def test_uniform_is_pure_and_in_range():
    for seed in range(200):
        key = make_key(seed)
        value = uniform(key)
        assert value == uniform(key)
        assert 0.0 <= value < 1.0


def test_uniform_mean_over_a_million_draws():
    draws = np.concatenate(
        [uniform_vector(child, 1000) for child in split_key(make_key(2024), 1000)]
    )
    assert draws.size == 1_000_000
    assert abs(draws.mean() - 0.5) < 0.002
    assert draws.min() >= 0.0
    assert draws.max() < 1.0


def test_uniform_vector_first_entry_matches_scalar():
    for seed in (0, 5, 91):
        key = make_key(seed)
        assert uniform_vector(key, 1)[0] == uniform(key)


def test_uniform_vector_zero_length():
    assert uniform_vector(make_key(4), 0).shape == (0,)


def test_normal_vector_is_pure():
    key = make_key(11)
    np.testing.assert_array_equal(normal_vector(key, 7), normal_vector(key, 7))


def test_normal_vector_moments_over_a_million_draws():
    draws = normal_vector(make_key(31337), 1_000_000)
    assert abs(draws.mean()) < 0.005
    assert abs(draws.var() - 1.0) < 0.01


def test_normal_vector_lengths_do_not_share_a_prefix():
    """Different request lengths are distinct streams, not prefixes."""
    key = make_key(8)
    assert not np.array_equal(normal_vector(key, 2), normal_vector(key, 3)[:2])


def test_normal_vector_odd_length_and_empty():
    assert normal_vector(make_key(6), 3).shape == (3,)
    assert normal_vector(make_key(6), 0).shape == (0,)
    assert np.all(np.isfinite(normal_vector(make_key(6), 1001)))


def test_normal_matrix_shape_and_purity():
    key = make_key(12)
    draws = normal_matrix(key, 4, 3)
    assert draws.shape == (4, 3)
    np.testing.assert_array_equal(draws, normal_matrix(key, 4, 3))


def test_streams_from_sibling_keys_are_uncorrelated():
    left, right = split_key(make_key(55), 2)
    a = normal_vector(left, 10_000)
    b = normal_vector(right, 10_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_permutation_is_a_permutation():
    for seed in range(20):
        perm = permutation(make_key(seed), 30)
        np.testing.assert_array_equal(np.sort(perm), np.arange(30))


def test_permutation_edge_sizes():
    assert permutation(make_key(1), 0).shape == (0,)
    np.testing.assert_array_equal(permutation(make_key(1), 1), [0])


def test_permutation_first_element_roughly_uniform():
    counts = np.zeros(4, dtype=int)
    for seed in range(4096):
        counts[permutation(make_key(seed), 4)[0]] += 1
    # 5 sigma around 1024 under Binomial(4096, 1/4).
    assert np.all(np.abs(counts - 1024) < 140)


def test_keys_are_value_types():
    key = RngKey(3, 4)
    assert key == RngKey(3, 4)
    assert hash(key) == hash(RngKey(3, 4))


# --- Stream pins -------------------------------------------------------------
# A frozen copy of the generator as first released.  Bitwise replay of every
# saved run rests on these streams, so any change to them is a break, even
# one that keeps purity and moments.

_REF_MASK = 0xFFFFFFFFFFFFFFFF
_REF_GOLDEN = 0x9E3779B97F4A7C15


def _ref_mix64(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _REF_MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _REF_MASK
    return z ^ (z >> 31)


def _ref_mix64_np(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _ref_stream_seed(key, tag):
    z = _ref_mix64((key.hi + _REF_GOLDEN) & _REF_MASK)
    z = _ref_mix64(z ^ key.lo)
    return _ref_mix64(z ^ (tag * _REF_GOLDEN & _REF_MASK))


def _ref_word(seed, index):
    return _ref_mix64((seed + index * _REF_GOLDEN) & _REF_MASK)


def _ref_words_np(seed, count):
    idx = np.arange(count, dtype=np.uint64)
    return _ref_mix64_np(np.uint64(seed) + idx * np.uint64(_REF_GOLDEN))


def _ref_fold_in(key, index):
    seed = _ref_stream_seed(key, 1)
    return RngKey(_ref_word(seed, 2 * index), _ref_word(seed, 2 * index + 1))


def _ref_split_key(key, num):
    if num <= 8:
        seed = _ref_stream_seed(key, 1)
        return [RngKey(_ref_word(seed, 2 * i), _ref_word(seed, 2 * i + 1)) for i in range(num)]
    words = _ref_words_np(_ref_stream_seed(key, 1), 2 * num)
    return [RngKey(int(words[2 * i]), int(words[2 * i + 1])) for i in range(num)]


def _ref_uniform(key):
    return (_ref_word(_ref_stream_seed(key, 2), 0) >> 11) * (1.0 / 9007199254740992.0)


def _ref_uniform_vector(key, num):
    words = _ref_words_np(_ref_stream_seed(key, 2), num)
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _ref_normal_vector(key, num):
    if num == 0:
        return np.zeros(0)
    inv = 1.0 / 9007199254740992.0
    pairs = (num + 1) // 2
    seed = _ref_stream_seed(key, 3)
    seed = _ref_mix64((seed + num * _REF_GOLDEN) & _REF_MASK)
    words = _ref_words_np(seed, 2 * pairs)
    u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * inv
    u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * inv
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:num]


def _ref_permutation(key, num):
    return np.argsort(_ref_words_np(_ref_stream_seed(key, 4), num), kind="stable")


def _battery(count=1200):
    """Seeded keys (full 64-bit words), lengths 0-130, indices up to 1e6."""
    rs = np.random.default_rng(20240601)
    his = rs.integers(0, 2**64, size=count, dtype=np.uint64).tolist()
    los = rs.integers(0, 2**64, size=count, dtype=np.uint64).tolist()
    lengths = rs.integers(0, 131, size=count).tolist()
    indices = rs.integers(0, 10**6 + 1, size=count).tolist()
    # Make sure every length, both parities and the 8/9 split switch occur.
    lengths[:131] = range(131)
    return [RngKey(h, l) for h, l in zip(his, los)], lengths, indices


def test_integer_streams_match_the_reference_bitwise():
    keys, lengths, indices = _battery()
    for key, num, index in zip(keys, lengths, indices):
        assert fold_in(key, index) == _ref_fold_in(key, index)
        if num >= 1:
            assert split_key(key, num) == _ref_split_key(key, num)
        assert uniform(key) == _ref_uniform(key)
        assert uniform_vector(key, num).tobytes() == _ref_uniform_vector(key, num).tobytes()
        assert permutation(key, num).tolist() == _ref_permutation(key, num).tolist()


def test_normal_streams_match_the_reference_bitwise():
    keys, lengths, _ = _battery()
    for key, num in zip(keys, lengths):
        assert normal_vector(key, num).tobytes() == _ref_normal_vector(key, num).tobytes()
    for num in (255, 256, 1001, 4097):
        key = make_key(num)
        assert normal_vector(key, num).tobytes() == _ref_normal_vector(key, num).tobytes()
        assert normal_matrix(key, num, 3).tobytes() == _ref_normal_vector(key, 3 * num).tobytes()


def test_streams_match_pinned_literals():
    key = make_key(2024)
    assert key == RngKey(13528552476626338937, 11487996472437173461)
    assert split_key(key, 2) == [
        RngKey(12739832064446092222, 18399515615473694713),
        RngKey(9917414981656405461, 5865425139696595429),
    ]
    assert split_key(key, 9)[8] == RngKey(18265767619257873670, 16877409363617217625)
    assert fold_in(key, 10**6) == RngKey(10526266564555858580, 2273999646020389442)
    assert uniform(key) * 2**53 == 1348016635693513
    words = (uniform_vector(key, 3) * 2**53).tolist()
    assert words == [1348016635693513, 8598777275225152, 5560518912330084]
    assert permutation(key, 8).tolist() == [6, 0, 2, 3, 4, 7, 5, 1]
