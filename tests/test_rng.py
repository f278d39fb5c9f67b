import numpy as np
import pytest
from hypothesis import given, strategies as st

from drawlab.rng import (
    RngStream,
    advance_keys,
    derive_key,
    derive_sub,
    mix64,
    mix64_np,
    trial_keys,
    words_np,
)


def test_golden_values_pin_the_stream():
    # frozen from the first implementation; any change breaks reproducibility
    assert derive_key(42, 1, 0, 7) == 2836833261742767819
    s = RngStream(42, 1, 0, 7)
    assert [s.next_word() for _ in range(4)] == [
        2384123255822071554,
        16020330072937852379,
        1236464990557438207,
        4824464504695615944,
    ]


def test_identical_path_identical_stream():
    a = RngStream(7, 3, 5)
    b = RngStream(7, 3, 5)
    assert [a.next_word() for _ in range(16)] == [b.next_word() for _ in range(16)]


def test_distinct_labels_distinct_streams():
    seen = set()
    for trial in range(200):
        seen.add(RngStream(1, 2, trial).next_word())
    assert len(seen) == 200


def test_scalar_and_vector_words_agree():
    key = derive_key(123, 4, 9)
    scalar = RngStream.from_key(key)
    expect = [scalar.next_word() for _ in range(64)]
    got = words_np(np.uint64(key), np.arange(64)).tolist()
    assert got == expect


def test_trial_keys_match_derive_key():
    cell = derive_key(99, 1, 31)
    keys = trial_keys(cell, np.arange(50, dtype=np.uint64))
    for t in range(50):
        assert int(keys[t]) == derive_key(99, 1, 31, t) == derive_sub(cell, t)


@given(
    st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_advanced_key_reads_the_stream_from_its_offset(keys, offset):
    # word(key, offset + i) == word(key + offset * GAMMA, i) mod 2**64, for
    # keys and offsets whose sums wrap around
    keys = np.array(keys + [2**64 - 1], dtype=np.uint64)
    i = np.arange(5, dtype=np.uint64)
    moved = advance_keys(keys, offset)
    for key, new in zip(keys.tolist(), moved.tolist()):
        stream = RngStream.from_key(key, pos=offset)
        assert words_np(np.uint64(new), i).tolist() == [stream.next_word() for _ in range(5)]
    # offsets broadcast against keys, one row per offset
    offsets = np.array([[0], [offset], [2**64 - 1]], dtype=np.uint64)
    grid = advance_keys(keys, offsets)
    assert grid.shape == (3, keys.size) and (grid[0] == keys).all() and (grid[1] == moved).all()
    assert (words_np(grid[2][:, None], i) == words_np(keys[:, None], i - np.uint64(1))).all()


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_vectorised_matches_scalar(z):
    assert int(mix64_np(np.array([z], dtype=np.uint64))[0]) == mix64(z)


def test_mix64_np_leaves_its_input_unchanged():
    rng = np.random.default_rng(8)
    words = np.concatenate(
        [np.array([0, 2**64 - 1], dtype=np.uint64), rng.integers(0, 2**64, 62, dtype=np.uint64)]
    )
    before = words.copy()
    got = mix64_np(words)
    assert (words == before).all()
    assert got.tolist() == [mix64(z) for z in before.tolist()]
    # a second call on the same input gives the same words
    assert (mix64_np(words) == got).all()
    # neither do the stream-word and trial-key builders change their inputs
    words_np(words, np.arange(3, dtype=np.uint64)[:, None])
    trial_keys(7, words)
    assert (words == before).all()


def test_randbelow_bounds_and_error():
    s = RngStream(5)
    vals = [s.randbelow(7) for _ in range(500)]
    assert set(vals) <= set(range(7))
    assert len(set(vals)) == 7  # all residues show up quickly
    with pytest.raises(ValueError):
        s.randbelow(0)


def test_draw_order_is_permutation_and_word_count():
    s = RngStream(11)
    items = list(range(8))
    order = s.draw_order(items)
    assert sorted(order) == items
    assert s.pos == 8  # consumes exactly len(items) words


def test_draw_order_uniformity_coarse():
    # each item should land in each position with frequency ~1/4
    counts = np.zeros((4, 4))
    for t in range(4000):
        order = RngStream(3, t).draw_order([0, 1, 2, 3])
        for pos, item in enumerate(order):
            counts[item, pos] += 1
    freq = counts / 4000
    assert np.abs(freq - 0.25).max() < 0.035  # ~5 sigma at n=4000
