import numpy as np
import pytest

from labeldp.rng import _tag_words, derive_seed, seed_sequence, substream


def test_same_key_same_stream():
    a = substream(42, "tag", 1).random(100)
    b = substream(42, "tag", 1).random(100)
    np.testing.assert_array_equal(a, b)


def test_different_tags_differ():
    a = substream(42, "tag-a").random(100)
    b = substream(42, "tag-b").random(100)
    assert not np.array_equal(a, b)


def test_different_indices_differ():
    a = substream(42, "tag", 0).random(100)
    b = substream(42, "tag", 1).random(100)
    assert not np.array_equal(a, b)


def test_derived_seed_is_stable():
    # Canary pinning the substream derivation; a change here silently breaks
    # bit-reproducibility of every result file.
    assert derive_seed(7, "mc-labels", 3) == 8987189664048851541


def test_stream_values_are_stable():
    np.testing.assert_allclose(
        substream(0, "x").random(3),
        [0.12059061257070059, 0.7643186668559848, 0.07238206775046023],
        atol=1e-15,
    )


def test_large_integer_tags_supported():
    a = substream(1, 2**40 + 5).random(4)
    b = substream(1, 2**40 + 5).random(4)
    np.testing.assert_array_equal(a, b)


def test_negative_tag_rejected():
    with pytest.raises(ValueError):
        substream(1, -3)


def test_float_tag_rejected():
    with pytest.raises(TypeError):
        substream(1, 2.5)


def _random_tag(rng):
    """0, a value at or beside 2**32, a 70-bit int, a 32-bit int or a string."""
    return [
        0,
        2**32 - 1 + int(rng.integers(0, 3)),
        int(rng.integers(0, 2**62)) << 8 | int(rng.integers(0, 256)),
        int(rng.integers(0, 2**32)),
        f"tag-{rng.integers(0, 50)}",
    ][rng.integers(0, 5)]


def test_seed_sequence_matches_the_word_list():
    """The uint32 entropy array gives the SeedSequence of the plain list of
    words: the same pool and the same generated state."""
    rng = np.random.default_rng(2023)
    for _ in range(500):
        seed, *tags = (_random_tag(rng) for _ in range(rng.integers(1, 6)))
        words = _tag_words(seed)
        for tag in tags:
            words += _tag_words(tag)
        expected = np.random.SeedSequence(words)
        got = seed_sequence(seed, *tags)
        np.testing.assert_array_equal(got.pool, expected.pool)
        np.testing.assert_array_equal(got.generate_state(4, np.uint64),
                                      expected.generate_state(4, np.uint64))
