"""Deterministic random-number substreams.

Every randomized operation in this package takes an explicit integer seed
and derives its own Philox (counter-based) stream from it. Sub-streams are
keyed by (seed, purpose-tag, index...) so that results are reproducible and
independent of execution order: two operations that hash to different tags
never share a stream, no matter how the caller schedules them.
"""

from __future__ import annotations

import hashlib

import numpy as np

_WORD = 0xFFFFFFFF


def _tag_words(tag) -> list[int]:
    """Map a tag (int or str) to 32-bit entropy words, stably across runs."""
    if isinstance(tag, (int, np.integer)):
        v = int(tag)
        if v < 0:
            raise ValueError(f"negative tag {v}")
        words = []
        while True:
            words.append(v & _WORD)
            v >>= 32
            if v == 0:
                return words
    if isinstance(tag, str):
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    raise TypeError(f"tag must be int or str, got {type(tag).__name__}")


def seed_sequence(seed: int, *tags) -> np.random.SeedSequence:
    words = _tag_words(seed)
    for tag in tags:
        words.extend(_tag_words(tag))
    # Every word is below 2**32, so a uint32 array is the entropy the list
    # would be coerced to, built in one call instead of one array per word.
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def substream(seed: int, *tags) -> np.random.Generator:
    """Generator for the (seed, *tags) sub-stream, e.g. substream(7, "rr", 3)."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *tags)))


def derive_seed(seed: int, *tags) -> int:
    """Derived integer seed, for passing a sub-stream across an explicit-seed API."""
    return int(seed_sequence(seed, *tags).generate_state(2, np.uint32).view(np.uint64)[0])
