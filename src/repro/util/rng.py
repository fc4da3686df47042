"""Deterministic random number generation.

Every stochastic component in the reproduction (trace generation, Monte-Carlo
fault injection, mixed-workload selection) draws from a ``DeterministicRng``
seeded through ``derive_seed`` so that runs are bit-reproducible across
machines and Python versions.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, Sequence, TypeVar

import numpy as _np

_T = TypeVar("_T")


def mt_unit_floats(words):
    """Sliding-pair unit floats over a raw Mersenne-Twister word stream.

    ``result[i]`` is exactly the float ``random.Random.random()`` would
    produce from consecutive 32-bit words ``words[i], words[i+1]``:
    ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``. Computing every sliding
    pair (length ``len(words) - 1``) lets a decoder that interleaves
    float draws with single-word draws look up the float at any offset.
    """
    high = (words >> 5).astype(_np.float64)
    low = (words >> 6).astype(_np.float64)
    return (high[:-1] * 67108864.0 + low[1:]) / 9007199254740992.0


def derive_seed(*components: object) -> int:
    """Derive a stable 64-bit seed from arbitrary printable components.

    Uses SHA-256 over the ``repr`` of each component, so the same logical
    inputs always produce the same seed while distinct experiments get
    independent streams.
    """
    digest = hashlib.sha256()
    for component in components:
        digest.update(repr(component).encode("utf-8"))
        digest.update(b"\x00")
    return int.from_bytes(digest.digest()[:8], "big")


def derive_seeds(prefix: Sequence[object], suffixes: Iterable[object]) -> List[int]:
    """``[derive_seed(*prefix, suffix) for suffix in suffixes]``, cheaply.

    The prefix is hashed once and the SHA-256 state copied per suffix,
    which feeds the digest the same bytes as :func:`derive_seed`.
    """
    head = hashlib.sha256()
    for component in prefix:
        head.update(repr(component).encode("utf-8"))
        head.update(b"\x00")
    seeds = []
    for suffix in suffixes:
        digest = head.copy()
        digest.update(repr(suffix).encode("utf-8") + b"\x00")
        seeds.append(int.from_bytes(digest.digest()[:8], "big"))
    return seeds


class ReseedableStream:
    """One Mersenne Twister reseeded in place for many short draw sequences.

    After ``reseed(seed)``, ``random`` and ``getrandbits`` return exactly
    what a fresh ``DeterministicRng(seed)`` draws from its underlying
    :class:`random.Random`, without allocating a generator per sequence.
    Consumers that need ``randint``/``weighted_choice`` draws inline the
    stdlib's arithmetic over these two primitives.
    """

    __slots__ = ("reseed", "random", "getrandbits")

    def __init__(self) -> None:
        generator = random.Random(0)
        # The C-level seed: for an int, random.Random.seed adds only type
        # checks and a reset of the gauss() cache, which is never drawn here.
        self.reseed = super(random.Random, generator).seed
        self.random = generator.random
        self.getrandbits = generator.getrandbits


class DeterministicRng:
    """A seeded RNG wrapper with the handful of draws the simulators need.

    Wraps :class:`random.Random` (Mersenne twister), whose sequence is
    guaranteed stable across Python versions for the methods used here.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        """The seed this generator was created with."""
        return self._seed

    def fork(self, *components: object) -> "DeterministicRng":
        """Create an independent child stream labelled by ``components``."""
        return DeterministicRng(derive_seed(self._seed, *components))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Draw a float uniformly from ``[low, high)``."""
        return low + (high - low) * self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Draw an integer uniformly from ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def randbits(self, width: int) -> int:
        """Draw ``width`` uniformly random bits."""
        return self._random.getrandbits(width)

    def randbytes(self, length: int) -> bytes:
        """Draw ``length`` uniformly random bytes."""
        return self._random.getrandbits(8 * length).to_bytes(length, "big") if length else b""

    def choice(self, options: Sequence[_T]) -> _T:
        """Pick one element uniformly."""
        return self._random.choice(options)

    def sample(self, options: Sequence[_T], count: int) -> List[_T]:
        """Sample ``count`` distinct elements."""
        return self._random.sample(options, count)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def expovariate(self, rate: float) -> float:
        """Draw from an exponential distribution with the given rate."""
        return self._random.expovariate(rate)

    def poisson(self, mean: float) -> int:
        """Draw from a Poisson distribution (Knuth/inversion hybrid).

        Used by the reference (non-vectorised) Monte-Carlo fault simulator;
        the fast path uses numpy instead.
        """
        if mean < 0:
            raise ValueError("mean must be non-negative")
        if mean == 0:
            return 0
        if mean < 30:
            # Knuth's product-of-uniforms method.
            import math

            limit = math.exp(-mean)
            count = 0
            product = self._random.random()
            while product > limit:
                count += 1
                product *= self._random.random()
            return count
        # Normal approximation with continuity correction for large means.
        import math

        draw = self._random.gauss(mean, math.sqrt(mean))
        return max(0, int(round(draw)))

    def weighted_choice(self, options: Sequence[_T], weights: Iterable[float]) -> _T:
        """Pick one element with the given (unnormalised) weights."""
        return self._random.choices(list(options), weights=list(weights), k=1)[0]

    # -- raw word-stream access (vectorised consumers) -------------------

    def _transplant(self):
        """numpy MT19937 generator cloned from the current CPython state.

        ``random.Random`` and ``numpy.random.MT19937`` implement the same
        Mersenne Twister; copying the 624-word key plus position makes the
        numpy side emit exactly the 32-bit words the CPython side would,
        across twist boundaries.
        """
        state = self._random.getstate()
        mt = _np.random.MT19937()
        mt.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": _np.array(state[1][:624], dtype=_np.uint32),
                "pos": state[1][624],
            },
        }
        return mt

    def peek_raw_words(self, count: int):
        """The next ``count`` raw 32-bit words, without consuming them.

        Vectorised decoders peek a budget of words, decode, then commit
        the exact number consumed via :meth:`advance_raw_words`.
        """
        return self._transplant().random_raw(count)

    def begin_raw_block(self, budget: int):
        """Peek ``budget`` raw words plus a handle for exact commit.

        Returns ``(words, handle)`` where ``words`` are the next
        ``budget`` 32-bit outputs (uint64 array) and ``handle`` is the
        generator that produced them, positioned ``budget`` words ahead.
        Pass the handle to :meth:`commit_raw_block` to consume the exact
        prefix that was actually decoded.
        """
        mt = self._transplant()
        return mt.random_raw(budget), mt

    def commit_raw_block(self, handle, budget: int, consumed: int) -> None:
        """Consume ``consumed`` <= ``budget`` words of a peeked block.

        Rewinds the handle's end-of-block state by the surplus when the
        surplus stays within the current 624-word key block (always true
        for an exact-budget peek), avoiding a second pass over the word
        stream; otherwise falls back to :meth:`advance_raw_words`.
        """
        surplus = budget - consumed
        inner = handle.state["state"]
        position = int(inner["pos"]) - surplus
        if position >= 0:
            state = self._random.getstate()
            self._random.setstate(
                (
                    state[0],
                    tuple(int(word) for word in inner["key"]) + (position,),
                    state[2],
                )
            )
        else:
            self.advance_raw_words(consumed)

    def advance_raw_words(self, count: int) -> None:
        """Consume exactly ``count`` raw words from the underlying stream.

        Leaves this generator in the state the scalar path would reach
        after drawing the same words, so scalar and vectorised consumers
        interleave reproducibly.
        """
        if count <= 0:
            return
        state = self._random.getstate()
        mt = self._transplant()
        mt.random_raw(count)
        inner = mt.state["state"]
        self._random.setstate(
            (
                state[0],
                tuple(int(word) for word in inner["key"]) + (int(inner["pos"]),),
                state[2],
            )
        )
