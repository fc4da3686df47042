"""Deterministic random number generation.

Every stochastic component in the reproduction (trace generation, Monte-Carlo
fault injection, mixed-workload selection) draws from a Mersenne Twister
seeded through ``derive_seed`` (a ``DeterministicRng``, or in the hot loops
the :class:`random.Random` it wraps) so that runs are bit-reproducible
across machines and Python versions.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, Sequence, TypeVar

_T = TypeVar("_T")


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
    """One Mersenne Twister reseeded in place for draw sequences.

    After ``reseed(seed)``, ``random`` and ``getrandbits`` return exactly
    what a fresh ``DeterministicRng(seed)`` draws from its underlying
    :class:`random.Random`, without allocating a generator per sequence.
    Consumers that need ``randint``/``weighted_choice``/``expovariate``
    draws inline the stdlib's arithmetic over these two primitives: the
    Monte-Carlo fault sampler (many short sequences) and the trace
    generator (one per trace).
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
