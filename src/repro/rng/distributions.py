"""Random variates on top of the deterministic core generator.

The paper (Section 4.5): "this xmlgen implements uniform, exponential, and
normal distributions of fairly high quality" using "basic algorithms which can
be found in statistics textbooks".  We implement exactly those — inverse-CDF
for the exponential, Marsaglia's polar method for the normal — plus a Zipf
sampler used by the text generator's word-frequency model.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from typing import TypeVar

from repro.rng.lcg import _DOUBLE_SCALE, _INCREMENT, _MASK, _MULTIPLIER, Lcg48

T = TypeVar("T")


class RandomSource:
    """High-level random variates over a :class:`Lcg48` core.

    All methods consume a deterministic number of core values for a given
    outcome, so a ``RandomSource`` built from a cloned core replays the exact
    same decisions.
    """

    __slots__ = ("_core", "_spare_normal")

    def __init__(self, core: Lcg48) -> None:
        self._core = core
        self._spare_normal: float | None = None

    @classmethod
    def from_seed(cls, seed: int) -> "RandomSource":
        return cls(Lcg48(seed))

    @property
    def core(self) -> Lcg48:
        return self._core

    def clone(self) -> "RandomSource":
        """Replayable copy: the clone produces the identical future sequence."""
        twin = RandomSource(self._core.clone())
        twin._spare_normal = self._spare_normal
        return twin

    # -- uniform -----------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in ``[low, high)``."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high})")
        return low + (high - low) * self._core.next_double()

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + self._core.next_uint(high - low + 1)

    def boolean(self, probability: float = 0.5) -> bool:
        """True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        return self._core.next_double() < probability

    # -- textbook continuous distributions ----------------------------------

    def exponential(self, mean: float = 1.0) -> float:
        """Exponential variate by inverse CDF: ``-mean * ln(1 - U)``."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        # 1 - U is in (0, 1] so the log argument is never zero.
        return -mean * math.log(1.0 - self._core.next_double())

    def normal(self, mean: float = 0.0, stddev: float = 1.0) -> float:
        """Normal variate via Marsaglia's polar method (with spare caching)."""
        if stddev < 0:
            raise ValueError(f"stddev must be non-negative, got {stddev}")
        if self._spare_normal is not None:
            value = self._spare_normal
            self._spare_normal = None
            return mean + stddev * value
        while True:
            u = 2.0 * self._core.next_double() - 1.0
            v = 2.0 * self._core.next_double() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                factor = math.sqrt(-2.0 * math.log(s) / s)
                self._spare_normal = v * factor
                return mean + stddev * u * factor

    # -- discrete helpers ----------------------------------------------------

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self._core.next_uint(len(items))]

    def sample_without_replacement(self, population: int, count: int) -> list[int]:
        """``count`` distinct integers from ``range(population)``.

        Floyd's algorithm: O(count) expected work regardless of population
        size, which matters because the generator must stay resource-constant.
        """
        if count > population:
            raise ValueError(f"cannot sample {count} from {population}")
        chosen: set[int] = set()
        result: list[int] = []
        for j in range(population - count, population):
            candidate = self._core.next_uint(j + 1)
            if candidate in chosen:
                candidate = j
            chosen.add(candidate)
            result.append(candidate)
        return result

    def shuffle(self, items: list[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self._core.next_uint(i + 1)
            items[i], items[j] = items[j], items[i]


class Distribution:
    """A frozen discrete distribution sampled by inverse CDF.

    Used for the Zipfian word-frequency model: build once, sample many times
    with one core value per draw (binary search over the cumulative weights).
    """

    __slots__ = ("_cumulative", "_total", "_guide", "_guide_shift")

    def __init__(self, weights: Sequence[float]) -> None:
        if not weights:
            raise ValueError("distribution needs at least one weight")
        cumulative: list[float] = []
        total = 0.0
        for weight in weights:
            if weight < 0:
                raise ValueError(f"negative weight: {weight}")
            total += weight
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        cumulative[-1] = 1.0  # guard against floating-point shortfall
        self._cumulative = cumulative
        self._total = total
        # Guide table for sample_run: [0, 1) cut into 2**bits equal slices;
        # guide[k] is the index every u in slice k draws, or -1 where a
        # cumulative boundary falls inside the slice and the draw bisects.
        bits = min(16, (2 * len(cumulative)).bit_length())
        slices = 1 << bits
        guide = [-1] * slices
        start = 0
        for index, bound in enumerate(cumulative):
            boundary_slice = int(bound * slices)
            guide[start:boundary_slice] = [index] * (boundary_slice - start)
            start = max(start, boundary_slice + 1)
        self._guide = guide
        self._guide_shift = 48 - bits

    @classmethod
    def zipf(cls, size: int, exponent: float = 1.0) -> "Distribution":
        """Zipfian rank-frequency distribution over ``size`` ranks."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        return cls([1.0 / (rank ** exponent) for rank in range(1, size + 1)])

    def __len__(self) -> int:
        return len(self._cumulative)

    def sample(self, source: RandomSource) -> int:
        """Draw one index in ``[0, len(self))``."""
        return bisect_right(self._cumulative, source.core.next_double())

    def sample_run(
        self,
        source: RandomSource,
        values: Sequence[T],
        limit: int,
        stop_probability: float | None = None,
    ) -> tuple[list[T], bool]:
        """Up to ``limit`` draws of ``values[self.sample(source)]`` as one batch.

        With a ``stop_probability``, every draw is followed by the draw
        ``source.boolean(stop_probability)`` and the first True ends the
        run.  Returns the run and whether such a draw ended it.  The core
        is stepped in locals and handed back through ``getstate`` and
        ``setstate``, so it is left exactly where the call-per-draw loop
        leaves it.
        """
        cumulative, guide, shift = self._cumulative, self._guide, self._guide_shift
        draws_stop = stop_probability is not None
        # u < p for u = state / 2**48 is state < ceil(p * 2**48), in integers.
        stop_below = math.ceil(stop_probability * (1 << 48)) if draws_stop else 0
        core = source.core
        state = core.getstate()
        run: list[T] = []
        add = run.append
        stopped = False
        for _ in range(limit):
            state = (state * _MULTIPLIER + _INCREMENT) & _MASK
            index = guide[state >> shift]
            if index < 0:
                index = bisect_right(cumulative, state * _DOUBLE_SCALE)
            add(values[index])
            if draws_stop:
                state = (state * _MULTIPLIER + _INCREMENT) & _MASK
                if state < stop_below:
                    stopped = True
                    break
        core.setstate(state)
        return run, stopped

    def probability(self, index: int) -> float:
        """The probability mass of ``index`` (for tests)."""
        lower = self._cumulative[index - 1] if index > 0 else 0.0
        return self._cumulative[index] - lower
