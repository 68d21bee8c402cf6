"""Deterministic synthetic vocabulary with Zipfian rank-frequency shape.

Words are built from alternating consonant/vowel digraphs so they look
pronounceable, are pure seven-bit ASCII (paper Section 4.4 restricts the
character set to 7-bit ASCII), and vary in length between 2 and ~14
characters with short words concentrated at the most frequent ranks — the
same qualitative shape as an English frequency list.
"""

from __future__ import annotations

from functools import lru_cache

from repro.rng.distributions import Distribution, RandomSource

DEFAULT_VOCABULARY_SIZE = 17_000

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiouy"


def _word_for_rank(rank: int) -> str:
    """Deterministically spell the word at a given frequency rank.

    The rank is written in a mixed-radix consonant/vowel system, which
    guarantees (a) all words are distinct and (b) frequent words are short,
    like in natural language.
    """
    syllables: list[str] = []
    remaining = rank
    while True:
        consonant = _CONSONANTS[remaining % len(_CONSONANTS)]
        remaining //= len(_CONSONANTS)
        vowel = _VOWELS[remaining % len(_VOWELS)]
        remaining //= len(_VOWELS)
        syllables.append(consonant + vowel)
        if remaining == 0:
            break
        remaining -= 1
    return "".join(syllables)


class Vocabulary:
    """A frozen, rank-ordered word list with a Zipf sampling distribution.

    ``anchors`` maps frequency ranks to real English words planted into the
    synthetic list.  The benchmark needs a handful of known words at known
    frequencies — Q14 greps descriptions for the word ``gold`` — and anchors
    give those searches deterministic, tunable selectivity.
    """

    __slots__ = ("_words", "_distribution")

    def __init__(
        self,
        size: int = DEFAULT_VOCABULARY_SIZE,
        exponent: float = 1.0,
        anchors: dict[int, str] | None = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"vocabulary size must be positive, got {size}")
        self._words = [_word_for_rank(rank) for rank in range(size)]
        if anchors:
            for rank, word in anchors.items():
                if not 0 <= rank < size:
                    raise ValueError(f"anchor rank {rank} outside vocabulary of {size}")
                self._words[rank] = word
        self._distribution = Distribution.zipf(size, exponent)

    def __len__(self) -> int:
        return len(self._words)

    def word(self, rank: int) -> str:
        """The word at frequency rank ``rank`` (0 = most frequent)."""
        return self._words[rank]

    def sample(self, source: RandomSource) -> str:
        """Draw one word according to the Zipf distribution."""
        return self._words[self._distribution.sample(source)]

    def sample_run(
        self, source: RandomSource, limit: int, stop_probability: float | None = None
    ) -> tuple[list[str], bool]:
        """Up to ``limit`` Zipf words drawn as one batch; see
        :meth:`Distribution.sample_run` for ``stop_probability``."""
        return self._distribution.sample_run(source, self._words, limit, stop_probability)

    def contains(self, word: str) -> bool:
        return word in self._words or word in _word_set(len(self._words))

    @property
    def words(self) -> list[str]:
        """A copy of the full rank-ordered word list."""
        return list(self._words)


@lru_cache(maxsize=4)
def _word_set(size: int) -> frozenset[str]:
    return frozenset(_word_for_rank(rank) for rank in range(size))


@lru_cache(maxsize=2)
def default_vocabulary() -> Vocabulary:
    """The shared 17 000-word vocabulary (built once per process)."""
    return Vocabulary(DEFAULT_VOCABULARY_SIZE)
