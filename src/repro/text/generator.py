"""Generators for prose and scrambled real-world-like entities.

Prose generation feeds the document-centric halves of the benchmark document
(description/annotation subtrees); entity generation feeds names, emails,
phone numbers, addresses, dates and currency amounts.  Everything draws from
an explicit :class:`~repro.rng.distributions.RandomSource`, never from global
state, so output is a pure function of (seed, call sequence).
"""

from __future__ import annotations

from repro.rng.distributions import RandomSource
from repro.text.vocabulary import Vocabulary, default_vocabulary

# Scrambled-directory building blocks, standing in for the paper's
# "electronically available phone directories ... scrambled".
_FIRST_NAMES = (
    "Adem", "Bela", "Ciro", "Dina", "Ewa", "Farid", "Gerd", "Hana", "Ivan",
    "Jana", "Kiri", "Lena", "Mato", "Nils", "Odin", "Pia", "Quim", "Rosa",
    "Sven", "Tove", "Ulla", "Vito", "Wanda", "Xeno", "Yuri", "Zita",
    "Arno", "Brit", "Cleo", "Dario", "Edda", "Falk", "Gina", "Henk",
    "Ines", "Jorg", "Kari", "Lino", "Mira", "Nino",
)
_LAST_NAMES = (
    "Abruca", "Bentham", "Cordoza", "Dumont", "Eriksen", "Fontane", "Grieg",
    "Haldane", "Ibsen", "Jansen", "Kellner", "Lombard", "Marquez", "Norden",
    "Olsson", "Pintor", "Quesada", "Ribeiro", "Sandoval", "Thorsen",
    "Umbrage", "Valdes", "Wexler", "Xerxes", "Ystad", "Zapata",
    "Arkwright", "Bellamy", "Carmine", "Delgado", "Eastman", "Fairfax",
)
_EMAIL_DOMAINS = (
    "example.com", "mail.test", "inbox.invalid", "post.example",
    "box.test", "webmail.invalid", "portal.example", "net.test",
)
_CITIES = (
    "Amsterdam", "Bergen", "Cadiz", "Dresden", "Esbjerg", "Florence",
    "Gdansk", "Haarlem", "Izmir", "Jena", "Krakow", "Lisbon", "Malmo",
    "Nantes", "Oporto", "Pilsen", "Quimper", "Rouen", "Split", "Tartu",
)
_COUNTRIES = (
    "United States", "Netherlands", "Germany", "France", "Norway",
    "Portugal", "Poland", "Estonia", "Croatia", "Turkey",
)
_PROVINCES = (
    "Drenthe", "Friesland", "Gelderland", "Groningen", "Limburg",
    "Overijssel", "Utrecht", "Zeeland",
)
_STREET_KINDS = ("St", "Ave", "Rd", "Blvd", "Way", "Lane")
_EDUCATION_LEVELS = ("High School", "College", "Graduate School", "Other")
_CURRENCIES = ("money order", "creditcard", "personal check", "cash")


class TextGenerator:
    """Prose and entity text driven by a caller-supplied random source."""

    __slots__ = ("_vocabulary",)

    def __init__(self, vocabulary: Vocabulary | None = None) -> None:
        self._vocabulary = vocabulary or default_vocabulary()

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    # -- prose ---------------------------------------------------------------

    def words(self, source: RandomSource, count: int) -> list[str]:
        """``count`` Zipf-distributed words."""
        return self._vocabulary.sample_run(source, count)[0]

    def sentence(self, source: RandomSource, min_words: int = 4, max_words: int = 18) -> str:
        """One space-separated pseudo-sentence (no punctuation, per §4.3)."""
        count = source.uniform_int(min_words, max_words)
        return " ".join(self.words(source, count))

    def paragraph(self, source: RandomSource, min_sentences: int = 1, max_sentences: int = 4) -> str:
        count = source.uniform_int(min_sentences, max_sentences)
        return " ".join(self.sentence(source) for _ in range(count))

    def keyword(self, source: RandomSource) -> str:
        """A short emphasised token (used inside <keyword>/<emph> markup)."""
        return " ".join(self.words(source, source.uniform_int(1, 3)))

    # -- scrambled directory entities -----------------------------------------

    def person_name(self, source: RandomSource) -> str:
        return f"{source.choice(_FIRST_NAMES)} {source.choice(_LAST_NAMES)}"

    def email(self, source: RandomSource, name: str) -> str:
        mailbox = name.lower().replace(" ", ".")
        return f"mailto:{mailbox}{source.uniform_int(0, 99)}@{source.choice(_EMAIL_DOMAINS)}"

    def phone(self, source: RandomSource) -> str:
        return (
            f"+{source.uniform_int(1, 99)} "
            f"({source.uniform_int(10, 999)}) "
            f"{source.uniform_int(1000000, 99999999)}"
        )

    def street(self, source: RandomSource) -> str:
        base = self._vocabulary.sample(source).capitalize()
        return f"{source.uniform_int(1, 9999)} {base} {source.choice(_STREET_KINDS)}"

    def city(self, source: RandomSource) -> str:
        return source.choice(_CITIES)

    def country(self, source: RandomSource) -> str:
        return source.choice(_COUNTRIES)

    def province(self, source: RandomSource) -> str:
        return source.choice(_PROVINCES)

    def zipcode(self, source: RandomSource) -> str:
        return str(source.uniform_int(10000, 99999))

    def homepage(self, source: RandomSource, name: str) -> str:
        slug = name.lower().replace(" ", "/")
        return f"http://www.{source.choice(_EMAIL_DOMAINS)}/~{slug}"

    def creditcard(self, source: RandomSource) -> str:
        return " ".join(str(source.uniform_int(1000, 9999)) for _ in range(4))

    def education(self, source: RandomSource) -> str:
        return source.choice(_EDUCATION_LEVELS)

    def gender(self, source: RandomSource) -> str:
        return "male" if source.boolean() else "female"

    def payment_type(self, source: RandomSource) -> str:
        """One or more accepted payment methods, comma separated."""
        count = source.uniform_int(1, 3)
        picks = source.sample_without_replacement(len(_CURRENCIES), count)
        return ", ".join(_CURRENCIES[i] for i in sorted(picks))

    def date(self, source: RandomSource) -> str:
        """US-style MM/DD/YYYY date in the benchmark's fixed window."""
        month = source.uniform_int(1, 12)
        day = source.uniform_int(1, 28)
        year = source.uniform_int(1998, 2001)
        return f"{month:02d}/{day:02d}/{year}"

    def time(self, source: RandomSource) -> str:
        return (
            f"{source.uniform_int(0, 23):02d}:"
            f"{source.uniform_int(0, 59):02d}:"
            f"{source.uniform_int(0, 59):02d}"
        )

    def amount(self, source: RandomSource, mean: float) -> str:
        """A positive currency amount, exponentially distributed, 2 decimals."""
        value = source.exponential(mean)
        return f"{value + 0.01:.2f}"
