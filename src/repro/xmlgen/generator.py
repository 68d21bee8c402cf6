"""The streaming XMark document generator.

One writer pass emits the whole auction site in DTD order::

    site(regions, categories, catgraph, people, open_auctions, closed_auctions)

Determinism and constant memory come from one rule: **every entity draws all
of its randomness from its own named stream** (``person#i``, ``item#i``, ...)
derived from the master seed.  Nothing about an entity depends on how many
entities were generated before it, so any entity can be regenerated in
isolation — this is what makes the split mode (Section 5) and the reference
partitioning work without logs.

Item references are partitioned arithmetically: closed auction *k* sells item
*k*, open auction *j* sells item ``closed_auctions + j``; hence every item is
referenced exactly once and "the number of items organized by continents
equals the sum of open and closed auctions" (Section 4.5) holds by
construction.
"""

from __future__ import annotations

import io
import os
from collections.abc import Iterator
from functools import lru_cache

from repro.errors import GenerationError
from repro.rng.distributions import RandomSource
from repro.rng.streams import StreamFamily
from repro.text.generator import TextGenerator
from repro.text.vocabulary import Vocabulary
from repro.xmlgen.config import GeneratorConfig
from repro.xmlgen.counts import EntityCounts
from repro.xmlio.dom import Document
from repro.xmlio.parser import parse
from repro.xmlio.serialize import XMLWriter

#: English words planted at fixed Zipf ranks (see Vocabulary.anchors).  Rank
#: 100 puts "gold" at roughly one word in a thousand, giving Q14 a small but
#: reliably non-empty answer at every scale.
ANCHOR_WORDS: dict[int, str] = {
    250: "gold",
    600: "silver",
    1400: "diamond",
    3000: "ruby",
    6000: "emerald",
}

_AUCTION_TYPES = ("Regular", "Featured", "Dutch")
_HAPPINESS_RANGE = (1, 10)
#: Odds that inline markup (bold/keyword/emph) follows a word of prose.
_INLINE_PROBABILITY = 0.12


@lru_cache(maxsize=1)
def xmark_vocabulary() -> Vocabulary:
    """The benchmark vocabulary: 17 000 Zipf words with English anchors."""
    return Vocabulary(anchors=ANCHOR_WORDS)


class XMarkGenerator:
    """Generates the benchmark document for one configuration."""

    def __init__(self, config: GeneratorConfig | None = None) -> None:
        self.config = config or GeneratorConfig()
        self.counts = EntityCounts.for_scale(self.config.scale)
        self._streams = StreamFamily(self.config.seed)
        self._text = TextGenerator(xmark_vocabulary())

    # -- public API -----------------------------------------------------------

    def write(self, out) -> None:
        """Stream the complete single-document benchmark to ``out``."""
        writer = XMLWriter(out)
        writer.declaration()
        writer.start("site")
        self._write_regions(writer)
        self._write_categories(writer)
        self._write_catgraph(writer)
        self._write_people(writer)
        self._write_open_auctions(writer)
        self._write_closed_auctions(writer)
        writer.end()
        writer.finish()

    def generate_string(self) -> str:
        buffer = io.StringIO()
        self.write(buffer)
        return buffer.getvalue()

    def write_file(self, path: str) -> int:
        """Write the document to ``path``; return the byte size."""
        with open(path, "w", encoding="ascii") as handle:
            self.write(handle)
        return os.path.getsize(path)

    def write_split(self, directory: str) -> list[str]:
        """Section 5 split mode: n entities per file.

        Every file holds one container element (``people``, ``open_auctions``,
        ..., or a region tag) wrapping at most ``entities_per_file`` entities.
        Returns the list of file paths written.  Callers validating these
        files should use the split DTD variant in which ID/IDREF attributes
        are plain required CDATA (paper Section 5's workaround).
        """
        per_file = self.config.entities_per_file
        if per_file is None:
            raise GenerationError("write_split requires entities_per_file in the config")
        os.makedirs(directory, exist_ok=True)
        paths: list[str] = []

        def emit(container: str, stem: str, chunks: Iterator[list]) -> None:
            for file_index, chunk in enumerate(chunks):
                path = os.path.join(directory, f"{stem}_{file_index:04d}.xml")
                with open(path, "w", encoding="ascii") as handle:
                    writer = XMLWriter(handle)
                    writer.declaration()
                    writer.start(container)
                    for write_entity in chunk:
                        write_entity(writer)
                    writer.end()
                    writer.finish()
                paths.append(path)

        offsets = self.counts.region_offsets()
        for region, count in self.counts.region_items:
            start = offsets[region]
            emit(region, region, _chunked(
                [self._item_emitter(start + i) for i in range(count)], per_file))
        emit("categories", "categories", _chunked(
            [self._category_emitter(i) for i in range(self.counts.categories)], per_file))
        emit("catgraph", "catgraph", _chunked(
            [self._edge_emitter(i) for i in range(self.counts.catgraph_edges)], per_file))
        emit("people", "people", _chunked(
            [self._person_emitter(i) for i in range(self.counts.persons)], per_file))
        emit("open_auctions", "open_auctions", _chunked(
            [self._open_auction_emitter(i) for i in range(self.counts.open_auctions)], per_file))
        emit("closed_auctions", "closed_auctions", _chunked(
            [self._closed_auction_emitter(i) for i in range(self.counts.closed_auctions)], per_file))
        return paths

    # -- entity emitters (late-bound for split mode) ----------------------------

    def _item_emitter(self, index: int):
        return lambda writer: self._write_item(writer, index)

    def _category_emitter(self, index: int):
        return lambda writer: self._write_category(writer, index)

    def _edge_emitter(self, index: int):
        return lambda writer: self._write_edge(writer, index)

    def _person_emitter(self, index: int):
        return lambda writer: self._write_person(writer, index)

    def _open_auction_emitter(self, index: int):
        return lambda writer: self._write_open_auction(writer, index)

    def _closed_auction_emitter(self, index: int):
        return lambda writer: self._write_closed_auction(writer, index)

    # -- sections ---------------------------------------------------------------

    def _write_regions(self, writer: XMLWriter) -> None:
        writer.start("regions")
        index = 0
        for region, count in self.counts.region_items:
            writer.start(region)
            for _ in range(count):
                self._write_item(writer, index)
                index += 1
            writer.end()
        writer.end()

    def _write_categories(self, writer: XMLWriter) -> None:
        writer.start("categories")
        for index in range(self.counts.categories):
            self._write_category(writer, index)
        writer.end()

    def _write_catgraph(self, writer: XMLWriter) -> None:
        writer.start("catgraph")
        for index in range(self.counts.catgraph_edges):
            self._write_edge(writer, index)
        writer.end()

    def _write_people(self, writer: XMLWriter) -> None:
        writer.start("people")
        for index in range(self.counts.persons):
            self._write_person(writer, index)
        writer.end()

    def _write_open_auctions(self, writer: XMLWriter) -> None:
        writer.start("open_auctions")
        for index in range(self.counts.open_auctions):
            self._write_open_auction(writer, index)
        writer.end()

    def _write_closed_auctions(self, writer: XMLWriter) -> None:
        writer.start("closed_auctions")
        for index in range(self.counts.closed_auctions):
            self._write_closed_auction(writer, index)
        writer.end()

    # -- entities -----------------------------------------------------------------

    def _write_item(self, writer: XMLWriter, index: int) -> None:
        source = self._streams.substream("item", index)
        region = self.counts.region_of_item(index)
        attributes = {"id": f"item{index}"}
        if source.boolean(0.1):
            attributes["featured"] = "yes"
        writer.start("item", attributes)
        writer.leaf("location", self._location(source, region))
        writer.leaf("quantity", str(source.uniform_int(1, 10)))
        writer.leaf("name", self._title(source))
        writer.leaf("payment", self._text.payment_type(source))
        self._write_description(writer, source)
        writer.leaf("shipping", self._text.sentence(source, 3, 8))
        for category in self._distinct_categories(source, source.uniform_int(1, 3)):
            writer.empty("incategory", {"category": f"category{category}"})
        writer.start("mailbox")
        for _ in range(source.uniform_int(0, 3)):
            writer.start("mail")
            writer.leaf("from", self._text.person_name(source))
            writer.leaf("to", self._text.person_name(source))
            writer.leaf("date", self._text.date(source))
            self._write_prose_element(writer, "text", source)
            writer.end()
        writer.end()
        writer.end()

    def _write_category(self, writer: XMLWriter, index: int) -> None:
        source = self._streams.substream("category", index)
        writer.start("category", {"id": f"category{index}"})
        writer.leaf("name", self._title(source))
        self._write_description(writer, source)
        writer.end()

    def _write_edge(self, writer: XMLWriter, index: int) -> None:
        source = self._streams.substream("edge", index)
        total = self.counts.categories
        origin = source.uniform_int(0, total - 1)
        target = source.uniform_int(0, total - 1)
        if target == origin:
            target = (target + 1) % total
        writer.empty("edge", {"from": f"category{origin}", "to": f"category{target}"})

    def _write_person(self, writer: XMLWriter, index: int) -> None:
        source = self._streams.substream("person", index)
        writer.start("person", {"id": f"person{index}"})
        name = self._text.person_name(source)
        writer.leaf("name", name)
        writer.leaf("emailaddress", self._text.email(source, name))
        if source.boolean(0.55):
            writer.leaf("phone", self._text.phone(source))
        if source.boolean(0.6):
            writer.start("address")
            writer.leaf("street", self._text.street(source))
            writer.leaf("city", self._text.city(source))
            writer.leaf("country", self._text.country(source))
            if source.boolean(0.25):
                writer.leaf("province", self._text.province(source))
            writer.leaf("zipcode", self._text.zipcode(source))
            writer.end()
        if source.boolean(0.5):
            writer.leaf("homepage", self._text.homepage(source, name))
        if source.boolean(0.4):
            writer.leaf("creditcard", self._text.creditcard(source))
        if source.boolean(0.8):
            self._write_profile(writer, source)
        if source.boolean(0.45):
            writer.start("watches")
            for _ in range(source.uniform_int(1, 4)):
                auction = source.uniform_int(0, self.counts.open_auctions - 1)
                writer.empty("watch", {"open_auction": f"open_auction{auction}"})
            writer.end()
        writer.end()

    def _write_profile(self, writer: XMLWriter, source: RandomSource) -> None:
        attributes: dict[str, str] = {}
        if source.boolean(0.88):
            income = max(9_876.0, source.normal(60_000.0, 30_000.0))
            attributes["income"] = f"{income:.2f}"
        writer.start("profile", attributes)
        for category in self._distinct_categories(source, source.uniform_int(0, 4)):
            writer.empty("interest", {"category": f"category{category}"})
        if source.boolean(0.6):
            writer.leaf("education", self._text.education(source))
        if source.boolean(0.7):
            writer.leaf("gender", self._text.gender(source))
        writer.leaf("business", "Yes" if source.boolean(0.3) else "No")
        if source.boolean(0.4):
            writer.leaf("age", str(source.uniform_int(18, 70)))
        writer.end()

    def _write_open_auction(self, writer: XMLWriter, index: int) -> None:
        source = self._streams.substream("open", index)
        writer.start("open_auction", {"id": f"open_auction{index}"})
        initial = source.exponential(15.0) + 1.0
        writer.leaf("initial", f"{initial:.2f}")
        if source.boolean(0.45):
            writer.leaf("reserve", f"{initial * source.uniform(1.2, 3.0):.2f}")
        current = initial
        bidders = min(10, int(source.exponential(2.2)))
        for _ in range(bidders):
            increase = source.exponential(6.0) + 1.5
            current += increase
            writer.start("bidder")
            writer.leaf("date", self._text.date(source))
            writer.leaf("time", self._text.time(source))
            writer.empty("personref", {"person": self._normal_person(source)})
            writer.leaf("increase", f"{increase:.2f}")
            writer.end()
        writer.leaf("current", f"{current:.2f}")
        if source.boolean(0.3):
            writer.leaf("privacy", "Yes" if source.boolean() else "No")
        item = self.counts.closed_auctions + index
        writer.empty("itemref", {"item": f"item{item}"})
        writer.empty("seller", {"person": self._popular_person(source)})
        self._write_annotation(writer, source)
        writer.leaf("quantity", str(source.uniform_int(1, 10)))
        writer.leaf("type", source.choice(_AUCTION_TYPES))
        writer.start("interval")
        writer.leaf("start", self._text.date(source))
        writer.leaf("end", self._text.date(source))
        writer.end()
        writer.end()

    def _write_closed_auction(self, writer: XMLWriter, index: int) -> None:
        source = self._streams.substream("closed", index)
        writer.start("closed_auction")
        writer.empty("seller", {"person": self._popular_person(source)})
        writer.empty("buyer", {"person": self._uniform_person(source)})
        writer.empty("itemref", {"item": f"item{index}"})
        writer.leaf("price", self._text.amount(source, 45.0))
        writer.leaf("date", self._text.date(source))
        writer.leaf("quantity", str(source.uniform_int(1, 10)))
        writer.leaf("type", source.choice(_AUCTION_TYPES))
        if source.boolean(0.9):
            self._write_annotation(writer, source, deep_prose=True)
        writer.end()

    def _write_annotation(
        self, writer: XMLWriter, source: RandomSource, deep_prose: bool = False
    ) -> None:
        writer.start("annotation")
        writer.empty("author", {"person": self._uniform_person(source)})
        if source.boolean(0.8):
            self._write_description(writer, source, deep=deep_prose)
        writer.leaf(
            "happiness", str(source.uniform_int(*_HAPPINESS_RANGE))
        )
        writer.end()

    # -- prose --------------------------------------------------------------------

    def _write_description(
        self, writer: XMLWriter, source: RandomSource, deep: bool = False
    ) -> None:
        """A ``description`` holding either flat prose or a parlist.

        ``deep=True`` raises the odds of nested parlists, populating the long
        Q15/Q16 path ``.../parlist/listitem/parlist/listitem/text/emph/keyword``.
        """
        writer.start("description")
        parlist_probability = 0.5 if deep else 0.3
        if source.boolean(parlist_probability):
            self._write_parlist(writer, source, depth=0, deep=deep)
        else:
            self._write_prose_element(writer, "text", source)
        writer.end()

    def _write_parlist(
        self, writer: XMLWriter, source: RandomSource, depth: int, deep: bool
    ) -> None:
        writer.start("parlist")
        for _ in range(source.uniform_int(1 if depth else 2, 3)):
            writer.start("listitem")
            nested_probability = (0.45 if deep else 0.2) if depth < 2 else 0.0
            if source.boolean(nested_probability):
                self._write_parlist(writer, source, depth + 1, deep)
            else:
                self._write_prose_element(
                    writer, "text", source, force_nested_keyword=deep and depth > 0)
            writer.end()
        writer.end()

    def _write_prose_element(
        self,
        writer: XMLWriter,
        tag: str,
        source: RandomSource,
        depth: int = 0,
        force_nested_keyword: bool = False,
    ) -> None:
        """Mixed-content prose: character data with bold/keyword/emph islands.

        Words are drawn and written a run at a time; a run ends where inline
        markup follows a word (never below two levels of it) or at the
        element's word count.
        """
        writer.start(tag)
        remaining = source.uniform_int(30, 120) if depth == 0 else source.uniform_int(1, 4)
        inline_probability = _INLINE_PROBABILITY if depth < 2 else None
        emitted_nested = False
        while remaining:
            run, inline_follows = self._text.vocabulary.sample_run(
                source, remaining, inline_probability)
            remaining -= len(run)
            writer.text(" ".join(run) + " ")
            if inline_follows:
                inline = source.choice(("bold", "keyword", "emph"))
                nest_keyword = inline == "emph" and (
                    force_nested_keyword and not emitted_nested or source.boolean(0.5)
                )
                if nest_keyword:
                    writer.start("emph")
                    writer.text(self._text.keyword(source) + " ")
                    writer.leaf("keyword", self._text.keyword(source))
                    writer.end()
                    emitted_nested = True
                else:
                    self._write_prose_element(writer, inline, source, depth + 1)
        if force_nested_keyword and not emitted_nested:
            writer.start("emph")
            writer.leaf("keyword", self._text.keyword(source))
            writer.end()
        writer.end()

    # -- reference index distributions (paper Section 4.2: uniform, normal,
    # exponential reference distributions) ---------------------------------------

    def _uniform_person(self, source: RandomSource) -> str:
        return f"person{source.uniform_int(0, self.counts.persons - 1)}"

    def _popular_person(self, source: RandomSource) -> str:
        """Exponentially skewed: a few persons sell most auctions."""
        index = int(source.exponential(self.counts.persons / 8.0))
        return f"person{index % self.counts.persons}"

    def _normal_person(self, source: RandomSource) -> str:
        """Bidder distribution: normal around the middle of the person range,
        with two *anchor bidders* (person2, person3) mixed in at fixed odds.

        The anchors give the document-order query (Q4: does person2 bid
        before person3 in some auction?) a stable, scale-independent
        selectivity — the published xmlgen chose Q4's person constants to
        match its reference distributions in the same way.
        """
        if source.boolean(0.2):
            return "person2" if source.boolean() else "person3"
        persons = self.counts.persons
        index = int(source.normal(persons / 2.0, persons / 6.0))
        return f"person{min(persons - 1, max(0, index))}"

    # -- helpers ------------------------------------------------------------------

    def _distinct_categories(self, source: RandomSource, count: int) -> list[int]:
        total = self.counts.categories
        count = min(count, total)
        if count == 0:
            return []
        return sorted(source.sample_without_replacement(total, count))

    def _title(self, source: RandomSource) -> str:
        words = self._text.words(source, source.uniform_int(1, 3))
        return " ".join(word.capitalize() for word in words)

    def _location(self, source: RandomSource, region: str) -> str:
        if region == "namerica" and source.boolean(0.75):
            return "United States"
        return self._text.country(source)


def generate_string(scale: float, seed: int | None = None) -> str:
    """Generate the benchmark document text for a scaling factor."""
    config = GeneratorConfig(scale=scale) if seed is None else GeneratorConfig(scale, seed)
    return XMarkGenerator(config).generate_string()


def generate_document(scale: float, seed: int | None = None) -> Document:
    """Generate and parse the benchmark document (convenience for tests)."""
    return parse(generate_string(scale, seed))


def _chunked(items: list, size: int) -> Iterator[list]:
    for start in range(0, len(items), size):
        yield items[start : start + size]
