"""Tests for the document generator: determinism, scaling, validity, split mode."""

import functools
import hashlib
import io
import os

import pytest

from repro.errors import GenerationError
from repro.rng.distributions import RandomSource
from repro.schema.auction import REFERENCE_TARGETS, auction_dtd, auction_split_dtd
from repro.schema.validator import validate
from repro.xmlgen.cli import main as xmlgen_main
from repro.xmlgen.config import GeneratorConfig
from repro.xmlgen.counts import (
    BASE_CLOSED_AUCTIONS, BASE_OPEN_AUCTIONS, BASE_PERSONS, EntityCounts,
)
from repro.xmlgen.generator import ANCHOR_WORDS, XMarkGenerator, generate_string
from repro.xmlio.parser import parse
from repro.xmlio.serialize import XMLWriter


class TestConfig:
    def test_rejects_bad_scale(self):
        with pytest.raises(GenerationError):
            GeneratorConfig(scale=0)
        with pytest.raises(GenerationError):
            GeneratorConfig(scale=-1)
        with pytest.raises(GenerationError):
            GeneratorConfig(scale=101)

    def test_rejects_bad_split(self):
        with pytest.raises(GenerationError):
            GeneratorConfig(scale=1, entities_per_file=0)


class TestCounts:
    def test_base_counts_at_scale_one(self):
        counts = EntityCounts.for_scale(1.0)
        assert counts.persons == BASE_PERSONS
        assert counts.open_auctions == BASE_OPEN_AUCTIONS
        assert counts.closed_auctions == BASE_CLOSED_AUCTIONS
        assert counts.items == BASE_OPEN_AUCTIONS + BASE_CLOSED_AUCTIONS

    def test_items_equal_sum_of_auctions_at_every_scale(self):
        # Paper Section 4.5: "the number of items organized by continents
        # equals the sum of open and closed auctions".
        for scale in (0.0001, 0.003, 0.01, 0.1, 1.0, 2.0):
            counts = EntityCounts.for_scale(scale)
            assert counts.items == counts.open_auctions + counts.closed_auctions

    def test_region_allocation_sums_and_minimums(self):
        for scale in (0.0001, 0.001, 0.05):
            counts = EntityCounts.for_scale(scale)
            assert sum(c for _, c in counts.region_items) == counts.items
            assert all(c >= 1 for _, c in counts.region_items)

    def test_linear_scaling(self):
        one = EntityCounts.for_scale(0.01)
        ten = EntityCounts.for_scale(0.1)
        assert abs(ten.persons / one.persons - 10) < 0.2

    def test_region_of_item_consistent_with_offsets(self):
        counts = EntityCounts.for_scale(0.002)
        offsets = counts.region_offsets()
        for region, count in counts.region_items:
            first = offsets[region]
            assert counts.region_of_item(first) == region
            assert counts.region_of_item(first + count - 1) == region
        with pytest.raises(IndexError):
            counts.region_of_item(counts.items)

    def test_namerica_largest_region(self):
        counts = EntityCounts.for_scale(0.01)
        allocation = dict(counts.region_items)
        assert allocation["namerica"] == max(allocation.values())


class TestGenerator:
    def test_deterministic(self):
        assert generate_string(0.0005) == generate_string(0.0005)

    def test_seed_changes_output(self):
        default = generate_string(0.0005)
        other = XMarkGenerator(GeneratorConfig(0.0005, seed=7)).generate_string()
        assert default != other

    def test_document_is_dtd_valid(self, small_document):
        report = validate(small_document, auction_dtd(), REFERENCE_TARGETS)
        assert report.ok, report.violations[:5]

    def test_size_calibration(self):
        # Figure 3: scale f ~ 100 MB * f, within 15%.
        for scale in (0.001, 0.005):
            size = len(generate_string(scale))
            assert abs(size / (100e6 * scale) - 1.0) < 0.15

    def test_size_scales_linearly(self):
        small = len(generate_string(0.001))
        large = len(generate_string(0.004))
        assert 3.0 < large / small < 5.0

    def test_entity_counts_in_document(self, small_document):
        counts = EntityCounts.for_scale(0.002)
        root = small_document.root
        assert len(root.find("people").find_all("person")) == counts.persons
        assert len(root.find("open_auctions").find_all("open_auction")) == counts.open_auctions
        assert len(root.find("closed_auctions").find_all("closed_auction")) == counts.closed_auctions
        assert len(root.find("categories").find_all("category")) == counts.categories
        assert sum(1 for _ in root.find("regions").iter("item")) == counts.items

    def test_item_partition_between_auction_kinds(self, small_document):
        root = small_document.root
        counts = EntityCounts.for_scale(0.002)
        closed_refs = {
            ca.find("itemref").get("item")
            for ca in root.find("closed_auctions").find_all("closed_auction")
        }
        open_refs = {
            oa.find("itemref").get("item")
            for oa in root.find("open_auctions").find_all("open_auction")
        }
        assert not (closed_refs & open_refs)
        assert len(closed_refs) == counts.closed_auctions
        assert len(open_refs) == counts.open_auctions

    def test_current_equals_initial_plus_increases(self, small_document):
        for auction in small_document.root.find("open_auctions").find_all("open_auction"):
            initial = float(auction.find("initial").immediate_text())
            increases = sum(
                float(b.find("increase").immediate_text())
                for b in auction.find_all("bidder")
            )
            current = float(auction.find("current").immediate_text())
            assert abs(current - (initial + increases)) < 0.05

    def test_gold_anchor_present_for_q14(self, small_document):
        items = list(small_document.root.find("regions").iter("item"))
        with_gold = [
            item for item in items
            if "gold" in item.find("description").text_content().split()
        ]
        assert 0 < len(with_gold) < len(items) / 2

    def test_deep_q15_path_populated(self, small_document):
        hits = 0
        for auction in small_document.root.find("closed_auctions").find_all("closed_auction"):
            annotation = auction.find("annotation")
            description = annotation.find("description") if annotation else None
            if description is None:
                continue
            for parlist in description.find_all("parlist"):
                for listitem in parlist.find_all("listitem"):
                    for inner in listitem.find_all("parlist"):
                        for inner_item in inner.find_all("listitem"):
                            for text in inner_item.find_all("text"):
                                for emph in text.find_all("emph"):
                                    hits += len(emph.find_all("keyword"))
        assert hits > 0

    def test_anchor_bidders_appear(self, small_document):
        refs = [
            bidder.find("personref").get("person")
            for auction in small_document.root.find("open_auctions").find_all("open_auction")
            for bidder in auction.find_all("bidder")
        ]
        assert "person2" in refs and "person3" in refs

    def test_profile_income_mostly_present(self, small_document):
        profiles = list(small_document.root.find("people").iter("profile"))
        with_income = [p for p in profiles if p.get("income") is not None]
        assert 0 < len(with_income) <= len(profiles)
        assert len(with_income) / len(profiles) > 0.6

    def test_homepage_missing_fraction_high(self, small_document):
        # Paper on Q17: "The fraction of people without a homepage is rather high".
        persons = small_document.root.find("people").find_all("person")
        without = [p for p in persons if p.find("homepage") is None]
        assert 0.3 < len(without) / len(persons) < 0.7

    def test_anchor_words_are_planted(self):
        from repro.xmlgen.generator import xmark_vocabulary
        vocabulary = xmark_vocabulary()
        for rank, word in ANCHOR_WORDS.items():
            assert vocabulary.word(rank) == word


class TestSplitMode:
    def test_split_writes_valid_chunks(self, tmp_path):
        config = GeneratorConfig(scale=0.001, entities_per_file=10)
        paths = XMarkGenerator(config).write_split(str(tmp_path))
        assert len(paths) > 5
        split_dtd = auction_split_dtd()
        persons = 0
        for path in paths:
            with open(path, encoding="ascii") as handle:
                doc = parse(handle.read())
            if doc.root.tag == "people":
                chunk = doc.root.find_all("person")
                assert 1 <= len(chunk) <= 10
                persons += len(chunk)
                # Per-file validation with the relaxed DTD must pass even
                # though IDREFs point outside the file.
                container_dtd = split_dtd
                for person in chunk:
                    assert container_dtd.element("person") is not None
        assert persons == EntityCounts.for_scale(0.001).persons

    def test_split_requires_config(self, tmp_path):
        from repro.errors import GenerationError
        with pytest.raises(GenerationError):
            XMarkGenerator(GeneratorConfig(scale=0.001)).write_split(str(tmp_path))

    def test_split_chunks_match_single_document_entities(self, tmp_path, tiny_document):
        config = GeneratorConfig(scale=0.001, entities_per_file=1000)
        paths = XMarkGenerator(config).write_split(str(tmp_path))
        people_files = [p for p in paths if os.path.basename(p).startswith("people")]
        with open(people_files[0], encoding="ascii") as handle:
            split_people = parse(handle.read()).root
        single_people = tiny_document.root.find("people")
        assert (split_people.find("person").find("name").immediate_text()
                == single_people.find("person").find("name").immediate_text())


class TestCli:
    def test_dtd_flag(self, capsys):
        assert xmlgen_main(["--dtd"]) == 0
        assert "<!ELEMENT site" in capsys.readouterr().out

    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "doc.xml"
        assert xmlgen_main(["-f", "0.0005", "-o", str(out), "--stats"]) == 0
        assert out.stat().st_size > 10_000
        assert "persons=" in capsys.readouterr().err

    def test_split_mode_cli(self, tmp_path):
        directory = tmp_path / "split"
        assert xmlgen_main(["-f", "0.0005", "-s", "50", "-d", str(directory)]) == 0
        assert len(list(directory.iterdir())) > 3


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _reference_prose_element(generator, writer, tag, source, depth=0,
                             force_nested_keyword=False):
    """The word-at-a-time prose loop the batch kernel replaced: one
    ``vocabulary.sample`` and one ``boolean(0.12)`` call per word."""
    sample = generator._text.vocabulary.sample
    keyword = lambda: " ".join(sample(source) for _ in range(source.uniform_int(1, 3)))
    writer.start(tag)
    words = source.uniform_int(30, 120) if depth == 0 else source.uniform_int(1, 4)
    emitted_nested = False
    for _ in range(words):
        writer.text(sample(source) + " ")
        if depth < 2 and source.boolean(0.12):
            inline = source.choice(("bold", "keyword", "emph"))
            if inline == "emph" and (
                    force_nested_keyword and not emitted_nested or source.boolean(0.5)):
                writer.start("emph")
                writer.text(keyword() + " ")
                writer.leaf("keyword", keyword())
                writer.end()
                emitted_nested = True
            else:
                _reference_prose_element(generator, writer, inline, source, depth + 1)
    if force_nested_keyword and not emitted_nested:
        writer.start("emph")
        writer.leaf("keyword", keyword())
        writer.end()
    writer.end()


class TestGoldenDocuments:
    """The generated text is pinned byte for byte: literal SHA-256 values
    taken before the prose loop became a batch kernel."""

    @pytest.mark.parametrize("scale,seed,digest", [
        (0.002, None, "2ddb88daa2f00dd5e1ab1cf94a32edb97c3ab6ca598c35ac25260f421abc460d"),
        (0.01, None, "74d218fe522dae343d2120f34b8831c98c1166479febfad2b9ab895b5003c70c"),
        (0.002, 7, "14e98e4f6b0c07707569dd5e5437c296ac50645c10afd8ed67e0a880ce6250aa"),
    ])
    def test_document_digest(self, scale, seed, digest):
        assert _sha256(generate_string(scale, seed)) == digest

    def test_split_chunks_concatenate_to_the_single_document(self, tmp_path):
        config = GeneratorConfig(scale=0.002, entities_per_file=25)
        paths = XMarkGenerator(config).write_split(str(tmp_path))
        entities: dict[str, str] = {}      # container -> its chunks' entities
        for path in paths:
            with open(path, encoding="ascii") as handle:
                declaration, body = handle.read().split("\n", 1)
            container = body[1 : body.index(">")]
            inner = body[body.index(">") + 1 : body.rindex("</")]
            entities[container] = entities.get(container, "") + inner
        assert _sha256("".join(entities.values())) == (
            "2d620bbd9ee3b2120bc515d300957a8c0e6309f055869eec980089e0bbee93b7")
        regions = [name for name, _ in EntityCounts.for_scale(0.002).region_items]
        wrap = lambda name: f"<{name}>{entities[name]}</{name}>"
        rebuilt = (declaration + "\n<site><regions>"
                   + "".join(wrap(region) for region in regions) + "</regions>"
                   + "".join(wrap(name) for name in entities if name not in regions)
                   + "</site>")
        assert rebuilt == generate_string(0.002)

    @pytest.mark.parametrize("depth,force", [(0, False), (0, True), (1, False), (2, False)])
    def test_prose_kernel_leaves_the_word_at_a_time_state(self, depth, force):
        generator = XMarkGenerator(GeneratorConfig(scale=0.002))
        for seed in range(40):
            outputs, states = [], []
            for write in (generator._write_prose_element,
                          functools.partial(_reference_prose_element, generator)):
                source = RandomSource.from_seed(seed)
                buffer = io.StringIO()
                write(XMLWriter(buffer), "text", source, depth, force)
                outputs.append(buffer.getvalue())
                states.append(source.core.getstate())
            assert outputs[0] == outputs[1]
            assert states[0] == states[1]
