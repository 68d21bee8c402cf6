"""The ledger's own load generator: request lists from ``random.Random(seed)``.

Nothing here imports ``repro.service.workload`` or ``repro.update.stream``:
a later change to those cannot change the load the ledger offers.  The
generator reads the *document text* (regexes, not the engine) for the ids it
needs, so the request lists depend on the pinned document and the seed only.

Every list is a **fixed multiset** — how many times each query kind, person
rank and operation kind occurs is derived from the weights alone (largest
remainder), and the seed decides the order, which rank maps to which id, and
the parameters of the update operations.  Two seeds therefore offer the same
amount of work in a different order, which is what lets ten runs on ten seeds
agree within a few percent.
"""

from __future__ import annotations

import random
import re

from repro.benchmark.queries import query_text
from repro.update.ops import CloseAuction, DeleteItem, PlaceBid, RegisterPerson
from repro.xmlio.dom import Element

from ledger.core import person_names

#: The 17-query interactive mix, most popular first.  Left out: Q11/Q12
#: (nested-loop value joins, 10-100x the rest) and Q10 (117 ms at f=0.02,
#: 50x the median request: one Q10 stalls a two-client closed loop for as
#: long as sixty point lookups).  What remains costs 0.3-12 ms in the engine.  The popularity order is
#: fixed, not drawn from the seed, so every seed offers the same work:
#: lookups and short scans are hot, the reference-chasing joins the tail.
MIX_QUERIES = (1, 5, 2, 17, 15, 18, 6, 13, 3, 16, 8, 20, 4, 14, 19, 7, 9)
ALL_QUERIES = tuple(range(1, 21))
#: First-row pass of ``single_user_large``: large results, no order-by barrier.
FIRST_ROW_QUERIES = (2, 13, 14, 17)

OP_WEIGHTS = (("place_bid", 60), ("register_person", 30),
              ("close_auction", 7), ("delete_item", 3))

_POINT_TEMPLATE = query_text(1)
assert '"person0"' in _POINT_TEMPLATE


def point_text(person_id: str) -> str:
    """Q1's text asking for ``person_id`` — the point lookup of the mixes."""
    return _POINT_TEMPLATE.replace('"person0"', f'"{person_id}"')


def stratified(weights: list[float], total: int) -> list[int]:
    """Integer counts summing to ``total``, proportional to ``weights``
    (largest remainder) — the same counts whatever the seed."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def zipf_weights(n: int, exponent: float = 1.0) -> list[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


def zipf_multiset(ranked: list, total: int) -> list:
    """``total`` draws over ``ranked`` (most popular first) with Zipf(1.0)
    *counts* — a multiset, so every seed offers the same work."""
    out = []
    for item, count in zip(ranked, stratified(zipf_weights(len(ranked)), total)):
        out.extend([item] * count)
    return out


class DocView:
    """What the generator needs to know about the document, read with
    regexes from its text and advanced past every generated operation."""

    def __init__(self, text: str) -> None:
        self.person_ids = list(person_names(text))
        self.next_person = 1 + max(int(p[6:]) for p in self.person_ids)
        start, end = text.index("<open_auctions>"), text.index("</open_auctions>")
        self.open_bidders: dict[str, int] = {}
        self.open_by_item: dict[str, list[str]] = {}
        for match in re.finditer(
                r'<open_auction id="(open_auction\d+)">(.*?)</open_auction>',
                text[start:end], re.S):
            auction, body = match.group(1), match.group(2)
            self.open_bidders[auction] = body.count("<bidder>")
            item = re.search(r'<itemref item="(item\d+)"/>', body).group(1)
            self.open_by_item.setdefault(item, []).append(auction)
        regions = text[text.index("<regions>"):text.index("</regions>")]
        self.item_ids = re.findall(r'<item id="(item\d+)"', regions)
        self.category_ids = re.findall(r'<category id="(category\d+)"', text)

    def note(self, op) -> None:
        if isinstance(op, RegisterPerson):
            self.person_ids.append(op.person.attributes["id"])
        elif isinstance(op, PlaceBid):
            self.open_bidders[op.auction_id] += 1
        elif isinstance(op, CloseAuction):
            del self.open_bidders[op.auction_id]
            for auctions in self.open_by_item.values():
                if op.auction_id in auctions:
                    auctions.remove(op.auction_id)
        elif isinstance(op, DeleteItem):
            self.item_ids.remove(op.item_id)
            for auction in self.open_by_item.pop(op.item_id, ()):
                self.open_bidders.pop(auction, None)


def _leaf(tag: str, text: str) -> Element:
    element = Element(tag)
    element.append_text(text)
    return element


def _date(rng: random.Random) -> str:
    return f"{rng.randint(1, 12):02d}/{rng.randint(1, 28):02d}/{rng.randint(1998, 2001)}"


def _time(rng: random.Random) -> str:
    return f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}"


def _person(view: DocView, rng: random.Random) -> Element:
    index = view.next_person
    view.next_person += 1
    person = Element("person", {"id": f"person{index}"})
    person.append(_leaf("name", f"Ledger Person{index}"))
    person.append(_leaf("emailaddress", f"mailto:ledger{index}@bench.test"))
    if rng.random() < 0.5:
        person.append(_leaf("homepage", f"http://bench.test/~ledger{index}"))
    profile = person.append(Element(
        "profile", {"income": f"{rng.uniform(9876.0, 150000.0):.2f}"}))
    for _ in range(rng.randint(0, 2)):
        profile.append(Element(
            "interest", {"category": rng.choice(view.category_ids)}))
    profile.append(_leaf("business", "Yes" if rng.random() < 0.3 else "No"))
    return person


def _next_op(kind: str, view: DocView, rng: random.Random):
    if kind == "register_person":
        return RegisterPerson(_person(view, rng))
    if kind == "place_bid":
        return PlaceBid(
            auction_id=rng.choice(sorted(view.open_bidders)),
            person_id=rng.choice(view.person_ids),
            increase=round(rng.expovariate(1 / 6.0) + 1.5, 2),
            date=_date(rng), time=_time(rng))
    if kind == "close_auction":
        closeable = sorted(a for a, n in view.open_bidders.items() if n > 0)
        return CloseAuction(auction_id=rng.choice(closeable), date=_date(rng))
    return DeleteItem(item_id=rng.choice(view.item_ids))


def commit_list(view: DocView, rng: random.Random, commits: int,
                txn_share: float = 0.2, txn_ops: int = 3) -> list[list]:
    """``commits`` commits: a fixed count of single-op commits and of
    ``txn_ops``-operation transactions, kinds in fixed proportion, order
    and parameters from the seed.  Advances ``view`` past every op."""
    txns = round(commits * txn_share)
    sizes = [txn_ops] * txns + [1] * (commits - txns)
    rng.shuffle(sizes)
    kinds: list[str] = []
    names = [name for name, _ in OP_WEIGHTS]
    for name, count in zip(names, stratified([w for _, w in OP_WEIGHTS],
                                             sum(sizes))):
        kinds.extend([name] * count)
    rng.shuffle(kinds)
    out, cursor = [], 0
    for size in sizes:
        ops = []
        for kind in kinds[cursor:cursor + size]:
            op = _next_op(kind, view, rng)
            view.note(op)
            ops.append(op)
        cursor += size
        out.append(ops)
    return out


def query_round(rng: random.Random, queries=ALL_QUERIES,
                systems=("D",)) -> list[tuple[str, int]]:
    """One single-user round: every (system, query) cell once, seed order."""
    cells = [(system, q) for system in systems for q in queries]
    rng.shuffle(cells)
    return cells


def read_mix(view: DocView, rng: random.Random, total: int, *,
             point_share: float, point_ids: int,
             systems=("D",)) -> list[tuple[str, str, str]]:
    """``total`` read requests as ``(kind, system, text)``.

    ``point_share`` of them are point lookups over the first ``point_ids``
    persons (Zipf counts over a seed-chosen popularity order); the rest a
    Zipf(1.0) multiset over the 17-query mix in its fixed popularity order.  Systems alternate over the
    shuffled list, so each kind reaches every system.
    """
    points = round(total * point_share)
    requests: list[tuple[str, str]] = []
    persons = view.person_ids[:point_ids]
    rng.shuffle(persons)                # which person is popular: the seed's
    for person in zipf_multiset(persons, points):
        requests.append(("point", point_text(person)))
    for q in zipf_multiset(list(MIX_QUERIES), total - points):
        requests.append((f"Q{q:02d}", query_text(q)))
    rng.shuffle(requests)
    return [(kind, systems[i % len(systems)], text)
            for i, (kind, text) in enumerate(requests)]


def request_list_bytes(requests) -> bytes:
    """A canonical byte rendering of any request list (the smoke test's
    equal-seed / different-seed comparison)."""
    lines = []
    for entry in requests:
        if isinstance(entry, list):             # one commit: a list of ops
            lines.append("commit|" + "|".join(op.token() for op in entry))
        else:
            lines.append("|".join(str(part) for part in entry))
    return "\n".join(lines).encode("utf-8")
