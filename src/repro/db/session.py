"""Sessions, prepared queries, and transactions over a connected Database.

A :class:`Session` is the unit of interaction: it resolves query numbers,
routes execution through the connection, prepares queries (entries of the
connection's plan cache), and opens transactions.  Sessions are cheap —
open one per logical client — and a closed session (or a closed database
underneath it) refuses further work with
:class:`~repro.errors.ClosedSessionError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ClosedSessionError, TransactionError
from repro.update.ops import (
    CloseAuction, DeleteItem, PlaceBid, RegisterPerson, UpdateOp,
)
from repro.xmlio.dom import Element

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.cursor import Cursor
    from repro.db.database import Database
    from repro.xquery.planner import CompiledQuery


class Session:
    """One client's handle on the database.

    ``tenant`` labels this session's executions in the connection's
    ``db.queries_total`` counter — per-caller accounting, no isolation.
    """

    def __init__(self, database: "Database",
                 tenant: str | None = None) -> None:
        self._database = database
        self.tenant = tenant
        self._closed = False

    @property
    def database(self) -> "Database":
        return self._database

    def _require_open(self) -> None:
        if self._closed:
            raise ClosedSessionError("session is closed")
        self._database._require_open()

    # -- queries --------------------------------------------------------------------

    def execute(self, query: int | str, system: str | None = None, *,
                stream: bool = True) -> "Cursor":
        """Run one query (a benchmark number 1-20 or raw XQuery text).

        Returns a :class:`~repro.db.cursor.Cursor`.  On a direct
        connection ``stream=True`` (the default) yields rows lazily;
        ``stream=False`` forces eager evaluation (and fills in the
        cursor's execute timings) — results are identical either way.
        """
        self._require_open()
        return self._database.execute(system, query, stream=stream,
                                      tenant=self.tenant)

    def explain(self, query: int | str, system: str | None = None):
        """Describe how a query would run on this connection — chosen
        plan, index usage, shard routing, predicted streaming barriers —
        without executing it.  Returns an
        :class:`~repro.obs.explain.Explain`; ``str()`` it or call
        ``.render()`` for the text form, ``.as_dict()`` for JSON."""
        self._require_open()
        return self._database.explain(query, system=system)

    def prepare(self, query: int | str,
                system: str | None = None) -> "PreparedQuery":
        """Compile once, execute many.

        Preparing puts the query's plan — the sharded pseudo-system's
        exchange plan like any other — in the connection's plan cache,
        on every kind of connection; re-executions find it there (they
        report ``plan_cache_hit`` and zero compile time), and so does any
        text of the same shape.
        """
        self._require_open()
        return PreparedQuery(self, query, system)

    # -- transactions ----------------------------------------------------------------

    def transaction(self) -> "Transaction":
        """Open a transaction buffering update operations until commit.

        Use as a context manager: a clean exit commits the batch
        atomically (one digest advance, one invalidation pass); an
        exception inside the block discards it untouched.
        """
        self._require_open()
        return Transaction(self)

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PreparedQuery:
    """A query held ready for repeated execution on one session: an entry
    of the connection's plan cache, put there by preparing."""

    def __init__(self, session: Session, query: int | str,
                 system: str | None) -> None:
        self._session = session
        database = session.database
        self.system = database.resolve_system(system)
        self.query_text = database.query_text(query)
        self._compiled = database.compile(self.system, self.query_text)

    @property
    def compiled(self) -> "CompiledQuery":
        """The plan the connection's cache holds for the query (the
        server's prepared handle over ``xmark://``)."""
        return self._compiled

    @property
    def warnings(self) -> list[str]:
        """Planner warnings (unknown tags etc.)."""
        return list(self._compiled.warnings)

    def execute(self, *, stream: bool = True) -> "Cursor":
        self._session._require_open()
        database = self._session.database
        return database.execute(self.system, self.query_text, stream=stream,
                                tenant=self._session.tenant)


class Transaction:
    """A buffered batch of update operations, committed as one unit.

    Operations queue locally until :meth:`commit` (or a clean ``with``
    exit); nothing touches the stores before that.  Commit applies the
    whole batch through the update engine with a single digest advance
    under the connection's write side and — on service connections — one
    path-selective invalidation pass.  There is no rollback of applied
    operations: a mid-batch failure keeps the committed prefix and raises
    :class:`~repro.errors.TransactionError` (see
    ``Database.apply_transaction``).
    """

    def __init__(self, session: Session) -> None:
        self._session = session
        self._ops: list[UpdateOp] = []
        self._completed = False
        #: The commit summary (op tokens, per-system costs, new digest).
        self.summary: dict | None = None

    # -- buffering -------------------------------------------------------------------

    def _require_active(self) -> None:
        if self._completed:
            raise TransactionError("transaction already completed")
        self._session._require_open()

    def apply(self, op: UpdateOp) -> "Transaction":
        """Queue one typed update operation; chainable."""
        self._require_active()
        self._ops.append(op)
        return self

    def register_person(self, person: Element) -> "Transaction":
        """Queue appending a DTD-valid ``<person>`` subtree (unique @id)."""
        return self.apply(RegisterPerson(person))

    def place_bid(self, auction_id: str, person_id: str, increase: float,
                  date: str, time: str) -> "Transaction":
        """Queue a bid on an open auction (raises ``current`` by ``increase``)."""
        return self.apply(PlaceBid(auction_id, person_id, increase, date, time))

    def close_auction(self, auction_id: str, date: str) -> "Transaction":
        """Queue closing an open auction (moves it to ``closed_auctions``)."""
        return self.apply(CloseAuction(auction_id, date))

    def delete_item(self, item_id: str) -> "Transaction":
        """Queue removing an item with its referencing auctions/watches."""
        return self.apply(DeleteItem(item_id))

    @property
    def ops(self) -> tuple[UpdateOp, ...]:
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    # -- completion ------------------------------------------------------------------

    def commit(self) -> dict:
        """Apply the buffered batch; returns the commit summary."""
        self._require_active()
        self._completed = True
        self.summary = self._session.database.apply_transaction(self._ops)
        return self.summary

    def rollback(self) -> None:
        """Discard the buffered (un-applied) operations."""
        if self._completed:
            raise TransactionError("transaction already completed")
        self._completed = True
        self._ops.clear()

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._completed:
            return
        if exc_type is not None:
            self.rollback()
            return
        self.commit()
