"""The embedded-database facade: ``repro.connect()`` and friends.

One public API over every execution path the repository grew —
direct stores, the concurrent query service, scatter-gather sharding,
and the update engine::

    import repro

    db = repro.connect(repro.generate_string(0.002), systems=("B", "D"))
    with db.session() as session:
        cursor = session.execute(14)                # streams lazily
        for item in cursor:
            print(cursor.rowtext(item))

        prepared = session.prepare(8, system="D")   # compile once
        rows = prepared.execute().fetchall()        # bit-identical to legacy

        with session.transaction() as txn:          # one atomic batch
            txn.place_bid("open_auction0", "person1", 12.0,
                          "07/31/2026", "11:30:00")
            txn.close_auction("open_auction0", "07/31/2026")
    db.close()

See docs/API.md for the full surface, cursor semantics, transaction
guarantees, and the old-to-new migration table.
"""

from repro.db.cursor import Cursor
from repro.db.database import Database, connect
from repro.db.session import PreparedQuery, Session, Transaction
from repro.update.ops import (
    CloseAuction, DeleteItem, PlaceBid, RegisterPerson, UpdateOp,
    transaction_token,
)

__all__ = [
    "connect", "Database", "Session", "PreparedQuery", "Transaction",
    "Cursor",
    "UpdateOp", "RegisterPerson", "PlaceBid", "CloseAuction", "DeleteItem",
    "transaction_token",
]
