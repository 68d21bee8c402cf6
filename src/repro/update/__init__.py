"""Document updates: the workload dimension XMark scoped out.

The paper deliberately benchmarks a load-once, read-only database; the
follow-up literature (XWeB's refresh function, Mahboubi & Darmont's index-
maintenance studies) treats that as its main gap — index value is only
honest when maintenance under updates is priced, and a serving story with
zero writers serves no one.  This package adds the missing dimension:

* :mod:`repro.update.ops` — a typed operation set grounded in the auction
  schema: ``register_person``, ``place_bid``, ``close_auction``,
  ``delete_item`` (with referential cascades keeping the document
  DTD-valid, dangling IDREFs included).
* :mod:`repro.update.engine` — applies an operation to any of the seven
  store architectures through the uniform mutation surface
  (:meth:`repro.storage.interface.Store.insert_child` and friends), keeps
  the secondary indexes current by per-node deltas, chains the document
  digest, and reports
  the change footprint the result cache invalidates by.
* :mod:`repro.update.stream` — deterministic update generation on the
  benchmark's replayable RNG streams, used by ``xmark update``'s
  cross-system differential check and the tests' read/write runs.

See docs/UPDATES.md for the operation semantics, the per-store mutation
strategies, and the incremental-maintenance invariants.
"""

from repro.update.engine import ChangeSet, UpdateError, apply_update, serialize_store
from repro.update.ops import (
    CloseAuction, DeleteItem, PlaceBid, RegisterPerson, UpdateOp,
    transaction_token,
)
from repro.update.stream import UpdateStream

__all__ = [
    "ChangeSet",
    "CloseAuction",
    "DeleteItem",
    "PlaceBid",
    "RegisterPerson",
    "UpdateError",
    "UpdateOp",
    "UpdateStream",
    "apply_update",
    "serialize_store",
    "transaction_token",
]
