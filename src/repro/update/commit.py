"""The one write path: log, apply, advance, invalidate — under one lock.

Every commit a connection issues (a session transaction,
``Database.apply_transaction``, the wire server's ``commit``) is one
call of :meth:`WritePath.commit`, and crash recovery replays each WAL
record through the same method.  docs/UPDATES.md §5 walks through the
sequence.  What differs between callers is data, not code: the
invalidation — see DESIGN.md, "One write path".
"""

from __future__ import annotations

from contextlib import ExitStack, nullcontext

from repro.errors import TransactionError
from repro.obs.trace import NULL_TRACER
from repro.storage.interface import chain_digest
from repro.update.engine import ChangeSet, apply_transaction_ops
from repro.update.ops import transaction_token


class WritePath:
    """One owner's write path over its live store map.

    ``lock`` is the connection's update lock (an ``RLock``: its owner
    also holds it around checkpoints and close).  ``exclusion()``
    returns the context manager that keeps readers off the stores for
    the whole commit: the connection's ``rwlock.write`` (none in
    recovery, which serves no reader yet).  ``invalidate(old_digests,
    changes)`` runs after the apply, still under the lock and the
    exclusion, and returns extra per-system report cells; ``changes`` is
    ``None`` when the commit was refused part-way (a prefix is applied:
    drop conservatively).
    """

    def __init__(self, stores: dict, lock, *, source: str,
                 tracer=NULL_TRACER, exclusion=nullcontext,
                 invalidate=lambda old_digests, changes: {},
                 durability=None) -> None:
        self.stores = stores
        self.lock = lock
        self.source = source    # "direct" | "service" | "recovery" (span attr)
        self.tracer = tracer
        self.exclusion = exclusion
        self.invalidate = invalidate
        #: The :class:`~repro.storage.wal.DurabilityManager` every commit
        #: logs to first (``None``: not durable).
        self.durability = durability
        self.commits = 0                # successful commits
        #: Commits that reached the stores, refused ones included: a
        #: streaming cursor opened before the last one is stale.
        self.writes = 0

    def commit(self, ops) -> dict:
        """Commit ``ops`` as one unit; returns ``{ops, systems, digest}``.

        The digest chain advances once, over the batch token.  No
        rollback: when an operation is refused the applied prefix stays,
        each store's digest is re-chained over exactly its applied
        operations (so lineages remain truthful), and
        :class:`~repro.errors.TransactionError` reports how far the
        batch got.
        """
        if not ops:
            return {"ops": [], "systems": {}, "digest": None}
        tracer = self.tracer
        token = transaction_token(ops)
        # Writers serialize on the update lock for the whole commit: LSNs
        # stay dense, the digest chain never forks, and a checkpoint
        # holding it sees one commit-consistent state.
        with tracer.span("txn.commit", source=self.source, ops=len(ops),
                         systems=len(self.stores)) as root, \
                self.lock, ExitStack() as held:
            with tracer.span("commit.gates"):
                held.enter_context(self.exclusion())
            old_digests = {name: store.document_digest() or ""
                           for name, store in self.stores.items()}
            if self.durability is not None and old_digests:
                # Write-ahead: durable before any store mutates, so a
                # crash in between replays the commit.
                prev = next(iter(old_digests.values()))
                self.durability.log_commit(
                    ops, prev_digest=prev, digest=chain_digest(prev, token))
            self.writes += 1
            try:
                costs, changed, ancestors = apply_transaction_ops(
                    self.stores, ops, tracer=tracer)
            except TransactionError:
                self.invalidate(old_digests, None)
                raise
            digest = None
            for store in self.stores.values():
                digest = store.advance_digest(token)
            changes = ChangeSet(op_token=token, changed_tokens=changed,
                                ancestor_tags=ancestors, digest=digest)
            for name, cells in self.invalidate(old_digests, changes).items():
                costs[name].update(cells)
            self.commits += 1
            root.set(digest=digest)
        return {"ops": [op.token() for op in ops], "systems": costs,
                "digest": digest}
