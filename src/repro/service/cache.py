"""The query service's result cache.

A result is only as durable as the document content itself, so entries
are keyed on ``(system, query_text, document_digest)`` — the digest
recorded by :meth:`repro.storage.interface.Store.mark_loaded` and advanced
by every commit — and :meth:`ResultCache.invalidate_document` evicts every
entry of a superseded digest.  Compiled plans live in the connection's one
:class:`repro.cache.PlanCache`.
"""

from __future__ import annotations

from typing import Callable

from repro.cache import LRUCache


class ResultCache(LRUCache):
    """Query results keyed on ``(system, query_text, document_digest)``."""

    @staticmethod
    def key(system: str, query_text: str, digest: str) -> tuple[str, str, str]:
        return (system, query_text, digest)

    def invalidate_document(self, digest: str) -> int:
        """Evict every result computed against ``digest`` (document changed)."""
        return self.invalidate_where(lambda key: key[2] == digest)

    def rekey_document(self, system: str, old_digest: str, new_digest: str,
                       keep: Callable[[str], bool]) -> tuple[int, int]:
        """Re-home one system's entries after an in-place document update.

        An update bumps the document digest, which would orphan *every*
        cached result under the old key; entries whose query the update
        provably cannot affect (``keep(query_text)`` is True) are moved to
        the new digest instead of dropped, which is what makes the
        invalidation path-selective.  Returns ``(kept, dropped)``.
        """
        kept = dropped = 0
        with self._lock:
            stale = [key for key in self._entries
                     if key[0] == system and key[2] == old_digest]
            for key in stale:
                value = self._entries.pop(key)
                if keep(key[1]):
                    self._entries[(system, key[1], new_digest)] = value
                    kept += 1
                else:
                    dropped += 1
            self.stats.invalidations += dropped
        return kept, dropped
