"""Per-tenant accounting and quotas for the wire server.

One server process serves many tenants; a tenant is named by the
``tenant`` field of the handshake and scoped to nothing else — two
connections with the same tenant string share one :class:`TenantState`.
Quotas bound the three resources a misbehaving client could otherwise
grow without limit: concurrent sessions (connections), in-flight
requests, and open server-side cursors.

Every count changes under the registry's one lock: the event loop
claims and releases session and in-flight slots, while worker threads
release cursor slots as the cursors they page through complete.  A
release of a slot the tenant does not hold fails loudly rather than
clamping the count.  Quota violations raise
:class:`~repro.errors.TenantQuotaError`, which the dispatch loop turns
into a typed ``tenant_quota`` wire error; the connection survives, only
the offending request is refused.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import TenantQuotaError

DEFAULT_TENANT = "default"


@dataclass(frozen=True, slots=True)
class TenantQuota:
    """Resource ceilings for one tenant (0 or negative disables a limit)."""

    max_sessions: int = 64
    max_inflight: int = 16
    max_cursors: int = 32


@dataclass(slots=True)
class TenantState:
    """Live resource usage for one tenant across all its connections;
    the counts change only under :class:`TenantRegistry`'s lock."""

    name: str
    quota: TenantQuota
    sessions: int = 0
    inflight: int = 0
    cursors: int = 0
    requests_total: int = 0
    refused_total: int = 0


class TenantRegistry:
    """All tenants the server has seen, with their usage; every tenant
    gets ``default_quota``."""

    def __init__(self, default_quota: TenantQuota | None = None) -> None:
        self.default_quota = default_quota or TenantQuota()
        self._tenants: dict[str, TenantState] = {}
        self._lock = threading.Lock()

    def state(self, name: str) -> TenantState:
        with self._lock:
            return self._state(name)

    def _state(self, name: str) -> TenantState:
        """``name``'s state, made on first sight (the caller holds the lock)."""
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = self._tenants[name] = TenantState(name,
                                                       self.default_quota)
        return tenant

    def connect(self, name: str) -> TenantState:
        """Claim one session slot; raises when the tenant is at its cap."""
        with self._lock:
            tenant = self._state(name)
            limit = tenant.quota.max_sessions
            if limit > 0 and tenant.sessions >= limit:
                tenant.refused_total += 1
                raise TenantQuotaError(
                    f"tenant {name!r} is at its session quota ({limit})")
            tenant.sessions += 1
            return tenant

    def disconnect(self, tenant: TenantState) -> None:
        with self._lock:
            _require_held(tenant, tenant.sessions, "session")
            tenant.sessions -= 1

    def begin_request(self, tenant: TenantState) -> None:
        """Claim one in-flight slot; raises when the tenant is saturated."""
        with self._lock:
            limit = tenant.quota.max_inflight
            if limit > 0 and tenant.inflight >= limit:
                tenant.refused_total += 1
                raise TenantQuotaError(
                    f"tenant {tenant.name!r} is at its in-flight quota "
                    f"({limit})")
            tenant.inflight += 1
            tenant.requests_total += 1

    def end_request(self, tenant: TenantState) -> None:
        with self._lock:
            _require_held(tenant, tenant.inflight, "in-flight")
            tenant.inflight -= 1

    def open_cursor(self, tenant: TenantState) -> None:
        """Claim one cursor slot; raises when the tenant holds too many."""
        with self._lock:
            limit = tenant.quota.max_cursors
            if limit > 0 and tenant.cursors >= limit:
                tenant.refused_total += 1
                raise TenantQuotaError(
                    f"tenant {tenant.name!r} is at its open-cursor quota "
                    f"({limit})")
            tenant.cursors += 1

    def close_cursor(self, tenant: TenantState) -> None:
        with self._lock:
            _require_held(tenant, tenant.cursors, "cursor")
            tenant.cursors -= 1

    def snapshot(self) -> dict[str, dict]:
        """Usage by tenant name, for stats replies and tests."""
        with self._lock:
            return {
                name: {
                    "sessions": t.sessions, "inflight": t.inflight,
                    "cursors": t.cursors, "requests_total": t.requests_total,
                    "refused_total": t.refused_total,
                }
                for name, t in sorted(self._tenants.items())
            }


def _require_held(tenant: TenantState, held: int, slot: str) -> None:
    """An over-release is a server bug: raise it, never clamp it away."""
    if held <= 0:
        raise AssertionError(
            f"tenant {tenant.name!r} released a {slot} slot it does not hold")
