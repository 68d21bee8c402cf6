"""Per-tenant accounting and quotas for the wire server.

One server process serves many tenants; a tenant is named by the
``tenant`` field of the handshake and scoped to nothing else — two
connections with the same tenant string share one :class:`TenantState`.
Quotas bound the three resources a misbehaving client could otherwise
grow without limit: concurrent sessions (connections), in-flight
requests, and open server-side cursors.

All state here is confined to the server's event loop — every mutation
happens from connection coroutines on one thread — so there are no
locks.  Quota violations raise :class:`~repro.errors.TenantQuotaError`,
which the dispatch loop turns into a typed ``tenant_quota`` wire error;
the connection survives, only the offending request is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Live resource usage for one tenant across all its connections."""

    name: str
    quota: TenantQuota
    sessions: int = 0
    inflight: int = 0
    cursors: int = 0
    requests_total: int = 0
    refused_total: int = 0


@dataclass(slots=True)
class TenantRegistry:
    """All tenants the server has seen, with their usage; every tenant
    gets ``default_quota``."""

    default_quota: TenantQuota = field(default_factory=TenantQuota)
    _tenants: dict[str, TenantState] = field(default_factory=dict)

    def state(self, name: str) -> TenantState:
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = self._tenants[name] = TenantState(name,
                                                       self.default_quota)
        return tenant

    def connect(self, name: str) -> TenantState:
        """Claim one session slot; raises when the tenant is at its cap."""
        tenant = self.state(name)
        limit = tenant.quota.max_sessions
        if limit > 0 and tenant.sessions >= limit:
            tenant.refused_total += 1
            raise TenantQuotaError(
                f"tenant {name!r} is at its session quota ({limit})")
        tenant.sessions += 1
        return tenant

    def disconnect(self, tenant: TenantState) -> None:
        tenant.sessions = max(0, tenant.sessions - 1)

    def begin_request(self, tenant: TenantState) -> None:
        """Claim one in-flight slot; raises when the tenant is saturated."""
        limit = tenant.quota.max_inflight
        if limit > 0 and tenant.inflight >= limit:
            tenant.refused_total += 1
            raise TenantQuotaError(
                f"tenant {tenant.name!r} is at its in-flight quota ({limit})")
        tenant.inflight += 1
        tenant.requests_total += 1

    def end_request(self, tenant: TenantState) -> None:
        tenant.inflight = max(0, tenant.inflight - 1)

    def open_cursor(self, tenant: TenantState) -> None:
        """Claim one cursor slot; raises when the tenant holds too many."""
        limit = tenant.quota.max_cursors
        if limit > 0 and tenant.cursors >= limit:
            tenant.refused_total += 1
            raise TenantQuotaError(
                f"tenant {tenant.name!r} is at its open-cursor quota "
                f"({limit})")
        tenant.cursors += 1

    def close_cursor(self, tenant: TenantState) -> None:
        tenant.cursors = max(0, tenant.cursors - 1)

    def snapshot(self) -> dict[str, dict]:
        """Usage by tenant name, for stats replies and tests."""
        return {
            name: {
                "sessions": t.sessions, "inflight": t.inflight,
                "cursors": t.cursors, "requests_total": t.requests_total,
                "refused_total": t.refused_total,
            }
            for name, t in sorted(self._tenants.items())
        }
