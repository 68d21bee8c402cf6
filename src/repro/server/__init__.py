"""The network serving layer: wire protocol, server, tenants, client.

``repro.connect("xmark://host:port/doc")`` is the front door on the
client side; :class:`XMarkServer` (or ``xmark serve`` on the command
line) is the server side.  See docs/SERVING.md for the frame format,
the message kinds, the error-code taxonomy, and the backpressure and
tenant-quota semantics.
"""

from repro.server.client import (
    RemoteDatabase, RemotePrepared, WireClient, connect_url, parse_url,
)
from repro.server.protocol import MAX_FRAME, PROTOCOL_VERSION
from repro.server.server import (
    ServedDocument, ServerHandle, XMarkServer, serve_in_thread,
)
from repro.server.tenants import (
    DEFAULT_TENANT, TenantQuota, TenantRegistry, TenantState,
)

__all__ = [
    "DEFAULT_TENANT",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "RemoteDatabase",
    "RemotePrepared",
    "ServedDocument",
    "ServerHandle",
    "TenantQuota",
    "TenantRegistry",
    "TenantState",
    "WireClient",
    "XMarkServer",
    "connect_url",
    "parse_url",
    "serve_in_thread",
]
