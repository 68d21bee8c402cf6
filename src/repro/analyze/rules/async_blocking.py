"""async-blocking: no blocking calls lexically inside ``async def``.

The wire server's event loop must never block: file I/O, ``fsync``,
``time.sleep``, socket construction and threading-lock acquisition all
belong on the worker pool (``run_in_executor``).  Nested synchronous
``def`` bodies are exempt by construction — the project model does not
fold them into the enclosing coroutine's timeline, which is exactly the
"routed through the worker pool" escape hatch: a blocking call is only
flagged when the event loop itself would execute it.

``asyncio`` primitives (``asyncio.Condition``, ``StreamWriter.write``)
never appear in the lock registry or the blocking-call table, so the
server's reply writes stay legal.
"""

from __future__ import annotations

from typing import Iterable

from ..findings import Finding
from ..model import Project
from .base import Rule, normalized_call

__all__ = ["AsyncBlockingRule"]

#: Fully-qualified callables that block the calling thread.
BLOCKING_CALLS = frozenset({
    "open", "io.open",
    "time.sleep",
    "os.fsync", "os.fdatasync", "os.replace", "os.rename",
    "socket.socket", "socket.create_connection",
    "subprocess.run", "subprocess.check_output", "subprocess.check_call",
    "subprocess.Popen",
    "shutil.copy", "shutil.copyfile", "shutil.copytree", "shutil.rmtree",
})


class AsyncBlockingRule(Rule):
    id = "async-blocking"
    title = "no blocking calls inside async def bodies"

    def run(self, project: Project) -> Iterable[Finding]:
        for summary in project.summaries.values():
            if not summary.is_async:
                continue
            module = summary.module
            for call in summary.calls:
                resolved = normalized_call(module, call.name)
                if resolved in BLOCKING_CALLS:
                    yield self.finding(
                        module, call.line, summary.qualname,
                        f"blocking call {resolved}() inside async def "
                        f"{summary.name}; route it through the worker "
                        "pool (run_in_executor)")
            for lock_id, line, _held in summary.acquisitions:
                yield self.finding(
                    module, line, summary.qualname,
                    f"threading lock {lock_id} acquired inside async def "
                    f"{summary.name}; a held event loop cannot yield — "
                    "use an asyncio primitive or offload to the pool")
