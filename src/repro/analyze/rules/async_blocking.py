"""async-blocking: no blocking calls lexically inside ``async def``.

The wire server's event loop must never block: file I/O, ``fsync``,
``time.sleep``, socket construction and threading-lock acquisition all
belong on the worker pool (``run_in_executor``).  Nested synchronous
``def`` bodies are exempt by construction — the project model does not
fold them into the enclosing coroutine's timeline, which is exactly the
"routed through the worker pool" escape hatch: a blocking call is only
flagged when the event loop itself would execute it.

An executor's ``.shutdown()`` on an attribute (``self._pool.shutdown``)
blocks too unless it passes ``wait=False``: it joins every worker, and a
worker stuck on a read holds the loop with it.

``asyncio`` primitives (``asyncio.Condition``, ``StreamWriter.write``)
never appear in the lock registry or the blocking-call table, so the
server's reply writes stay legal.
"""

from __future__ import annotations

import ast
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


def _joins_workers(call: ast.Call) -> bool:
    """Whether ``call`` is ``<obj>.<attr>.shutdown(...)`` that waits: its
    ``wait`` argument is ``True`` or left to the executor's default."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "shutdown"
            and isinstance(func.value, ast.Attribute)):
        return False
    wait = next((keyword.value for keyword in call.keywords
                 if keyword.arg == "wait"),
                call.args[0] if call.args else None)
    return wait is None or (isinstance(wait, ast.Constant) and wait.value is True)


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
                elif _joins_workers(call.node):
                    yield self.finding(
                        module, call.line, summary.qualname,
                        f"{call.name}() joins the executor's workers inside "
                        f"async def {summary.name}; shut down with "
                        "wait=False and await the work still running")
            for lock_id, line, _held in summary.acquisitions:
                yield self.finding(
                    module, line, summary.qualname,
                    f"threading lock {lock_id} acquired inside async def "
                    f"{summary.name}; a held event loop cannot yield — "
                    "use an asyncio primitive or offload to the pool")
