"""shared-state: writes to shared instance attributes need their lock.

Scope: classes that own registered locks, in the concurrency-domain
packages (the query service and scatter executor, which any number of
client threads call, the wire server's pool, the facade and the plan
cache they all share, the observability sinks they all feed, and the
WAL).  In such a class every instance attribute is presumed shared, so
any write outside the constructor-phase methods must happen with one of
the class's locks held — either lexically, or guaranteed by every
in-class caller.

The caller-guarantee analysis exempts a private method when each of its
in-class call sites either already holds a class lock, is itself
exempt/guaranteed, or is constructor-phase (``__init__`` /
``mark_loaded``).  Public methods get no such benefit: they are thread
entry points by definition.
"""

from __future__ import annotations

from typing import Iterable

from ..findings import Finding
from ..model import ClassInfo, FunctionSummary, Project
from .base import Rule

__all__ = ["SharedStateRule"]

#: Packages whose classes live on more than one thread.
SCOPE_PREFIXES = ("repro.service", "repro.server", "repro.shard",
                  "repro.obs", "repro.storage.wal", "repro.db", "repro.cache")

#: Constructor-phase methods: single-threaded by protocol.
EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "mark_loaded",
                            "__enter__"})


def _in_scope(module_name: str) -> bool:
    return any(module_name == p or module_name.startswith(p + ".")
               for p in SCOPE_PREFIXES)


class SharedStateRule(Rule):
    id = "shared-state"
    title = "instance attributes of locked classes mutate under a lock"

    def run(self, project: Project) -> Iterable[Finding]:
        for module in project.modules.values():
            if not _in_scope(module.name):
                continue
            for info in module.classes.values():
                yield from self._check_class(project, info)

    def _check_class(self, project: Project,
                     info: ClassInfo) -> Iterable[Finding]:
        lock_ids = {lock.lock_id
                    for lock in info.all_locks(project).values()}
        if not lock_ids:
            return
        methods: dict[str, FunctionSummary] = {}
        for name in info.methods:
            summary = project.summaries.get(
                f"{info.module.name}:{info.name}.{name}")
            if summary is not None:
                methods[name] = summary
        guaranteed = self._caller_guaranteed(methods, lock_ids)
        lock_attrs = set(info.all_locks(project))
        for name, summary in methods.items():
            if name in EXEMPT_METHODS or name in guaranteed:
                continue
            for attr, line, held, _node in summary.self_writes:
                if attr in lock_attrs or held & lock_ids:
                    continue
                yield self.finding(
                    info.module, line, summary.qualname,
                    f"self.{attr} written without holding any of "
                    f"{', '.join(sorted(lock_ids))}")

    @staticmethod
    def _caller_guaranteed(methods: dict[str, FunctionSummary],
                           lock_ids: set[str]) -> set[str]:
        """Private methods whose every in-class caller holds a lock."""
        # call sites per callee method name: (caller name, held-at-site)
        sites: dict[str, list[tuple[str, frozenset[str]]]] = {}
        for caller, summary in methods.items():
            for call in summary.calls:
                if call.callee is None:
                    continue
                callee = call.callee.rsplit(".", 1)[-1]
                if callee in methods:
                    sites.setdefault(callee, []).append((caller, call.held))
        guaranteed: set[str] = set()
        for _ in range(len(methods) + 1):
            grown = False
            for name in methods:
                if name in guaranteed or not name.startswith("_") \
                        or name.startswith("__"):
                    continue
                callers = sites.get(name)
                if not callers:
                    continue
                if all(held & lock_ids
                       or caller in EXEMPT_METHODS
                       or caller in guaranteed
                       for caller, held in callers):
                    guaranteed.add(name)
                    grown = True
            if not grown:
                break
        return guaranteed
