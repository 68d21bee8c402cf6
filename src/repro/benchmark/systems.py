"""The system registry: Systems A-G with their stores and optimizer profiles.

Architecture and optimizer assignments follow the paper's Section 7
descriptions; see DESIGN.md for the full substitution table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BenchmarkError
from repro.obs.trace import NULL_TRACER
from repro.storage.dom_store import DomStore
from repro.storage.fragment_store import FragmentStore
from repro.storage.heap_store import HeapStore
from repro.storage.interface import Store
from repro.storage.schema_store import SchemaStore
from repro.storage.summary_store import SummaryStore
from repro.storage.tree_store import IndexedTreeStore, TreeStore
from repro.xquery.planner import SystemProfile


@dataclass(frozen=True, slots=True)
class SystemSpec:
    """One benchmark system: a store class plus an optimizer profile."""

    name: str
    store_class: type
    profile: SystemProfile
    mass_storage: bool
    description: str


#: The pseudo-system name a sharded deployment serves under.
SHARD_SYSTEM = "S"

SYSTEMS: dict[str, SystemSpec] = {
    "A": SystemSpec(
        "A", HeapStore,
        SystemProfile(
            name="A", optimizer="cost-exhaustive", join_rewrite_depth=2,
            inequality_join="nlj", use_id_index=True, use_path_index=False,
            use_value_index=True, use_sorted_index=True,
        ),
        mass_storage=True,
        description="relational, single generic heap relation, cost-based "
                    "optimizer with exhaustive enumeration",
    ),
    "B": SystemSpec(
        "B", FragmentStore,
        SystemProfile(
            name="B", optimizer="cost-greedy", join_rewrite_depth=2,
            inequality_join="nlj", use_id_index=True, use_path_index=True,
            use_value_index=True, use_sorted_index=True,
        ),
        mass_storage=True,
        description="relational, one table per distinct path, cost-based "
                    "optimizer; metadata-heavy compilation",
    ),
    "C": SystemSpec(
        "C", SchemaStore,
        SystemProfile(
            name="C", optimizer="cost-greedy", join_rewrite_depth=1,
            inequality_join="nlj", use_id_index=True, use_path_index=False,
            use_value_index=True, use_sorted_index=True,
        ),
        mass_storage=True,
        description="relational, DTD-derived inlined schema; at most one "
                    "join rewrite per query (the paper's Q9 anomaly)",
    ),
    "D": SystemSpec(
        "D", SummaryStore,
        SystemProfile(
            name="D", optimizer="heuristic", join_rewrite_depth=99,
            inequality_join="sorted", use_id_index=True, use_path_index=True,
            use_value_index=True, use_sorted_index=True,
        ),
        mass_storage=True,
        description="main memory, structural summary; hand-optimized "
                    "(sorted) plans for the value joins",
    ),
    "E": SystemSpec(
        "E", IndexedTreeStore,
        SystemProfile(
            name="E", optimizer="heuristic", join_rewrite_depth=99,
            inequality_join="nlj", use_id_index=False, use_path_index=True,
            use_value_index=True, use_sorted_index=True,
        ),
        mass_storage=True,
        description="main memory, inverted tag index + secondary value/"
                    "sorted/path indexes, heuristic optimizer",
    ),
    "F": SystemSpec(
        "F", TreeStore,
        SystemProfile(
            name="F", optimizer="heuristic", join_rewrite_depth=99,
            inequality_join="nlj", use_id_index=False, use_path_index=False,
        ),
        mass_storage=True,
        description="main memory, pure traversal, heuristic optimizer",
    ),
    "G": SystemSpec(
        "G", DomStore,
        SystemProfile(
            name="G", optimizer="none", join_rewrite_depth=0,
            inequality_join="nlj", use_id_index=False, use_path_index=False,
        ),
        mass_storage=False,
        description="embedded in-process DOM interpreter, no optimizer, "
                    "small-document capacity only",
    ),
}

#: The paper's "mass storage" systems (Table 1 / Table 3 population).
MASS_STORAGE_SYSTEMS = tuple(name for name, spec in SYSTEMS.items() if spec.mass_storage)


def parse_system_letters(letters: str) -> tuple[str, ...]:
    """``'bd'`` -> ``('B', 'D')``: uppercase, dedupe preserving order,
    reject unknown letters (shared by every CLI/bench entry point)."""
    systems = tuple(dict.fromkeys(letters.upper()))
    unknown = [s for s in systems if s not in SYSTEMS]
    if unknown:
        raise BenchmarkError(
            f"unknown system(s) {''.join(unknown)}; choose from A-G")
    return systems


def make_store(name: str) -> Store:
    """Instantiate a fresh store for a system letter."""
    try:
        return SYSTEMS[name].store_class()
    except KeyError:
        raise BenchmarkError(f"unknown system {name!r}; choose from A-G") from None


def load_stores(document: str, systems: tuple[str, ...],
                shards: int | None = None, backends: tuple[str, ...] = ("F",),
                *, tracer=NULL_TRACER) -> tuple[dict, dict, dict, object, dict]:
    """The loader of a connection (:class:`repro.db.Database`, its one
    caller): bulkload one store per system letter and, when ``shards``
    is given, a sharded deployment of ``shards`` instances of the
    ``backends`` architectures, served as :data:`SHARD_SYSTEM`, with its
    scatter-gather executor installed as the store's exchange.

    Returns ``(stores, load_reports, failed_loads, scatter_executor,
    profiles)`` — ``profiles`` maps every serving name, the shard
    pseudo-system's included, to the profile its queries compile under;
    a system that fails to load (System G's capacity limit at scale,
    notably) lands in ``failed_loads`` with the failure reason instead of
    raising.  A durable reconnect calls this with its snapshot's text,
    exactly as a cold connect does with the base document.
    """
    from repro.storage.bulkload import bulkload
    stores: dict[str, Store] = {}
    reports: dict = {}
    failed: dict[str, str] = {}
    for name in systems:
        store = make_store(name)
        try:
            reports[name] = bulkload(store, document, name)
        except Exception as exc:
            failed[name] = str(exc)
            continue
        stores[name] = store
    profiles = {name: get_profile(name) for name in stores}
    if shards is None:
        return stores, reports, failed, None, profiles
    from repro.shard.scatter import SHARDED_PROFILE, ScatterGatherExecutor
    from repro.shard.store import ShardedStore
    name = SHARD_SYSTEM
    sharded = ShardedStore(shards, backends)
    try:
        reports[name] = bulkload(sharded, document, name)
    except Exception as exc:
        failed[name] = str(exc)
        return stores, reports, failed, None, profiles
    stores[name] = sharded
    profiles[name] = SHARDED_PROFILE
    sharded.exchange = ScatterGatherExecutor(sharded, tracer=tracer)
    return stores, reports, failed, sharded.exchange, profiles


def get_profile(name: str) -> SystemProfile:
    try:
        return SYSTEMS[name].profile
    except KeyError:
        raise BenchmarkError(f"unknown system {name!r}; choose from A-G") from None
