"""EXPLAIN: render the chosen plan without executing anything.

``Session.explain(query)`` lands here.  The output answers the three
questions the paper's per-system analysis asks of every query:

* **Which access structures serve it?**  The planner's
  :class:`~repro.xquery.planner.CompiledQuery` already records every
  access-path / join / range decision (including the est-vs-scan row
  counts that won each probe); EXPLAIN renders them.
* **How does it route across shards?**  On a sharded store the same
  compiled query carries the planner's exchange (routed / partial_count /
  broadcast_join / scatter_flwor, or none: fallback); EXPLAIN renders
  its kind, its fan-out, and — where the shards run the whole query —
  each shard's own access paths and ranges.
* **Where will streaming stall?**  A static AST walk predicts the
  evaluator's documented materialization barriers — ``order by``
  FLWORs, self-axis filter steps, index-bounded range FLWORs — so a
  cursor consumer knows whether first-row latency will be O(1).
* **How does each variable navigate?**  ``navigation: store $p; navigator
  $x; twig $p: 3 leaves`` — a variable the emitter proved holds only store
  nodes calls the store; any other goes through the type-testing
  ``Navigator``.  A constructor's value paths from one proved variable
  are one twig, answered in one store call per row and root node.
* **Which texts share the plan?**  Plans are cached per query shape (the
  text with its literals lifted into slots); EXPLAIN prints the slot
  count and each slot the plan pinned, with why — a text of the shape
  with another value there compiles a plan of its own.

PROFILE is the runtime twin: ``cursor.profile()`` returns the recorded
span tree (see :mod:`repro.obs.trace`); tests assert the two agree.
"""

from __future__ import annotations

from repro.xquery import ast
from repro.xquery.ast import bound_value

__all__ = ["Explain", "describe_compiled", "describe_exchange",
           "explain_query", "predict_barriers"]


def predict_barriers(query: ast.Query,
                     range_plans: dict | None = None) -> list[str]:
    """Static prediction of the streaming pipeline's materialization
    barriers, one human-readable entry per site (document order-ish)."""
    barriers: list[str] = []
    for node in ast.walk(query):
        if isinstance(node, ast.FLWOR):
            if node.order:
                barriers.append("order-by FLWOR (rows sort before emit)")
            elif range_plans and range_plans.get(id(node)) is not None:
                barriers.append("range-plan FLWOR (index probe materializes)")
        elif isinstance(node, ast.Step) and node.axis == "self":
            barriers.append("self-axis filter (positional over the "
                            "whole sequence)")
    return barriers


def _describe_path_plan(plan, values: tuple) -> dict:
    out = {"kind": plan.kind}
    if plan.kind == "id_lookup":
        out["id"] = bound_value(plan.id_literal, values)
    elif plan.kind == "path_index":
        out["prefix"] = "/".join(plan.prefix)
        out["source"] = plan.source
    elif plan.kind in ("value_probe", "range_probe"):
        out["prefix"] = "/".join(plan.prefix)
        out["accessor"] = "/".join(plan.accessor)
        if plan.kind == "value_probe":
            out["value"] = bound_value(plan.probe_literal, values)
        else:
            out["op"] = plan.op
            out["bound"] = plan.bound
        out["est_rows"] = plan.est_rows
        out["scan_rows"] = plan.scan_rows
    return out


def _describe_join_plan(plan) -> dict:
    return {
        "strategy": plan.strategy,
        "op": plan.op,
        "inner_var": plan.inner_var,
        "index_kind": plan.index_kind,
        "index_path": "/".join(plan.index_path),
        "index_accessor": "/".join(plan.index_accessor),
    }


def _describe_range_plan(plan) -> dict:
    return {
        "var": plan.var,
        "path": "/".join(plan.path),
        "accessor": "/".join(plan.accessor),
        "op": plan.op,
        "bound": plan.bound,
        "est_rows": plan.est_rows,
        "scan_rows": plan.scan_rows,
    }


def describe_compiled(compiled) -> dict:
    """The planner's decisions for one compiled query, as plain data.
    ``slots`` / ``pinned`` say which texts share the plan: every text of
    its shape whose values agree on the pinned slots."""
    indexed = [_describe_path_plan(plan, compiled.values)
               for plan in compiled.path_plans.values()
               if plan.kind != "steps"]
    scans = sum(1 for plan in compiled.path_plans.values()
                if plan.kind == "steps")
    return {
        "optimizer": compiled.profile.optimizer,
        "access_paths": indexed,
        "plain_scans": scans,
        "joins": [_describe_join_plan(plan)
                  for plan in compiled.join_plans.values()],
        "ranges": [_describe_range_plan(plan)
                   for plan in compiled.range_plans.values()],
        "plans_considered": compiled.plans_considered,
        "metadata_accesses": compiled.metadata_accesses,
        "slots": len(compiled.values),
        "pinned": [{"slot": slot, "value": compiled.values[slot],
                    "reason": reason}
                   for slot, reason in sorted(compiled.pinned.items())],
        "warnings": list(compiled.warnings),
        "barriers": predict_barriers(compiled.query, compiled.range_plans),
        "store_bound": _names(compiled.navigation, True),
        "navigator": _names(compiled.navigation, False),
        "twigs": [{"var": name, "leaves": leaves}
                  for name, leaves in compiled.twigs],
    }


def _names(navigation: tuple, native: bool) -> list[str]:
    """The variables with a binding site of one kind, first site first."""
    return list(dict.fromkeys(name for name, proved in navigation
                              if proved is native))


def describe_exchange(compiled) -> dict | None:
    """How one compiled query distributes over its (sharded) store's
    shards, as plain data; None for a store that is not sharded."""
    from repro.xquery.planner import compile_shard, exchange_kind
    store, plan = compiled.store, compiled.exchange
    shards = getattr(store, "shard_count", None)    # the planner's probe
    if shards is None:
        return None
    ranks = (plan.ranks(store, compiled.values) if plan is not None
             else list(range(shards)))
    out = {"kind": exchange_kind(compiled), "shards": shards,
           "backends": list(store.backends), "fanout": len(ranks)}
    if out["kind"] in ("routed", "partial_count"):
        out["plans"] = [
            {"shard": rank,
             **describe_compiled(compile_shard(compiled, rank,
                                               compiled.values))}
            for rank in ranks]
    return out


def _plan_lines(plan: dict, indent: str) -> list[str]:
    lines = []
    for access in plan["access_paths"]:
        detail = " ".join(f"{key}={value}" for key, value in access.items()
                          if key != "kind")
        lines.append(f"{indent}access path: {access['kind']} {detail}")
    if plan["plain_scans"]:
        lines.append(f"{indent}plain scans: {plan['plain_scans']}")
    for join in plan["joins"]:
        index = (f" via {join['index_kind']} index"
                 if join["index_kind"] else " (per-query build)")
        lines.append(f"{indent}join: {join['strategy']} on "
                     f"{join['op']}{index}")
    for rng in plan["ranges"]:
        lines.append(f"{indent}range: ${rng['var']} in /{rng['path']} "
                     f"where {rng['accessor']} {rng['op']} {rng['bound']} "
                     f"(est {rng['est_rows']} vs scan {rng['scan_rows']})")
    navigation = "; ".join([
        *(kind + "".join(f" ${name}" for name in plan[key])
          for kind, key in (("store", "store_bound"), ("navigator", "navigator"))
          if plan[key]),
        *(f"twig ${twig['var']}: {twig['leaves']} "
          + ("leaf" if twig["leaves"] == 1 else "leaves")
          for twig in plan["twigs"])])
    if navigation:
        lines.append(f"{indent}navigation: {navigation}")
    return lines


class Explain:
    """A rendered plan: dict via :meth:`as_dict`, text via ``str()``."""

    def __init__(self, data: dict) -> None:
        self._data = data

    def as_dict(self) -> dict:
        return dict(self._data)

    def __getitem__(self, key: str):
        return self._data[key]

    def render(self) -> str:
        data = self._data
        lines = [f"EXPLAIN system={data['system']} mode={data['mode']}"]
        shard = data.get("shard")
        if shard is not None:
            lines.append(f"  distributed plan: {shard['kind']} over "
                         f"{shard['fanout']} of {shard['shards']} shard(s) "
                         f"[{'/'.join(shard['backends'])}]")
            for sub in shard.get("plans", ()):
                lines.append(f"    shard {sub['shard']}:")
                lines.extend(_plan_lines(sub, "      "))
        plan = data.get("plan")
        if plan is not None:
            lines.append(f"  optimizer: {plan['optimizer']} "
                         f"(plans considered: {plan['plans_considered']}, "
                         f"metadata accesses: {plan['metadata_accesses']})")
            pinned = ", ".join(f"#{pin['slot']}={pin['value']!r} ({pin['reason']})"
                               for pin in plan["pinned"]) or "none"
            lines.append(f"  shape: {plan['slots']} slot(s), pinned: {pinned}")
            lines.extend(_plan_lines(plan, "  "))
            for barrier in plan["barriers"]:
                lines.append(f"  streaming barrier: {barrier}")
            if not plan["barriers"]:
                lines.append("  streaming barrier: none (fully pipelined)")
            for warning in plan["warnings"]:
                lines.append(f"  warning: {warning}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Explain({self._data['system']!r}, {self._data['mode']!r})"


def explain_query(database, system: str | None, query) -> Explain:
    """Build the EXPLAIN for one query on one connection — no execution,
    no caches touched (compiles fresh against the live store, through
    the pipeline every execution takes)."""
    from repro.xquery.planner import compile_query

    name = database.resolve_system(system)
    text = database.query_text(query)
    compiled = compile_query(text, database.store(name),
                             database.profiles[name])
    data: dict = {"system": name, "query": text,
                  "mode": "service" if database.service is not None
                  else "direct"}
    shard = describe_exchange(compiled)
    if shard is not None:
        data["mode"], data["shard"] = "scatter", shard
    data["plan"] = describe_compiled(compiled)
    return Explain(data)
