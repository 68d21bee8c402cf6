"""The static analyzer: rules, suppressions, baseline, gate, CLI.

The seeded fixture trees under ``tests/lint_fixtures`` carry exactly
one known violation per rule (plus suppressed variants); the whole-repo
clean run is the live acceptance criterion — ``xmark lint`` must stay
exit 0 against the committed baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analyze import (
    ALL_RULES, Project, build_lock_graph, default_baseline_path,
    default_src_root, find_lock_cycles, load_baseline, run_lint,
    save_baseline,
)
from repro.cli import main as cli_main

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
SEEDED = FIXTURES / "seeded"
SUPPRESSED = FIXTURES / "suppressed"


@pytest.fixture(scope="module")
def seeded():
    return run_lint(SEEDED, package="repro")


@pytest.fixture(scope="module")
def suppressed():
    return run_lint(SUPPRESSED, package="repro")


def by_rule(result, rule):
    return [f for f in result.findings if f.rule == rule]


class TestSeededFixtures:
    """One known violation per rule, all reported as new."""

    def test_gate_fails(self, seeded):
        assert not seeded.ok
        assert len(seeded.new) == 9

    def test_async_blocking(self, seeded):
        hits = by_rule(seeded, "async-blocking")
        messages = [f.message for f in hits]
        assert any("time.sleep" in m for m in messages)
        assert any("_flush_lock" in m for m in messages)
        assert any("self._pool.shutdown() joins the executor's workers" in m
                   for m in messages)
        # the nested def routed through the pool must stay legal
        assert all("routed" not in f.symbol for f in hits)

    def test_lock_discipline_cycle(self, seeded):
        hits = by_rule(seeded, "lock-discipline")
        assert len(hits) == 1
        assert "lock-order cycle" in hits[0].message
        assert "_debit" in hits[0].message and "_credit" in hits[0].message
        assert hits[0].extra["witnesses"]  # concrete acquisition sites

    def test_shared_state(self, seeded):
        hits = by_rule(seeded, "shared-state")
        assert sorted(f.symbol for f in hits) == \
            ["repro.db.cursors_bad:Connection.register",
             "repro.service.state_bad:Registry.put"]
        # __init__ writes and the locked read stay legal
        assert all(f.line != 8 for f in hits)

    def test_error_taxonomy(self, seeded):
        messages = [f.message for f in by_rule(seeded, "error-taxonomy")]
        assert any("swallows the error" in m for m in messages)
        assert any("raise ValueError" in m for m in messages)

    def test_resource_hygiene(self, seeded):
        hits = by_rule(seeded, "resource-hygiene")
        assert len(hits) == 1
        assert hits[0].path == "repro/storage/leak_bad.py"


class TestSuppressions:
    def test_justified_markers_silence_everything(self, suppressed):
        assert suppressed.ok
        assert all(f.suppressed for f in suppressed.findings)
        assert len(suppressed.findings) == 6
        assert all(f.suppress_reason for f in suppressed.findings)

    def test_reasonless_marker_is_flagged(self, tmp_path):
        mod = tmp_path / "repro" / "service" / "latch.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import threading\n\n\n"
            "class Latch:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._set = False\n\n"
            "    def fire(self):\n"
            "        self._set = True  # lint: ok(shared-state)\n",
            encoding="utf-8")
        result = run_lint(tmp_path, package="repro")
        rules = {f.rule for f in result.new}
        assert rules == {"suppression-hygiene"}
        assert not any(f.rule == "shared-state" for f in result.new)

    def test_marker_for_other_rule_does_not_silence(self, tmp_path):
        mod = tmp_path / "repro" / "storage" / "leaky.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import json\n\n\n"
            "def read(path):\n"
            "    # lint: ok(shared-state) — wrong rule id\n"
            "    return json.load(open(path))\n",
            encoding="utf-8")
        result = run_lint(tmp_path, package="repro")
        assert any(f.rule == "resource-hygiene" and not f.suppressed
                   for f in result.new)


class TestBaseline:
    def test_roundtrip_silences_known_findings(self, tmp_path, seeded):
        baseline = tmp_path / "baseline.json"
        save_baseline(baseline, seeded.findings)
        again = run_lint(SEEDED, package="repro", baseline=baseline)
        assert again.ok
        assert len(again.baselined) == len(seeded.new)

    def test_fingerprints_survive_line_drift(self, seeded):
        f = seeded.new[0]
        before = f.fingerprint
        f.line += 40
        assert f.fingerprint == before

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()


class TestRepoClean:
    """The live acceptance criterion: the shipped tree lints clean."""

    def test_repo_lint_is_clean(self):
        result = run_lint(default_src_root(), package="repro",
                          baseline=default_baseline_path())
        assert result.ok, "\n".join(f.format() for f in result.new)
        # the committed baseline carries no debt
        assert load_baseline(default_baseline_path()) == set()
        # every shipped suppression carries its justification
        for finding in result.findings:
            if finding.suppressed:
                assert finding.suppress_reason

    def test_lock_registry_harvests_known_sites(self):
        project = Project.load(default_src_root(), package="repro")
        expected = {
            "repro.db.database:ReadWriteLock._mutex",
            "repro.cache:LRUCache._lock",
            "repro.cache:PlanCache._lock",
            "repro.db.database:Database._update_lock",
            "repro.server.client:WireClient._lock",
            "repro.shard.scatter:ScatterGatherExecutor._rebuild_locks",
            "repro.obs.trace:Tracer._lock",
            "repro.obs.metrics:MetricsRegistry._lock",
            "repro.storage.schema_store:SchemaStore._frag_cache_lock",
            "repro.service.invalidation:_fallback_lock",
        }
        assert expected <= set(project.locks)
        assert project.locks[
            "repro.db.database:Database._update_lock"].kind == "RLock"
        connection = project.locks["repro.db.database:ReadWriteLock._mutex"]
        assert connection.kind == "Lock" and not connection.collection
        assert not any(lock.startswith("repro.service.service:")
                       for lock in project.locks)

    def test_static_lock_graph_is_acyclic(self):
        project = Project.load(default_src_root(), package="repro")
        edges = build_lock_graph(project)
        assert find_lock_cycles(edges) == []
        # Database.close() takes the update lock, then the connection
        # lock's write side, lexically; a commit takes the same order
        # through repro.update.commit.WritePath, whose lock and exclusion
        # are data the static pass cannot follow (tests/test_lockwitness.py
        # asserts it on cross_check's union graph).
        assert ("repro.db.database:Database._update_lock",
                "repro.db.database:ReadWriteLock._mutex") in edges


class TestCli:
    def test_lint_exits_1_on_seeded_tree(self, capsys):
        code = cli_main(["lint", "--root", str(SEEDED),
                         "--package", "repro", "-q"])
        assert code == 1

    def test_lint_exits_0_on_suppressed_tree(self, capsys):
        code = cli_main(["lint", "--root", str(SUPPRESSED),
                         "--package", "repro", "-q"])
        assert code == 0

    def test_json_report_is_a_findings_document(self, tmp_path, capsys):
        out = tmp_path / "lint-report.json"
        code = cli_main(["lint", "--root", str(SEEDED), "--package",
                         "repro", "-q", "--json", str(out)])
        assert code == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        assert set(report) == {"root", "rules", "new_findings",
                               "total_findings", "suppressed", "ok"}
        assert set(report["rules"]) == {cls.id for cls in ALL_RULES}
        for rule in report["rules"].values():
            assert set(rule) == {"findings", "active", "suppressed", "seconds"}
            assert rule["active"] + rule["suppressed"] == len(rule["findings"])
            assert isinstance(rule["seconds"], float)
        assert report["ok"] is False
        assert report["new_findings"] == 9
        assert report["total_findings"] == sum(
            len(rule["findings"]) for rule in report["rules"].values())

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for cls in ALL_RULES:
            assert cls.id in out


# -- the public-API gate -----------------------------------------------------------


def test_the_public_api_surface_names_no_checkout_path():
    """``tools/check_public_api.py`` must read the same surface in every
    checkout: a default argument holding the repository's own path (the
    lock witness's source root) renders as a placeholder."""
    import importlib.util
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "check_public_api", root / "tools" / "check_public_api.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    assert not [line for line in gate.surface() if str(root) in line]
