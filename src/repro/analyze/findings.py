"""Findings, suppressions, baseline and report plumbing for ``xmark lint``.

A :class:`Finding` is one rule hit.  Its **fingerprint** hashes the rule
id, file path, enclosing symbol and message — but not the line number —
so unrelated edits that shift lines do not churn the committed baseline.

Gate semantics: a finding is *active* unless an inline
``# lint: ok(rule-id) — reason`` marker covers its line.  Active
findings not present in the committed baseline are *new*; the CLI exits
1 when any exist.  A suppression without a reason is itself reported
under the ``suppression-hygiene`` meta rule, so every silenced finding
carries its justification in the source.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding",
    "apply_suppressions",
    "load_baseline",
    "save_baseline",
    "partition_new",
    "build_lint_report",
]

#: Meta rule id for malformed / unjustified suppression markers.
SUPPRESSION_RULE = "suppression-hygiene"


@dataclass
class Finding:
    rule: str
    path: str            #: path relative to the analysis root
    line: int
    symbol: str          #: enclosing function/class qualname ("" at module scope)
    message: str
    suppressed: bool = False
    suppress_reason: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        key = "\x00".join((self.rule, self.path, self.symbol, self.message))
        return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]

    def format(self) -> str:
        mark = " [suppressed]" if self.suppressed else ""
        where = f"{self.path}:{self.line}"
        sym = f" ({self.symbol})" if self.symbol else ""
        return f"{where}: {self.rule}: {self.message}{sym}{mark}"

    def as_dict(self) -> dict:
        out = {
            "rule": self.rule, "path": self.path, "line": self.line,
            "symbol": self.symbol, "message": self.message,
            "fingerprint": self.fingerprint,
        }
        if self.suppressed:
            out["suppressed"] = True
            out["suppress_reason"] = self.suppress_reason
        if self.extra:
            out["extra"] = self.extra
        return out


def apply_suppressions(project, findings: list[Finding]) -> list[Finding]:
    """Mark findings covered by inline markers; flag reasonless markers.

    Returns the full list (suppressed findings stay, flagged) plus any
    ``suppression-hygiene`` findings for markers with no reason.
    """
    out: list[Finding] = []
    flagged_markers: set[tuple[str, int, str]] = set()
    for finding in findings:
        module = project.module_for_rel(finding.path)
        if module is not None:
            sup = module.suppression_for(finding.line, finding.rule)
            if sup is not None:
                finding.suppressed = True
                finding.suppress_reason = sup.reason
                if not sup.reason:
                    key = (finding.path, sup.comment_line, sup.rule)
                    if key not in flagged_markers:
                        flagged_markers.add(key)
                        out.append(Finding(
                            rule=SUPPRESSION_RULE, path=finding.path,
                            line=sup.comment_line, symbol=finding.symbol,
                            message=(f"suppression ok({sup.rule}) has no "
                                     "reason — add '— why' after the "
                                     "marker")))
        out.append(finding)
    return out


def load_baseline(path: Path | str) -> set[str]:
    """Fingerprints recorded in the committed baseline file."""
    path = Path(path)
    if not path.exists():
        return set()
    data = json.loads(path.read_text(encoding="utf-8"))
    return {entry["fingerprint"] for entry in data.get("findings", ())}


def save_baseline(path: Path | str, findings: list[Finding]) -> None:
    """Write the active (non-suppressed) findings as the new baseline."""
    entries = [
        {"fingerprint": f.fingerprint, "rule": f.rule, "path": f.path,
         "symbol": f.symbol, "message": f.message}
        for f in findings if not f.suppressed]
    entries.sort(key=lambda e: (e["path"], e["rule"], e["message"]))
    doc = {"version": 1, "findings": entries}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def partition_new(findings: list[Finding],
                  baseline: set[str]) -> tuple[list[Finding], list[Finding]]:
    """Split active findings into (new, baselined)."""
    new: list[Finding] = []
    old: list[Finding] = []
    for finding in findings:
        if finding.suppressed:
            continue
        (old if finding.fingerprint in baseline else new).append(finding)
    return new, old


def build_lint_report(findings: list[Finding], new: list[Finding],
                      timings: dict[str, float], root: str) -> dict:
    """The findings document ``xmark lint --json`` writes: per rule its
    findings, active / suppressed counts and pass wall time, then the
    gate's totals (``ok`` is what the exit status reports)."""
    rules: dict[str, list[Finding]] = {rule: [] for rule in timings}
    for finding in findings:
        rules.setdefault(finding.rule, []).append(finding)
    return {
        "root": root,
        "rules": {
            rule: {
                "findings": [f.as_dict() for f in bucket],
                "active": sum(1 for f in bucket if not f.suppressed),
                "suppressed": sum(1 for f in bucket if f.suppressed),
                "seconds": timings.get(rule, 0.0),
            }
            for rule, bucket in sorted(rules.items())
        },
        "new_findings": len(new),
        "total_findings": len(findings),
        "suppressed": sum(1 for f in findings if f.suppressed),
        "ok": not new,
    }
