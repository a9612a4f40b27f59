"""Structured findings and their rendering.

A :class:`Finding` pins one rule violation to a file and line, with a
fix hint so the annotation/refactor decision is quick.  Rendering lives
here too (text for humans and CI logs, JSON for tooling) so every
consumer — CLI, pytest gate, CI — prints findings identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str            # file path as scanned (relative when possible)
    line: int            # 1-based line of the offending node
    rule: str            # e.g. "trust-boundary/attr"
    message: str         # what is wrong, concretely
    hint: str = ""       # how to fix or annotate it
    module: str = ""     # dotted module name ("repro.host.kernel")

    @property
    def family(self):
        """The rule family ("trust-boundary" for "trust-boundary/attr")."""
        return self.rule.split("/", 1)[0]

    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)

    def to_dict(self):
        return asdict(self)

    def render(self):
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class Report:
    """The outcome of one analyzer run over a set of modules."""

    findings: list = field(default_factory=list)
    suppressed: int = 0
    checked_files: int = 0
    #: Call-graph build metadata from the driver (build time, module/
    #: function counts, resolution-cache statistics); shown in the JSON
    #: rendering so CI can track graph-construction regressions.
    callgraph: dict = field(default_factory=dict)

    def ok(self):
        return not self.findings

    def sorted_findings(self):
        return sorted(self.findings, key=Finding.sort_key)

    def render_text(self):
        lines = [f.render() for f in self.sorted_findings()]
        for family, stats in sorted(
                self.callgraph.get("fixpoints", {}).items()):
            if not stats["converged"]:
                lines.append(
                    f"warning: the {family} fixpoint stopped at its "
                    f"{stats['rounds']}-round bound before converging; "
                    f"its findings may be incomplete")
        lines.append(
            f"{len(self.findings)} finding(s), "
            f"{self.suppressed} suppressed, "
            f"{self.checked_files} file(s) checked"
        )
        return "\n".join(lines)

    def render_json(self):
        payload = {
            "findings": [f.to_dict() for f in self.sorted_findings()],
            "suppressed": self.suppressed,
            "checked_files": self.checked_files,
        }
        if self.callgraph:
            payload["callgraph"] = self.callgraph
        return json.dumps(payload, indent=2)

    def render_sarif(self):
        """SARIF 2.1.0, the GitHub code-scanning ingestion format.

        One run, one driver; every rule the analyzer can emit is listed
        in the driver's rule table so code scanning can show the
        invariant even for rules with no findings in this run.
        """
        from repro.analysis.passes import RULE_CATALOG

        rule_ids = sorted(RULE_CATALOG)
        rule_index = {rule: i for i, rule in enumerate(rule_ids)}
        results = []
        for f in self.sorted_findings():
            message = f.message
            if f.hint:
                message += f" ({f.hint})"
            results.append({
                "ruleId": f.rule,
                "ruleIndex": rule_index.get(f.rule, -1),
                "level": "error",
                "message": {"text": message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path.replace("\\", "/"),
                        },
                        "region": {"startLine": f.line},
                    },
                }],
            })
        return json.dumps(
            {
                "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                            "sarif-spec/master/Schemata/sarif-schema-"
                            "2.1.0.json"),
                "version": "2.1.0",
                "runs": [{
                    "tool": {
                        "driver": {
                            "name": "repro-analyze",
                            "rules": [
                                {
                                    "id": rule,
                                    "shortDescription": {
                                        "text": RULE_CATALOG[rule],
                                    },
                                }
                                for rule in rule_ids
                            ],
                        },
                    },
                    "results": results,
                }],
            },
            indent=2,
        )
