"""Reporters for analyzer runs: clickable text, schema'd JSON, SARIF.

The text reporter prints one ``path:line: CODE message`` line per
violation (the grep/editor/CI-log convention ``tools/lint.py`` always
used) plus a one-line summary. The JSON reporter emits a versioned
document that round-trips through :func:`report_from_json`, so other
tools can consume analyzer output without scraping text. The SARIF
reporter emits a SARIF 2.1.0 log for code-scanning upload, so CI
findings land as inline PR annotations.
"""

from __future__ import annotations

from typing import Any, Dict

from .engine import AnalysisReport, Violation

#: Version stamp of the JSON report schema.
JSON_REPORT_VERSION = 1

#: SARIF spec version emitted by :func:`render_sarif`.
SARIF_VERSION = "2.1.0"

_SARIF_SCHEMA = ("https://json.schemastore.org/sarif-2.1.0.json")

#: Advisory rules map to SARIF "warning"; everything else is "error".
_ADVISORY_CODES = frozenset({"REPRO011", "REPRO402"})


def render_text(report: AnalysisReport) -> str:
    """One clickable line per violation, then a summary line."""
    lines = [violation.render() for violation in report.violations]
    if report.violations:
        lines.append(f"analyze: {len(report.violations)} problem(s) in "
                     f"{report.files_checked} file(s)"
                     + (f", {report.suppressed} suppressed"
                        if report.suppressed else ""))
    else:
        lines.append(f"analyze: {report.files_checked} file(s) clean"
                     + (f", {report.suppressed} suppressed"
                        if report.suppressed else ""))
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> Dict[str, Any]:
    """The report as a JSON-safe document (see :func:`report_from_json`)."""
    return {
        "version": JSON_REPORT_VERSION,
        "root": report.root,
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "counts": report.counts,
        "violations": [violation.to_dict()
                       for violation in report.violations],
    }


def render_sarif(report: AnalysisReport) -> Dict[str, Any]:
    """The report as a SARIF 2.1.0 log (GitHub code-scanning shape).

    Rule metadata comes from the live catalog; paths are emitted as
    repo-relative URIs, which is what the upload action expects when
    the analyzer ran from the repository root.
    """
    from .passes import rule_catalog
    catalog = rule_catalog()
    used = sorted({violation.code for violation in report.violations})
    rules = []
    for code in used:
        entry = catalog.get(code, {})
        rules.append({
            "id": code,
            "name": code,
            "shortDescription": {
                "text": entry.get("summary", "repro analyzer rule")},
            "properties": {"family": entry.get("pass", "?")},
            "defaultConfiguration": {
                "level": "warning" if code in _ADVISORY_CODES else "error"},
        })
    results = []
    for violation in report.violations:
        results.append({
            "ruleId": violation.code,
            "level": "warning" if violation.code in _ADVISORY_CODES
                     else "error",
            "message": {"text": violation.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": violation.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": max(1, violation.line)},
                },
            }],
        })
    return {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-analyze",
                    "rules": rules,
                },
            },
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }


def report_from_json(document: Dict[str, Any]) -> AnalysisReport:
    """Rebuild an :class:`AnalysisReport` from :func:`render_json` output."""
    from ..errors import ConfigError
    version = document.get("version")
    if version != JSON_REPORT_VERSION:
        raise ConfigError(f"unsupported analysis report version {version!r}"
                          f" (expected {JSON_REPORT_VERSION})")
    report = AnalysisReport(root=document.get("root", "."),
                            files_checked=int(document.get("files_checked", 0)),
                            suppressed=int(document.get("suppressed", 0)))
    for entry in document.get("violations", []):
        report.violations.append(Violation(
            path=entry["path"], line=int(entry["line"]), code=entry["code"],
            message=entry["message"], pass_name=entry.get("pass", "?")))
    return report
