"""Report serialization: machine-diffable JSON plus a human summary table."""

from __future__ import annotations

import difflib
import json
from pathlib import Path

from .optimizer import OptimizationReport


def make_patch(original: bytes, optimized: bytes, name: str) -> str:
    if original == optimized:
        return ""
    before = original.decode("utf-8").splitlines(keepends=True)
    after = optimized.decode("utf-8").splitlines(keepends=True)
    return "".join(difflib.unified_diff(before, after,
                                        fromfile=name, tofile=f"{name}.optimized"))


def report_to_dict(report: OptimizationReport) -> dict:
    verdicts = []
    for v in report.verdicts:
        verdicts.append({
            "mutant_id": v.mutant_id,
            "operator": v.operator,
            "line": v.line,
            "col": v.col,
            "original": v.original,
            "replacement": v.replacement,
            "status": v.status,
            "input_id": v.input_id,
            "tau": None if v.tau is None else v.tau.value,
            "runs": v.runs,
        })
    counts: dict[str, int] = {}
    for v in report.verdicts:
        counts[v.status] = counts.get(v.status, 0) + 1
    selected = None
    if report.selected is not None:
        m = report.selected
        selected = {
            "mutant_id": m.id,
            "operator": m.operator,
            "line": m.line,
            "col": m.col,
            "start": m.start,
            "end": m.end,
            "original": m.original,
            "replacement": m.replacement,
        }
    name = report.config_echo.get("source_name", "source")
    return {
        "unit": report.unit,
        "original_tau": report.original_tau.value,
        "final_tau": report.final_tau.value,
        "speedup": (report.original_tau.value / report.final_tau.value
                    if report.final_tau.value else 1.0),
        "selected": selected,
        "verdict_counts": counts,
        "verdicts": verdicts,
        "inputs": list(report.input_ids),
        "backend": report.config_echo["backend"],
        "config": report.config_echo,
        "original_source": report.original_source.decode("utf-8"),
        "final_source": report.selected_source.decode("utf-8"),
        "patch": make_patch(report.original_source, report.selected_source, name),
        "host": report.host,
    }


def write_report(report: OptimizationReport, path: Path | str) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report), indent=2) + "\n",
                          encoding="utf-8")


def render_summary(report: OptimizationReport) -> str:
    """Per-mutant table plus totals, for standard output."""
    rows = [("mutant", "operator", "site", "status", "tau", "input")]
    for v in report.verdicts:
        rows.append((
            v.mutant_id,
            v.operator,
            f"{v.line}:{v.col}",
            v.status,
            "-" if v.tau is None else str(v.tau.value),
            v.input_id or "-",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.append("")
    lines.append(f"original tau: {report.original_tau.value} {report.unit}")
    lines.append(f"final tau:    {report.final_tau.value} {report.unit}")
    if report.selected is not None:
        m = report.selected
        speedup = report.original_tau.value / report.final_tau.value
        lines.append(
            f"selected:     {m.id} ({m.original} -> {m.replacement} "
            f"at line {m.line}, col {m.col}), speedup {speedup:.2f}x")
    else:
        lines.append("selected:     none (original source returned)")
    return "\n".join(lines)
