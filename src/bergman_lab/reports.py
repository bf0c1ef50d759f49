"""Run records, canonical hashing, and report persistence.

A run produces one record per executed check.  Records append to a
JSON-lines file (one object per line, safe to concatenate across runs),
and the run as a whole is summarized in a JSON document whose
``report_hash`` covers every numeric output except timings, so reruns
with the same configuration and seed must reproduce it bit for bit.
Each record is sanitized once, and the hash computed once per report;
the summary, the records file and the hash serialize those same objects.
Margin tables export to CSV for plotting.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import SCHEMA, __version__

__all__ = [
    "CheckRecord",
    "RunReport",
    "VERDICTS",
    "canonical_json",
    "config_hash",
    "exit_code",
    "worst_exit_code",
    "load_summary",
    "merge_reports",
    "write_report",
]

VERDICTS = ("pass", "fail", "unconverged")
VERDICT_EXIT_CODES = {"pass": 0, "fail": 2, "unconverged": 3}


def _sanitize(obj):
    """JSON-able deep copy; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, complex):
        return {"re": _sanitize(obj.real), "im": _sanitize(obj.imag)}
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def _dumps(clean) -> str:
    """:func:`canonical_json` of an object that is already sanitized
    (sanitizing is idempotent, so the bytes are the same)."""
    return json.dumps(clean, sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, no whitespace."""
    return _dumps(_sanitize(obj))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named check."""

    name: str
    verdict: str
    margins: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    error: str = ""
    timing_s: float = 0.0

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}, got {self.verdict!r}")

    @cached_property
    def _clean(self) -> dict:
        """The record sanitized once; the summary, the records file and the
        report hash all serialize this."""
        return _sanitize({
            "name": self.name,
            "verdict": self.verdict,
            "margins": self.margins,
            "outputs": self.outputs,
            "error": self.error,
            "timing_s": self.timing_s,
        })

    def as_dict(self) -> dict:
        return dict(self._clean)

    def payload(self) -> dict:
        """Everything that must reproduce across runs (timings excluded)."""
        d = self.as_dict()
        d.pop("timing_s")
        return d


def worst_exit_code(codes) -> int:
    """Combine exit codes: 2 dominates 3, which dominates 0."""
    codes = set(codes)
    if 2 in codes:
        return 2
    if 3 in codes:
        return 3
    return 0


def exit_code(records) -> int:
    """0 when every verdict passes, 2 on any failure, else 3 on unconverged."""
    return worst_exit_code(VERDICT_EXIT_CODES[r.verdict] for r in records)


@dataclass(frozen=True)
class RunReport:
    scenario_id: str
    config_hash: str
    records: tuple
    seed: int = 0

    @cached_property
    def report_hash(self) -> str:
        """Computed on first read; the report and its records are frozen."""
        body = _sanitize({
            "scenario_id": self.scenario_id,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "schema": SCHEMA,
        })
        body["records"] = [r.payload() for r in self.records]
        return hashlib.sha256(_dumps(body).encode()).hexdigest()

    @property
    def exit_code(self) -> int:
        return exit_code(self.records)

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "version": __version__,
            "scenario_id": self.scenario_id,
            "config_hash": self.config_hash,
            "report_hash": self.report_hash,
            "seed": self.seed,
            "exit_code": self.exit_code,
            "records": [r.as_dict() for r in self.records],
        }


def margins_csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["scenario", "check", "verdict", "margin", "value"])
    for rec in report.records:
        if not rec.margins:
            writer.writerow([report.scenario_id, rec.name, rec.verdict, "", ""])
        for key, val in sorted(rec.margins.items()):
            writer.writerow([report.scenario_id, rec.name, rec.verdict, key, repr(val)])
    return buf.getvalue()


def write_report(report: RunReport, out_dir, format: str = "json") -> list:
    """Persist a run: append records to records.jsonl, rewrite the summary.

    Returns the paths written.  An existing records file from a different
    configuration is left untouched and the append refuses.
    """
    if format not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    lines_path = out / "records.jsonl"
    if lines_path.exists():
        with lines_path.open("rb") as fh:
            first = fh.readline()  # the first record alone: an append costs the same at any length
        try:
            prev = json.loads(first)["config_hash"] if first else ""
        except (ValueError, KeyError, TypeError):  # not JSON, or not a record of ours
            prev = None
        if prev not in ("", report.config_hash):
            raise ValueError(
                f"refusing to append to {lines_path}: existing records carry "
                f"config hash {str(prev)[:12]}…, this run is {report.config_hash[:12]}…"
            )
    head = _sanitize({
        "schema": SCHEMA,
        "scenario_id": report.scenario_id,
        "config_hash": report.config_hash,
    })
    with lines_path.open("a") as fh:
        for rec in report.records:
            fh.write(_dumps({**head, **rec.as_dict()}) + "\n")
    paths.append(lines_path)

    summary_path = out / f"summary-{report.scenario_id}.json"
    summary_path.write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    paths.append(summary_path)

    if format == "csv":
        csv_path = out / f"margins-{report.scenario_id}.csv"
        csv_path.write_text(margins_csv(report))
        paths.append(csv_path)
    return paths


def load_summary(path) -> dict:
    """The summary at ``path``; ``ValueError`` unless it is a JSON object of
    this schema (bytes that are not JSON included)."""
    try:
        data = json.loads(Path(path).read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path}: not a JSON summary ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: holds a JSON {type(data).__name__}, not a summary object")
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema {data.get('schema')!r} is not {SCHEMA!r}")
    missing = [k for k in ("scenario_id", "config_hash", "report_hash", "records") if k not in data]
    if missing:
        raise ValueError(f"{path}: summary lacks {', '.join(missing)}")
    return data


def merge_reports(summaries) -> dict:
    """Combine summaries from the same configuration; mismatched hashes refuse."""
    summaries = list(summaries)
    if not summaries:
        raise ValueError("nothing to merge")
    base = summaries[0]
    for s in summaries[1:]:
        if s["config_hash"] != base["config_hash"]:
            raise ValueError(
                f"config hash mismatch: {base['config_hash'][:12]}… vs {s['config_hash'][:12]}…"
            )
    records = [r for s in summaries for r in s["records"]]
    return {
        "schema": base["schema"],
        "config_hash": base["config_hash"],
        "scenario_ids": [s["scenario_id"] for s in summaries],
        "records": records,
        "exit_code": worst_exit_code(VERDICT_EXIT_CODES[r["verdict"]] for r in records),
    }
