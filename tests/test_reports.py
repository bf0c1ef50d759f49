"""Report records: canonical serialization, hashing, persistence, merging."""

import hashlib
import json
import math

import numpy as np
import pytest

from bergman_lab import SCHEMA
from bergman_lab.reports import (
    CheckRecord,
    RunReport,
    canonical_json,
    config_hash,
    exit_code,
    worst_exit_code,
    load_summary,
    margins_csv,
    merge_reports,
    write_report,
)


def make_record(name="certify", verdict="pass", margin=0.5):
    return CheckRecord(name=name, verdict=verdict, margins={"m": margin}, timing_s=1.23)


def make_report(records=None, seed=0):
    return RunReport(
        scenario_id="demo",
        config_hash=config_hash({"a": 1}),
        records=tuple(records if records is not None else [make_record()]),
        seed=seed,
    )


class TestCanonicalJson:
    def test_key_order_invariance(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_no_whitespace(self):
        assert " " not in canonical_json({"a": [1, 2], "b": {"c": 3}})

    def test_specials_become_strings(self):
        s = canonical_json({"x": math.nan, "y": math.inf, "z": -math.inf})
        assert '"nan"' in s and '"inf"' in s and '"-inf"' in s

    def test_complex_becomes_re_im(self):
        payload = json.loads(canonical_json({"k": 1 + 2j}))
        assert payload["k"] == {"im": 2.0, "re": 1.0}

    def test_config_hash_stable(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestCheckRecord:
    def test_rejects_unknown_verdict(self):
        with pytest.raises(ValueError, match="verdict"):
            CheckRecord(name="x", verdict="maybe")

    def test_payload_drops_timing(self):
        rec = make_record()
        assert "timing_s" in rec.as_dict()
        assert "timing_s" not in rec.payload()

    def test_exit_code_precedence(self):
        ok = make_record()
        bad = make_record(verdict="fail")
        slow = make_record(verdict="unconverged")
        assert exit_code([]) == 0
        assert exit_code([ok]) == 0
        assert exit_code([ok, slow]) == 3
        assert exit_code([ok, slow, bad]) == 2

    def test_worst_exit_code(self):
        assert worst_exit_code([]) == 0
        assert worst_exit_code([0, 3, 0]) == 3
        assert worst_exit_code([3, 2, 0]) == 2


class TestRunReport:
    def test_hash_ignores_timing(self):
        a = make_report([CheckRecord(name="c", verdict="pass", timing_s=1.0)])
        b = make_report([CheckRecord(name="c", verdict="pass", timing_s=9.0)])
        assert a.report_hash == b.report_hash

    def test_hash_sees_verdicts_and_seed(self):
        base = make_report()
        assert base.report_hash != make_report([make_record(verdict="fail")]).report_hash
        assert base.report_hash != make_report(seed=1).report_hash

    def test_as_dict_roundtrips_through_json(self):
        d = json.loads(json.dumps(make_report().as_dict()))
        assert d["scenario_id"] == "demo"
        assert d["records"][0]["name"] == "certify"
        assert d["exit_code"] == 0

    def test_margins_csv_shape(self):
        text = margins_csv(make_report())
        lines = text.strip().splitlines()
        assert lines[0] == "scenario,check,verdict,margin,value"
        assert lines[1].startswith("demo,certify,pass,m,")


class TestPersistence:
    def test_write_and_load_roundtrip(self, tmp_path):
        report = make_report()
        paths = write_report(report, tmp_path)
        summary = load_summary(tmp_path / f"summary-{report.scenario_id}.json")
        assert summary["report_hash"] == report.report_hash
        assert [p.name for p in paths] == ["records.jsonl", "summary-demo.json"]

    @pytest.mark.parametrize("content, match", [
        (b'{"schema": "other"}', "schema 'other'"),
        (b"[1]", "not a summary object"),
        (b"\xff\x00 not json", "not a JSON summary"),
        (json.dumps({"schema": SCHEMA}).encode(), "lacks scenario_id, config_hash"),
    ], ids=["other-schema", "not-an-object", "not-json", "no-fields"])
    def test_load_refuses_a_foreign_summary(self, tmp_path, content, match):
        path = tmp_path / "summary-x.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=match):
            load_summary(path)

    def test_records_append_across_runs(self, tmp_path):
        write_report(make_report(), tmp_path)
        write_report(make_report([make_record(name="hormander")]), tmp_path)
        lines = (tmp_path / "records.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        assert {json.loads(ln)["name"] for ln in lines} == {"certify", "hormander"}

    def test_append_refuses_foreign_config(self, tmp_path):
        write_report(make_report(), tmp_path)
        foreign = RunReport(
            scenario_id="demo", config_hash=config_hash({"a": 2}), records=(make_record(),)
        )
        with pytest.raises(ValueError, match="config hash"):
            write_report(foreign, tmp_path)

    def test_append_reads_only_the_first_record(self, tmp_path):
        # later bytes that are not even UTF-8 are never read, so they cannot
        # stop the append; the first record still decides the refusal
        write_report(make_report(), tmp_path)
        with (tmp_path / "records.jsonl").open("ab") as fh:
            fh.write(b"\xff\xfe not a record\n")
        write_report(make_report([make_record(name="hormander")]), tmp_path)
        lines = (tmp_path / "records.jsonl").read_bytes().splitlines()
        assert len(lines) == 3 and json.loads(lines[-1])["name"] == "hormander"
        foreign = RunReport(
            scenario_id="demo", config_hash=config_hash({"a": 2}), records=(make_record(),)
        )
        with pytest.raises(ValueError, match="refusing to append .* config hash"):
            write_report(foreign, tmp_path)

    @pytest.mark.parametrize("first", [b"{}\n", b"[1]\n"], ids=["no-config-hash", "not-an-object"])
    def test_append_refuses_a_foreign_first_line(self, tmp_path, first):
        # a records file this program did not write is refused by name, not
        # met with a TypeError or AttributeError from reading its first line
        path = tmp_path / "records.jsonl"
        path.write_bytes(first)
        with pytest.raises(ValueError, match="refusing to append to .*records.jsonl"):
            write_report(make_report(), tmp_path)
        assert path.read_bytes() == first  # untouched

    def test_csv_format_adds_margin_file(self, tmp_path):
        write_report(make_report(), tmp_path, format="csv")
        assert (tmp_path / "margins-demo.csv").exists()

    def test_merge_requires_matching_config(self, tmp_path):
        write_report(make_report(), tmp_path)
        s1 = load_summary(tmp_path / "summary-demo.json")
        s2 = dict(s1, config_hash="0" * 64)
        with pytest.raises(ValueError, match="config hash"):
            merge_reports([s1, s2])

    def test_merge_combines_exit_codes(self, tmp_path):
        a = make_report()
        b = RunReport(
            scenario_id="demo2",
            config_hash=a.config_hash,
            records=(make_record(verdict="unconverged"),),
        )
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        write_report(a, d1)
        write_report(b, d2)
        merged = merge_reports(
            [load_summary(d1 / "summary-demo.json"), load_summary(d2 / "summary-demo2.json")]
        )
        assert merged["exit_code"] == 3
        assert merged["scenario_ids"] == ["demo", "demo2"]
        assert len(merged["records"]) == 2


def golden_report():
    recs = (
        CheckRecord(name="certify", verdict="pass",
                    margins={"psh_min_eig": 0.75, "b": -math.inf},
                    outputs={"eps0": np.float64(0.1) + 0.2, "nan": math.nan, "z": 1 - 2j,
                             "rows": ((1.5, math.inf), [3, None]), "k": np.int64(7), 2: "key"},
                    timing_s=1.23),
        CheckRecord(name="hormander", verdict="fail", margins={"ratio": 1e-300},
                    outputs={"detail": {"y": True, "x": "text"}}, error="boom", timing_s=0.5),
    )
    return RunReport(scenario_id="golden", config_hash=config_hash({"a": 1, "b": [1.0, math.nan]}),
                     records=recs, seed=3)


class TestGoldenBytes:
    """The hash and the bytes written for a fixed report, pinned: records are
    sanitized once and the hash computed once, with the same output as
    sanitizing every serialization afresh."""

    def test_report_hash(self):
        report = golden_report()
        assert report.report_hash == "efda0eaabfca5c8bad4b47b9b8d617132fc962982df7f9c43e5ce24f4e6a068b"
        assert report.as_dict()["report_hash"] == report.report_hash

    def test_written_bytes(self, tmp_path):
        write_report(golden_report(), tmp_path)
        digest = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("records.jsonl", "summary-golden.json")
        }
        assert digest == {
            "records.jsonl": "4a09a2cf591a09cdbd135aff4d9f653b1e86a91dcc685c753da888ac3b21da6c",
            "summary-golden.json": "cbee5391741e24b2d11ca0a572eaf4b6196ba5505b352e47b4df63a9dac6d94a",
        }

    def test_payload_serializes_like_canonical_json(self):
        for rec in golden_report().records:
            assert json.dumps(rec.payload(), sort_keys=True, separators=(",", ":")) == \
                canonical_json(rec.payload())
