"""Lint engine v2: selection, suppression edge cases, schema, baselines.

The per-rule behaviors live in ``test_analysis_lint.py`` (RA0xx) and the
per-pass suites; this file exercises the engine itself — pass/wildcard
selection, multi-rule and continuation-line noqa, the ``lint/2`` JSON
round-trip with evidence chains, and the baseline ratchet.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    PASS_NAMES,
    all_rules,
    baseline_payload,
    lint_sources,
    load_baseline,
    new_findings,
    resolve_passes,
    resolve_selection,
)
from repro.analysis.lint import BASELINE_SCHEMA, SCHEMA, LintResult

pytestmark = pytest.mark.analysis

#: One RA001 (print) and one RA204 (untimed get in loop) in a single file.
MIXED = (
    "import queue\n\n"
    "q = queue.Queue()\n\n\n"
    "def drain():\n"
    "    while True:\n"
    "        print(q.get())\n"
)

#: Wires the fixture module into its package so the architecture pass has
#: nothing to say (imported module, __all__-declared symbols) and only the
#: seeded RA001/RA204 remain.
COMPANION = 'from pkg.serve import m\n\n__all__ = ["drain", "more"]\n'


def _mixed(source=MIXED):
    return {"pkg/serve/m.py": source, "pkg/serve/__init__.py": COMPANION}


def _findings(sources, **kw):
    return lint_sources(sources, package="pkg", **kw).findings


class TestPassSelection:
    def test_default_runs_all_passes(self):
        result = lint_sources(_mixed(), package="pkg")
        assert result.passes_run == list(PASS_NAMES)
        assert {f.rule for f in result.findings} == {"RA001", "RA204"}

    def test_pass_filter_restricts_families(self):
        result = lint_sources(_mixed(), package="pkg", passes=["concurrency"])
        assert result.passes_run == ["concurrency"]
        assert {f.rule for f in result.findings} == {"RA204"}

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            resolve_passes(["arch", "nonsense"])

    def test_wildcard_select(self):
        # RA2XX selects the whole concurrency family, case-insensitive.
        findings = _findings(_mixed(), select=["ra2xx"])
        assert {f.rule for f in findings} == {"RA204"}

    def test_wildcard_and_explicit_rule_combine(self):
        findings = _findings(_mixed(), select=["RA001", "RA2XX"])
        assert {f.rule for f in findings} == {"RA001", "RA204"}

    def test_select_intersects_with_passes(self):
        findings = _findings(_mixed(), select=["RA001", "RA204"], passes=["file"])
        assert {f.rule for f in findings} == {"RA001"}

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            resolve_selection(["RA999"], None)

    def test_rule_catalogue_spans_all_passes(self):
        families = {rule.id[2] for rule in all_rules()}
        assert families == {"0", "1", "2"}


class TestSuppressionEdgeCases:
    def test_multi_rule_noqa_suppresses_both(self):
        source = MIXED.replace(
            "        print(q.get())\n",
            "        print(q.get())  "
            "# repro: noqa[RA001,RA204] diagnostic drain loop\n",
        )
        result = lint_sources(_mixed(source), package="pkg")
        assert not result.findings
        assert {f.rule for f in result.suppressed} == {"RA001", "RA204"}

    def test_multi_rule_noqa_leaves_other_rules_alone(self):
        source = MIXED.replace(
            "        print(q.get())\n",
            "        print(q.get())  # repro: noqa[RA204] sentinel-driven\n",
        )
        result = lint_sources(_mixed(source), package="pkg")
        assert {f.rule for f in result.findings} == {"RA001"}
        assert {f.rule for f in result.suppressed} == {"RA204"}

    def test_noqa_binds_to_anchor_line_not_continuation(self):
        # The call spans three lines; the marker only works on the line
        # the finding anchors to (the call's lineno).
        on_continuation = (
            "import queue\n\n"
            "q = queue.Queue()\n\n\n"
            "def drain():\n"
            "    while True:\n"
            "        item = q.get(\n"
            "        )  # repro: noqa[RA204] wrong line\n"
        )
        result = lint_sources(
            {"pkg/serve/m.py": on_continuation}, package="pkg",
            select=["RA204"],
        )
        assert len(result.findings) == 1

        on_anchor = on_continuation.replace(
            "        item = q.get(\n",
            "        item = q.get(  # repro: noqa[RA204] sentinel-driven\n",
        )
        result = lint_sources(
            {"pkg/serve/m.py": on_anchor}, package="pkg", select=["RA204"]
        )
        assert not result.findings and len(result.suppressed) == 1

    def test_module_level_finding_suppressed_on_line_one(self):
        result = lint_sources({
            "pkg/core/orphan.py": (
                "# repro: noqa[RA103] staged for the next PR\n"
                "X = 1\n"
            ),
            "pkg/core/hub.py": "Y = 2\n",
        }, package="pkg", select=["RA103"])
        assert [f.path for f in result.findings] == ["pkg/core/hub.py"]
        assert [f.path for f in result.suppressed] == ["pkg/core/orphan.py"]


class TestSchemaRoundTrip:
    def test_v2_payload_round_trips_with_evidence(self):
        sources = {
            "pkg/serve/service.py": (
                "import threading\n\n"
                "from pkg.serve.worker import spawn\n\n\n"
                "class S:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n\n"
                "    def start(self):\n"
                "        spawn()\n"
            ),
            "pkg/serve/worker.py": (
                "import multiprocessing\n\n\n"
                "def spawn():\n"
                "    multiprocessing.Process(target=print, name='w',\n"
                "                            daemon=True).start()\n"
            ),
        }
        result = lint_sources(sources, package="pkg", select=["RA202"])
        assert len(result.findings) == 1
        payload = json.loads(result.to_json())
        assert payload["schema"] == SCHEMA
        assert payload["passes"] == list(PASS_NAMES)
        (finding,) = payload["findings"]
        assert finding["pass"] == "concurrency"
        assert len(finding["evidence"]) == 3
        assert finding["evidence"][-1]["path"] == "pkg/serve/worker.py"

        rebuilt = LintResult.from_dict(payload)
        assert rebuilt.fingerprints() == result.fingerprints()
        assert rebuilt.findings[0].evidence == result.findings[0].evidence
        assert rebuilt.passes_run == result.passes_run

    def test_v1_payload_still_loads(self):
        v1 = {
            "schema": "repro.analysis.lint/1",
            "files_checked": 1,
            "findings": [{
                "path": "a.py", "line": 3, "col": 0,
                "rule": "RA001", "message": "print() in library code",
            }],
            "suppressed": [],
            "errors": [],
        }
        rebuilt = LintResult.from_dict(v1)
        assert rebuilt.findings[0].rule == "RA001"
        assert rebuilt.findings[0].evidence == ()
        assert rebuilt.passes_run == []


class TestBaselines:
    def test_ratchet_tolerates_old_flags_new(self, tmp_path):
        old = lint_sources(_mixed(), package="pkg")
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps(baseline_payload(old)))

        baseline = load_baseline(baseline_file)
        assert not new_findings(old, baseline)

        # A second untimed queue: its message (and so its fingerprint)
        # differs from the baselined one. A textually identical finding
        # elsewhere in the same file is ratchet-tolerated by design —
        # fingerprints are line-insensitive.
        grown = MIXED + (
            "\n\nr = queue.Queue()\n\n\n"
            "def more():\n"
            "    while True:\n"
            "        if r.get() is None:\n"
            "            break\n"
        )
        now = lint_sources(_mixed(grown), package="pkg")
        fresh = new_findings(now, baseline)
        assert [f.rule for f in fresh] == ["RA204"]
        assert all("r.get()" in f.message for f in fresh)

    def test_fingerprints_survive_line_moves(self):
        shifted = "# a leading comment\n" + MIXED
        a = lint_sources(_mixed(), package="pkg")
        b = lint_sources(_mixed(shifted), package="pkg")
        assert a.fingerprints() == b.fingerprints()

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "not_baseline.json"
        bad.write_text(json.dumps({"schema": "other/1", "fingerprints": []}))
        with pytest.raises(ValueError, match="not a lint baseline"):
            load_baseline(bad)

    def test_baseline_schema_is_versioned(self):
        payload = baseline_payload(
            lint_sources({"pkg/m.py": "X = 1\n"}, package="pkg")
        )
        assert payload["schema"] == BASELINE_SCHEMA
