"""EXPERIMENTS.md quotes the committed result artifacts it cites.

The document is written by hand from ``results/``. These checks fail when
an artifact is re-run and the document is not brought along with it.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
DOC = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")

METHODS = {"FakeDetector", "lp", "deepwalk", "line", "svm", "rnn"}

_CLAIM_RE = re.compile(r"^\s*\[(PASS|MISS)\] (.+)$")


def section(heading: str) -> str:
    """One ``## `` section of the document, whitespace collapsed."""
    start = DOC.index(f"## {heading}")
    end = DOC.find("\n## ", start + 1)
    text = DOC[start:end if end != -1 else len(DOC)]
    return " ".join(text.replace("**", "").split())


def panel(name: str, title: str) -> dict:
    """``{method: [value per θ]}`` of one panel of a rendered figure."""
    lines = (RESULTS / name).read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines[lines.index(title) + 2:]:  # skip the θ header
        if not line.strip():
            break
        method, *values = line.split()
        rows[method] = values
    return rows


def claims(name: str) -> dict:
    """``{claim: (verdict, detail line)}`` of a rendered claim check."""
    lines = (RESULTS / name).read_text(encoding="utf-8").splitlines()
    out = {}
    for i, line in enumerate(lines):
        match = _CLAIM_RE.match(line)
        if match:
            detail = lines[i + 1].strip() if i + 1 < len(lines) else ""
            out[match.group(2)] = (match.group(1), detail)
    return out


def values(detail: str) -> dict:
    """``{method: value}`` from ``best=lp FakeDetector=0.616, lp=0.630, …``."""
    return dict(re.findall(r"(\w+)=([0-9.]+)", detail.split(" ", 1)[1]))


def test_figure4_accuracy_series_is_quoted():
    text = section("Figure 4")
    rows = panel("figure4.txt", "Figure 4(a): Bi-Class Article Accuracy")
    assert set(rows) == METHODS
    for method, series in rows.items():
        assert f"{method} {'/'.join(series)}" in text, method


def test_figure4_article_claims_are_quoted():
    text = section("Figure 4")
    checked = claims("figure4.txt")
    for claim in (
        "FakeDetector best bi-class accuracy on articles",
        "FakeDetector best bi-class f1 on articles",
    ):
        verdict, detail = checked[claim]
        best = detail.split()[0].removeprefix("best=")
        numbers = values(detail)
        assert numbers["FakeDetector"] in text, claim
        if best != "FakeDetector":
            assert f"{best} {numbers[best]}" in text, claim
    passed = sum(verdict == "PASS" for verdict, _ in checked.values())
    assert f"passes {passed} of {len(checked)} verdicts" in text


def test_figure5_macro_f1_series_is_quoted():
    rows = panel("figure5.txt", "Figure 5(b): Multi-Class Article Macro F1")
    assert "/".join(rows["FakeDetector"]) in section("Figure 5")


def test_full_protocol_table_matches_claims():
    text = section("Full protocol run")
    checked = claims("full_claims.txt")
    accuracy = values(checked["FakeDetector best bi-class accuracy on articles"][1])
    f1 = values(checked["FakeDetector best bi-class f1 on articles"][1])
    _, multi_detail = checked["multi-class article accuracy < bi-class for every method"]
    multi = dict(re.findall(r"(\w+): bi=[0-9.]+ multi=([0-9.]+)", multi_detail))
    assert set(accuracy) == set(f1) == set(multi) == METHODS
    for method in METHODS:
        row = f"| {method} | {accuracy[method]} | {f1[method]} | {multi[method]} |"
        assert row in text, row
    passed = sum(verdict == "PASS" for verdict, _ in checked.values())
    assert f"passes {passed} of {len(checked)} verdicts" in text
