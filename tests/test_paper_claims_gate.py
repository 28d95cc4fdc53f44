"""Paper-claim gate: a reduced Figure 4 cut that model-moving changes must pass.

The cut is the benchmark corpus (scale 0.05, seed 7; ``benchmarks/
conftest.py``) at θ = 0.1, one fold, with FakeDetector and the two cheapest
baselines, lp and svm. It takes about 10 s. The gate pins two things:

- FakeDetector's bi-class article accuracy and F1 on that cut, each within
  ``ATOL`` of the values the float64 engine produced;
- the verdict of every claim :func:`check_paper_claims` makes on the cut.

``ATOL`` was fixed before any change to the model's numerics was measured
against it. It is about twice the seed-to-seed standard deviation of
bi-class article accuracy in ``results/seed_variance.txt`` (0.037), so a
change that perturbs training about as much as a reseed passes, while a
model that falls to the majority-class level (about 0.5 on this cut) fails.
One test article is 1/73 ≈ 0.014 of the accuracy here.
"""

import pytest

from repro.data import GeneratorConfig, PolitiFactGenerator
from repro.experiments import check_paper_claims, default_methods, run_sweep

ATOL = 0.075

#: FakeDetector's bi-class article metrics on the cut (float64 engine).
ACCURACY = 0.6027  # 44 of 73 test articles
F1 = 0.5538

#: ``check_paper_claims`` verdicts on the cut, in the order it emits them.
VERDICTS = [
    ("FakeDetector best bi-class accuracy on articles", True),
    ("FakeDetector best bi-class f1 on articles", False),
    ("FakeDetector best multi-class accuracy on articles", False),
    ("FakeDetector best bi-class accuracy on creators", False),
    ("FakeDetector best bi-class f1 on creators", False),
    ("FakeDetector best multi-class accuracy on creators", False),
    ("FakeDetector best bi-class accuracy on subjects", False),
    ("FakeDetector best bi-class f1 on subjects", False),
    ("FakeDetector best multi-class accuracy on subjects", False),
    ("multi-class article accuracy < bi-class for every method", True),
]


@pytest.fixture(scope="module")
def sweep():
    dataset = PolitiFactGenerator(GeneratorConfig(scale=0.05, seed=7)).generate()
    return run_sweep(
        dataset,
        default_methods(fast=True, only=["FakeDetector", "lp", "svm"]),
        thetas=(0.1,),
        folds=1,
        seed=0,
        raise_on_error=True,
    )


def test_fakedetector_article_metrics_hold(sweep):
    (cell,) = sweep.cells["FakeDetector"]["article"][0.1]
    assert cell.num_test == 73
    assert cell.binary.accuracy == pytest.approx(ACCURACY, abs=ATOL)
    assert cell.binary.f1 == pytest.approx(F1, abs=ATOL)


def test_claim_verdicts_hold(sweep):
    checks = check_paper_claims(sweep)
    assert [(c.claim, c.passed) for c in checks] == VERDICTS
