"""The acceptance gate: one test per criterion, each printing its pass line.

Criteria 1-4, 6, 7 and 9 are exact and shared with `ptlab selftest`;
criteria 5 and 8 are the pinned-seed Monte Carlo checks; criterion 10 runs
the CLI selftest end to end and asserts exit code 0.
"""

import pytest

from ptlab import cli
from ptlab import selftest as st


@pytest.fixture
def announce(capsys):
    def _announce(result):
        with capsys.disabled():
            print("\n" + result.line(), flush=True)
        assert result.passed, result.detail

    return _announce


def test_criterion_1_agreement_sandwich(announce):
    announce(st.criterion_1())


def test_criterion_2_kappa2_identity(announce):
    announce(st.criterion_2())


def test_criterion_3_segment_sums(announce):
    announce(st.criterion_3())


def test_criterion_4_fast_vs_naive(announce):
    announce(st.criterion_4())


def test_criterion_5_mc_exact_agreement(announce):
    announce(st.criterion_5())


def test_criterion_6_freeness_trend(announce):
    announce(st.criterion_6())


def test_criterion_7_right_left_bounds(announce):
    announce(st.criterion_7())


def test_criterion_8_variance_scaling(announce):
    result = st.criterion_8()
    announce(result)
    # exact Var(Tr) = 177/16, 265/32, 453/64, 835/128 at M = 8, 16, 32, 64
    assert "(exact -2.2512, 0.049 inside -2.3)" in result.detail


def test_criterion_9_limit_formulas(announce):
    announce(st.criterion_9())


def test_criterion_10_cli_selftest(capsys):
    code = cli.main(["selftest"])
    out = capsys.readouterr().out
    for idx in st.DETERMINISTIC_CRITERIA:
        assert f"criterion {idx}: PASS" in out
    assert code == 0
    with capsys.disabled():
        print("\ncriterion 10: PASS -- `ptlab selftest` exits 0 with all "
              "deterministic criteria passing", flush=True)
