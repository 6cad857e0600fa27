"""The golden CLI corpus: every case keeps its exit code, stderr and output bytes.

The cases and the regenerator are described in ``tests/regen_golden.py``.
"""

import json

import pytest

from regen_golden import EXPECTED, load_cases, run_case

FILES, CASES = load_cases()
EXPECTED_RESULTS = json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_every_case_has_an_expected_result():
    assert sorted(EXPECTED_RESULTS) == sorted(case["id"] for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_golden_case(case):
    assert run_case(case, FILES) == EXPECTED_RESULTS[case["id"]]


def test_corpus_covers_every_exit_code_a_request_can_reach():
    # 3 (verification failed) needs a failing oracle, which no fixed input gives;
    # test_cli's test_tolerance_failure_exits_3 covers it.
    assert {result["exit"] for result in EXPECTED_RESULTS.values()} == {0, 1, 2}
