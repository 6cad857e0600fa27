"""The golden CLI corpus: every case keeps its exit code, stderr and output bytes.

The cases and the regenerator are described in ``tests/regen_golden.py``.
"""

import contextlib
import json
import os
import subprocess
import sys

import pytest

from regen_golden import EXPECTED, case_dir, case_result, load_cases, run_case

FILES, CASES = load_cases()
EXPECTED_RESULTS = json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_every_case_has_an_expected_result():
    assert sorted(EXPECTED_RESULTS) == sorted(case["id"] for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_golden_case(case):
    assert run_case(case, FILES) == EXPECTED_RESULTS[case["id"]]


# Cases that also run as ``python -m loadshare`` children, where the process ends with
# os._exit: long output through a pipe, a file, every command, a data fault and a write fault.
CHILD_CASES = ["simulate-kim-kvam-blocks", "simulate-ssk-blocks", "verify-random-ssk",
               "mc-study-ssk-json", "error-data-ragged", "error-write-fault-stdout"]


@pytest.mark.parametrize("case_id", CHILD_CASES)
def test_golden_case_in_a_child_process(case_id):
    case = next(case for case in CASES if case["id"] == case_id)
    full = case.get("stdout") == "full"
    if full and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with case_dir(FILES) as (work, inputs):
        with open("/dev/full", "wb") if full else contextlib.nullcontext(subprocess.PIPE) as out:
            done = subprocess.run([sys.executable, "-m", "loadshare", *case["argv"]], cwd=work,
                                  env=dict(os.environ, COLUMNS="80"), stdout=out,
                                  stderr=subprocess.PIPE, timeout=120)
        stdout = "" if full else done.stdout.decode("utf-8")
        result = case_result(done.returncode, done.stderr.decode("utf-8"), stdout, work, inputs)
    assert result == EXPECTED_RESULTS[case_id]


def test_corpus_covers_every_exit_code_a_request_can_reach():
    # 3 (verification failed) needs a failing oracle, which no fixed input gives; test_cli's
    # test_tolerance_failure_exits_3 and test_no_convergence_is_reported_and_exits_3 cover it.
    assert {result["exit"] for result in EXPECTED_RESULTS.values()} == {0, 1, 2}
