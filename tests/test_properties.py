"""Property tests of the CLI contract over extreme parameter magnitudes.

``simulate`` and ``mc-study`` must answer every theta and lambda in
[1e-320, 1e308] with exit 0 or 2: no data error, no traceback, no warning.
"""

import contextlib
import io
import math
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from loadshare.cli import main

magnitudes = st.floats(math.log10(1e-320), 308.0).map(lambda e: 10.0**e)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue(), caught


@st.composite
def model_flags(draw):
    k = draw(st.integers(2, 4))
    flags = ["--model", "kim-kvam"]
    if k > 2 and draw(st.booleans()):
        flags = ["--model", "ssk", "--s", str(draw(st.integers(2, k - 1)))]
    lambdas = ",".join(repr(draw(magnitudes)) for _ in range(k - 1))
    return [*flags, "--k", str(k), "--theta", repr(draw(magnitudes)), "--lambda", lambdas]


@settings(max_examples=50, deadline=None)
@given(
    flags=model_flags(),
    command=st.sampled_from(["simulate", "mc-study"]),
    n=st.integers(1, 4),
    reps=st.integers(1, 5),
    seed=st.integers(0, 2**32),
)
def test_extreme_parameters_exit_0_or_2(flags, command, n, reps, seed):
    argv = [command, *flags, "--n", str(n), "--seed", str(seed)]
    if command == "mc-study":
        argv += ["--reps", str(reps)]
    code, err, caught = run_main(argv)
    assert code in (0, 2), err
    assert "Traceback" not in err and "Warning" not in err
    assert not caught, [str(w.message) for w in caught]
