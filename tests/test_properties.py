"""Property tests of the CLI contract over extreme inputs.

``simulate`` and ``mc-study`` must answer every theta and lambda in
[1e-320, 1e308] with exit 0 or 2: no data error, no traceback, no warning.
``fit`` and ``verify`` must answer every dataset file with exit 0, 1 or 3,
with no traceback and no warning, and an error about one cell must name
that cell's row and column.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import loadshare.io
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


# (text in the file, the cell the CSV reader yields for it)
_ODD_CELLS = [
    (text, text)
    for text in ("nan", "inf", "-inf", "1e400", "5e-324", "5e307", "1e308", "0", "-1", "x", "")
] + [('"2.5"', "2.5"), ('" 7"', " 7"), ('"1,5"', "1,5")]
_ordinary = st.floats(1e-3, 1e3).map(lambda v: (repr(v), repr(v)))
cells = st.one_of(*[_ordinary] * 5, st.sampled_from(_ODD_CELLS))


def _first_bad_cell(rows, k, first_row):
    """(row, column) of the first cell that is not a number finite and > 0.

    None if a row of the wrong width comes first: that error is about the row.
    """
    for row, values in enumerate(rows, start=first_row):
        if len(values) != k:
            return None
        for col, cell in enumerate(values, start=1):
            try:
                value = float(cell)
            except ValueError:
                return row, col
            if not (math.isfinite(value) and value > 0):
                return row, col
    return None


@st.composite
def dataset_files(draw):
    """(file text, model and mode flags, the cell the error must name or None)."""
    k = draw(st.integers(2, 4))
    rows = [[draw(cells) for _ in range(k)] for _ in range(draw(st.integers(1, 4)))]
    header = draw(st.sampled_from(["t", "x", "none", "bad"]))
    # headerless files without the lifetimes flag fail as bad headers do
    lifetimes = header == "none" or draw(st.booleans())
    names = None
    if header == "t":
        names = [f"t{j}" for j in range(1, k + 1)]
    elif header == "x":  # header names are case-insensitive
        names = [f"X{j}" for j in range(1, k + 1)]
    elif header == "bad":
        names = draw(st.sampled_from([
            [f"t{j}" for j in range(k, 0, -1)],
            ["x1"] + [f"t{j}" for j in range(2, k + 1)],
            [f"y{j}" for j in range(1, k + 1)],
        ]))
    if names is not None:
        rows.insert(0, [(name, name) for name in names])
    if len(rows) > 1 and draw(st.integers(0, 3)) == 0:  # a ragged last row
        rows[-1] = rows[-1][:-1] if draw(st.booleans()) else rows[-1] + rows[-1][:1]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(",".join(raw for raw, _ in row) + newline for row in rows)
    if draw(st.booleans()):
        text = "\ufeff" + text

    parsed = [[cell for _, cell in row] for row in rows]
    if header in ("t", "x"):
        bad = None if header == "t" and lifetimes else _first_bad_cell(parsed[1:], k, 2)
    else:
        bad = _first_bad_cell(parsed, k, 1) if lifetimes else None
    flags = ["--model", "kim-kvam"]
    if k > 2 and draw(st.booleans()):
        flags = ["--model", "ssk", "--s", str(draw(st.integers(2, k - 1)))]
    return text, flags + ["--lifetimes"] * lifetimes, bad


# Spacings whose totals are finite but whose sum S_1 + S_2 is not.
_OVERFLOWING_SUM = ("t1,t2\n5e307,1e308\n", ["--model", "kim-kvam"], None)


@settings(max_examples=60, deadline=None)
@given(
    case=dataset_files(),
    command=st.sampled_from(["fit", "verify"]),
    fmt=st.sampled_from(["text", "json"]),
)
@example(case=_OVERFLOWING_SUM, command="fit", fmt="text")
@example(case=_OVERFLOWING_SUM, command="verify", fmt="text")
def test_dataset_files_exit_0_1_or_3(case, command, fmt):
    text, flags, bad = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        argv = [command, *flags, "--data", path]
        if command == "fit":
            argv += ["--format", fmt]
        code, err, caught = run_main(argv)
    assert code in (0, 1, 3), err
    assert "Traceback" not in err and "Warning" not in err
    assert not caught, [str(w.message) for w in caught]
    if bad is not None:
        assert code == 1 and f"row {bad[0]}, column {bad[1]}" in err, err


# Cells for the reader differential: plain numbers, values that tie, text that
# float() reads but numpy's C reader may not (or the reverse), and bad cells.
_READER_CELLS = st.one_of(
    *[st.floats(1e-3, 1e3).map(repr)] * 3,
    st.floats(1e-300, 1e300).map(lambda v: "%.17g" % v),
    st.sampled_from(["1", "2", "3", "1e5", "+2.", ".5", "5e-324", "1e308"]),
    st.sampled_from([
        " 2 ", "\t4", "4\x0c", "\xa03\xa0", "\u20034", "1_0", "١٢", '"2.5"', '" 7"',
        "\x1c2", "2\x1f",
    ]),
    st.sampled_from([
        "nan", "inf", "-inf", "infinity", "1e400", "-0", "0", "-1", "x", "", '""',
        '"1,5"', '"1\n2"', '"3\r\n"', "\x00", "5\x00", "0x1p3", "1 2",
    ]),
)


@st.composite
def reader_files(draw):
    """(file text, assume_lifetimes) for the reader differential."""
    k = draw(st.integers(1, 4))
    header = draw(st.sampled_from(["t", "x", "none"]))
    lines = [] if header == "none" else [",".join(f"{header}{j}" for j in range(1, k + 1))]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:  # a blank or whitespace-only line
            lines.append(draw(st.sampled_from(["", "", " ", "\t"])))
        else:  # a row, ragged one time in nine
            width = k + (draw(st.sampled_from([-1, 1])) if kind == 1 and k > 1 else 0)
            lines.append(",".join(draw(_READER_CELLS) for _ in range(width)))
    if draw(st.booleans()):
        lines.insert(0, "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return text, header == "none"


def _read_outcome(text, assume_lifetimes):
    stream = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8-sig", newline="")
    try:
        data = loadshare.io.read_dataset(stream, assume_lifetimes=assume_lifetimes).data
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return data.shape, [v.hex() for v in data.ravel().tolist()]


@settings(max_examples=200, deadline=None)
@given(case=reader_files(), chunk_chars=st.integers(1, 40))
def test_chunked_reader_matches_per_cell_parser(case, chunk_chars):
    # The per-cell parser over the whole file, rows numbered by file line, is
    # the reference; the chunked reader must give the same array bits or the
    # same error, wherever the chunk boundaries fall.
    with mock.patch.object(loadshare.io, "_fast_block", lambda *args: None):
        expected = _read_outcome(*case)
    with mock.patch.object(loadshare.io, "_CHUNK_CHARS", chunk_chars):
        got = _read_outcome(*case)
    assert got == expected
