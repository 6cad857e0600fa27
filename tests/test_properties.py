"""Property tests of the CLI contract over extreme inputs.

``simulate`` and ``mc-study`` must answer every theta and lambda in
[1e-320, 1e308] with exit 0 or 2: no data error, no traceback, no warning.
``fit`` and ``verify`` must answer every dataset file with exit 0, 1 or 3,
with no traceback and no warning; an error about one cell must name that
cell's row and column, and a one-column file must exit 1. Any mix of flags, valid or not, on any of the
four commands must end in exit 0, 1, 2 or 3, again with no traceback and no
warning. The dataset writer must spell every value as ``format_float`` does,
whichever of its two paths the value takes, and the chunked reader must
agree with the per-cell parser; the stats folded from a dataset stream must
equal those of the matrix read from it. A parameter file whose numbers JSON or
float64 cannot hold must exit 2. The oracle must certify the closed form on
data at every float64 scale.
"""

import contextlib
import io
import math
import os
import struct
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, reject, settings, strategies as st

import loadshare.io
import loadshare.model
import loadshare.writer
from loadshare import (LoadShareError, ModelSpec, SpacingsMatrix, closed_form_mle, crosscheck,
                       sufficient_stats)
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
    """(file text, model and mode flags, text the exit-1 error must hold or None)."""
    k = draw(st.integers(1, 4))
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
    error = None if bad is None else f"row {bad[0]}, column {bad[1]}"
    if k == 1:  # whatever else is wrong, the file exits 1 (the message depends on the header)
        error = "error: "
    flags = ["--model", "kim-kvam"]
    if k > 2 and draw(st.booleans()):
        flags = ["--model", "ssk", "--s", str(draw(st.integers(2, k - 1)))]
    return text, flags + ["--lifetimes"] * lifetimes, error


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
    text, flags, error = case
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
    if error is not None:
        assert code == 1 and error in err, err


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
# A quoted record whose newline crosses the first chunk's end, then plain rows for the kernel.
@example(case=('t1,t2\n"12\n",3\n1,2\n1,2\n1,2\n', False), chunk_chars=4)
@example(case=('t1,t2\n"1\n2",3\n1,2\n1,2\n1,2\n', False), chunk_chars=4)
def test_chunked_reader_matches_per_cell_parser(case, chunk_chars):
    # The per-cell parser over the whole file, rows numbered by file line, is
    # the reference; the chunked reader must give the same array bits or the
    # same error, wherever the chunk boundaries fall.
    with mock.patch.object(loadshare.io, "_fast_block", lambda *args: None):
        expected = _read_outcome(*case)
    with mock.patch.object(loadshare.io, "_CHUNK_CHARS", chunk_chars):
        got = _read_outcome(*case)
    assert got == expected


# Odd cells for the stats differential: a square past float64, ties for lifetimes, cells that
# are bad, and one that only the per-cell parser reads.
_ODD_CELLS = st.sampled_from(["1e200", "1e-200", "1", "1", "x", "0", '"2.5"'])


@st.composite
def stats_files(draw):
    """(file text, assume_lifetimes, spec) for the stats differential: plain cells whose
    squares float64 holds, and now and then an odd one."""
    k = draw(st.integers(2, 5))
    header = draw(st.sampled_from(["t", "x", "none"]))
    cells = st.one_of(*[st.floats(1e-3, 1e3).map(repr)] * 3,
                      st.floats(1e-150, 1e150).map("%.17g".__mod__))
    rows = [[draw(cells) for _ in range(k)] for _ in range(draw(st.integers(0, 30)))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, k - 1))] = draw(_ODD_CELLS)
    lines = [] if header == "none" else [",".join(f"{header}{j}" for j in range(1, k + 1))]
    spec = ModelSpec.kim_kvam(k)
    if k > 2 and draw(st.booleans()):
        spec = ModelSpec.ssk(k, draw(st.integers(2, k - 1)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines + [",".join(row) for row in rows]) + newline, header == "none", spec


def _stats_outcome(read):
    try:
        stats = read()
    except Exception as exc:
        return type(exc), str(exc)
    return stats.spec, stats.n, [v.hex() for v in stats.totals], stats.log_term.hex()


@settings(max_examples=100, deadline=None)
@given(case=stats_files(),
       chunk_chars=st.one_of(st.integers(1, 40), st.integers(100, 400),
                             st.just(loadshare.io._CHUNK_CHARS)))
def test_streamed_stats_equal_matrix_stats(case, chunk_chars):
    # The stats of the whole matrix are the reference; the stats folded from the stream, a
    # block at a time wherever the chunk boundaries fall, must have the same bits or raise the
    # same error. Chunks of 100-400 characters give blocks of several rows after the first.
    text, lifetimes, spec = case

    def stream():
        return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="")

    expected = _stats_outcome(
        lambda: sufficient_stats(spec, loadshare.io.read_dataset(stream(), lifetimes)))
    with mock.patch.object(loadshare.io, "_CHUNK_CHARS", chunk_chars):
        got = _stats_outcome(lambda: loadshare.io.read_stats(stream(), lambda k: spec, lifetimes))
    assert got == expected


_DOUBLES = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def _digit_cells(draw):
    """1-21 digits, with a point somewhere or none, and an exponent or none."""
    digits = draw(st.text("0123456789", min_size=1, max_size=21))
    point = draw(st.integers(0, len(digits)))
    mantissa = draw(st.sampled_from([digits, digits[:point] + "." + digits[point:]]))
    exponent = draw(st.one_of(st.just(""), st.tuples(
        st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.text("0123456789", min_size=1, max_size=4),
    ).map("".join)))
    return mantissa + exponent


# Cells in the parse kernel's grammar, with the ASCII padding it allows.
_KERNEL_CELLS = st.tuples(
    st.sampled_from(["", " ", "\t", "  "]),
    st.one_of(
        st.tuples(st.sampled_from(["%.17g", "%.16g", "%.15g", "%.20g", "%.18e", "%.6f"]), _DOUBLES)
        .map(lambda t: t[0] % t[1]),
        _DOUBLES.map(repr),
        _digit_cells(),
    ),
    st.sampled_from(["", " ", "\t"]),
).map("".join)


@settings(max_examples=150, deadline=None)
@given(cells=st.lists(_KERNEL_CELLS, min_size=1, max_size=30), newline=st.sampled_from(["\n", "\r\n"]))
@example(cells=["100001234567890123.456789"], newline="\n")  # a first digit the window misses
@example(cells=["1.00001234567890123456789e17", " 2"], newline="\r\n")
@example(cells=["100000000000000000.000000"], newline="\n")
def test_parse_kernel_matches_float(cells, newline):
    # Every value the kernel returns is float(cell), bit for bit: the kernel keeps a value only
    # where its rounding is certified and hands the rest to float() one cell at a time.
    block = loadshare.io._fast_block(newline.join(cells) + newline, 1)
    assert block is not None, "the kernel declined cells of its grammar"
    assert [v.hex() for v in block.ravel().tolist()] == [float(cell).hex() for cell in cells]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _ulps(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@st.composite
def _ties(draw):
    """x with 10**E <= x < 10**(E+1) whose x * 10**(16-E) ends in exactly .5."""
    e = draw(st.integers(-4, 13))
    j = 17 - e  # x = odd / 2**j
    odd = 2 * draw(st.integers(math.ceil(10.0**e * 2**j / 2), int(10.0 ** (e + 1) * 2**j / 2) - 1)) + 1
    return odd / 2**j


# Values for the writer differential. "%.17g" prints [1e-4, 1e17) in fixed
# notation, where the block kernel certifies most values; the rest, and every
# value it does not certify, take format_float one at a time.
_POSITIVE_VALUES = st.one_of(
    st.integers(_bits(1e-4), _bits(1e17)).map(_from_bits),  # dense in the fixed range
    st.integers(_bits(1e-6), _bits(1e19)).map(_from_bits),  # and just outside it
    st.tuples(st.integers(-6, 18), st.integers(-2, 2)).map(  # powers of ten +-2 ulp
        lambda t: _ulps(float(f"1e{t[0]}"), t[1])),
    _ties(),
    st.sampled_from([131073 / 131072, 2.0**53, 0.5, 0.125, 1e16 + 2.0, 1e17 - 16.0]),
    st.integers(2**53 - 64, 2**53 + 64).map(float),
    st.integers(10**16, 10**17).map(float),
    st.tuples(st.integers(1, 10**6), st.integers(0, 9)).map(lambda t: float(f"{t[0]}e-{t[1]}")),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e300]),
    st.floats(min_value=5e-324, allow_infinity=False),
)
_ANY_VALUES = st.one_of(
    _POSITIVE_VALUES,
    st.sampled_from([-0.0, 0.0, -1.5, -1e-5, -1e300, math.nan, math.inf, -math.inf]),
    st.floats(),
)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 5),
    data=st.data(),
    block_rows=st.integers(1, 5),
    positive=st.booleans(),
)
def test_writer_matches_format_float(k, data, block_rows, positive):
    values = st.lists(_POSITIVE_VALUES if positive else _ANY_VALUES, min_size=k, max_size=k)
    rows = data.draw(st.lists(values, min_size=1, max_size=8))
    expected = "".join(
        [",".join(f"t{j}" for j in range(1, k + 1)) + "\n"]
        + [",".join(loadshare.model.format_float(v) for v in row) + "\n" for row in rows]
    )
    sources = [np.array(rows)] + ([SpacingsMatrix(rows)] if positive else [])
    with mock.patch.object(loadshare.writer, "_WRITE_BLOCK_VALUES", block_rows * k):  # slices of block_rows
        for source in sources:
            buf = io.StringIO()
            loadshare.io.write_dataset(source, buf)
            assert buf.getvalue() == expected


# Flag values: mostly valid, and some of every kind of wrong. Names in braces
# are files the test creates (see cli_files).
_FLAG_VALUES = {
    "--model": ["kim-kvam", "ssk", "weibull"],
    "--s": ["2", "1", "3", "0", "-1", "x"],
    "--k": ["3", "2", "4", "1", "0", "-2", "x"],
    "--theta": ["1", "1e-3", "0", "-1", "nan", "inf", "1e308", "x"],
    "--lambda": ["1,2", "0.5,1,2", "1", "", "0,1", "nan,1", "a", "1,,2"],
    "--params": ["{params}", "{ssk_params}", "{bom_params}", "{bad_json}", "{not_utf8}",
                 "{missing}", "{dir}"],
    "--n": ["3", "2", "1", "0", "-3", "x"],
    "--reps": ["2", "1", "0", "-1", "x"],
    "--seed": ["7", "0", "-1", str(2**64), "x"],
    "--out": ["-", "{out}", "{dir}", "{missing}/out.csv"],
    "--data": ["{spacings}", "{lifetimes}", "{ties}", "{not_utf8}", "{missing}", "{dir}"],
    "--format": ["json", "text", "xml"],
    "--instances": ["1", "2", "0", "-2", "x"],
}
_SWITCHES = ["--lifetimes", "--random", "--help", "--bogus"]
_MODELS = [
    [["--model", "kim-kvam"]],
    [["--model", "ssk"], ["--s", "2"]],
]
_PARAMETERS = [
    [["--model", "kim-kvam"], ["--k", "3"], ["--theta", "1"], ["--lambda", "1,2"]],
    [["--model", "ssk"], ["--s", "2"], ["--k", "4"], ["--theta", "0.5"], ["--lambda", "0.5,1,2"]],
    [["--params", "{params}"]],
]
_DATA = [[["--data", "{spacings}"]], [["--data", "{lifetimes}"], ["--lifetimes"]]]


@st.composite
def cli_argvs(draw):
    """A valid argv for one command, then up to three mutations: a flag dropped, a value
    replaced by any value of its flag, a flag of any command added, or the last value cut."""
    command = draw(st.sampled_from(["simulate", "fit", "verify", "mc-study"]))
    if command in ("simulate", "mc-study"):
        pairs = draw(st.sampled_from(_PARAMETERS)) + [["--n", "3"]]
        optional = [["--seed", "7"]]
        if command == "simulate":
            optional.append(["--out", draw(st.sampled_from(_FLAG_VALUES["--out"]))])
        else:
            pairs.append(["--reps", "2"])
            optional.append(["--format", "json"])
    else:
        pairs = draw(st.sampled_from(_MODELS))
        if command == "verify" and draw(st.booleans()):
            pairs = pairs + [["--random"], ["--instances", "1"]]
        else:
            pairs = pairs + draw(st.sampled_from(_DATA))
        optional = [["--format", "json"] if command == "fit" else ["--seed", "3"]]
    pairs += [pair for pair in optional if draw(st.booleans())]
    pairs = [list(pair) for pair in pairs]  # the mutations below edit them
    cut = False
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(["drop", "value", "add", "cut"]))
        if action == "drop" and pairs:
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
        elif action == "value" and pairs:
            pair = pairs[draw(st.integers(0, len(pairs) - 1))]
            pair[1:] = [draw(st.sampled_from(_FLAG_VALUES.get(pair[0], ["1"])))]
        elif action == "add":
            flag = draw(st.sampled_from(sorted(_FLAG_VALUES) + _SWITCHES))
            pairs.append([flag] + ([draw(st.sampled_from(_FLAG_VALUES[flag]))]
                                   if flag in _FLAG_VALUES else []))
        cut = cut or action == "cut"
    pairs = draw(st.permutations(pairs))
    if cut and pairs:
        pairs[-1] = pairs[-1][:1]
    return [command] + [arg for pair in pairs for arg in pair]


_CLI_FILES = {
    "spacings": "t1,t2,t3\n0.5,1.25,2\n1.5,0.25,3\n2,1,0.75\n",
    "lifetimes": "x1,x2,x3\n3,1,2\n0.5,4,2.5\n",
    "ties": "x1,x2,x3\n3,1,3\n",
    "params": '{"theta": 1, "lambda": [1, 2], "model": "kim-kvam", "k": 3}',
    "ssk_params": '{"theta": 1, "lambda": [1, 2, 0.5], "model": "ssk", "k": 4, "s": 2}',
    "bom_params": '\ufeff{"theta": 1, "lambda": [1, 2], "model": "kim-kvam", "k": 3}',
    "bad_json": '{"theta": 1, "lambda": [1, 2], "model": "ssk", "k": 3',
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {"dir": str(root), "missing": str(root / "missing"), "out": str(root / "out.csv")}
    for name, text in _CLI_FILES.items():
        (root / name).write_text(text, encoding="utf-8")
        paths[name] = str(root / name)
    (root / "not_utf8").write_bytes(b"t1,t2\n1,2\n\xff,3\n")
    paths["not_utf8"] = str(root / "not_utf8")
    return paths


@settings(max_examples=120, deadline=None)
@given(argv=cli_argvs())
@example(argv=["simulate", "--params", "{not_utf8}", "--n", "3"])
def test_flag_combinations_exit_0_to_3(cli_files, argv):
    code, err, caught = run_main([arg.format(**cli_files) for arg in argv])
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err and "Warning" not in err
    assert not caught, [str(w.message) for w in caught]


# JSON number literals that no parameter file may hold: past float64, past
# Python's 4,300-digit limit for int literals, zeros, and booleans.
bad_numbers = st.one_of(
    st.integers(2**1024, 10**4000).map(str),
    st.integers(2**1024, 10**4000).map(lambda v: str(-v)),
    st.integers(4301, 6000).map(lambda digits: "9" * digits),
    st.sampled_from(["1e400", "-1e400", "1e-400", "-0", "0", "-0.0", "true", "false"]),
)


@settings(max_examples=60, deadline=None)
@given(number=bad_numbers, slot=st.sampled_from(["k", "theta", "lambda"]))
@example(number="1" + "0" * 400, slot="theta")
@example(number="1" + "0" * 4400, slot="theta")
def test_params_file_numbers_exit_2(number, slot):
    fields = {"k": "3", "theta": "1.5", "lambda": "[1, 2]"}
    fields[slot] = f"[1, {number}]" if slot == "lambda" else number
    pairs = ", ".join(f'"{key}": {value}' for key, value in fields.items())
    text = '{"model": "kim-kvam", ' + pairs + "}"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "params.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, err, caught = run_main(["simulate", "--params", path, "--n", "2"])
    assert code == 2, err
    assert "Traceback" not in err and "Warning" not in err
    assert not caught, [str(w.message) for w in caught]


def _scaled(spec, n, e, seed=0):
    return spec, np.random.default_rng(seed).exponential(size=(n, spec.k)) * 2.0**e


@st.composite
def scaled_datasets(draw):
    """Exp(1) spacings times 2**e, e in [-1000, 1000], under either model."""
    k = draw(st.integers(2, 5))
    spec = ModelSpec.kim_kvam(k)
    if k > 2 and draw(st.booleans()):
        spec = ModelSpec.ssk(k, draw(st.integers(2, k - 1)))
    n, e = draw(st.integers(1, 29)), draw(st.integers(-1000, 1000))
    return _scaled(spec, n, e, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(case=scaled_datasets())
# Both hit the iteration cap if the fallback climbs the raw gradient.
@example(case=_scaled(ModelSpec.ssk(4, 2), 9, -472))
@example(case=_scaled(ModelSpec.ssk(4, 3), 9, -224))
def test_oracle_certifies_at_every_scale(case):
    spec, spacings = case
    try:
        data = SpacingsMatrix(spacings)
        closed_form_mle(spec, data)
    except LoadShareError:  # a stage total or an estimate outside float64
        reject()
    result = crosscheck(spec, data)
    assert result.ok, (result.max_param_rel_discrepancy, result.loglik_gap)
