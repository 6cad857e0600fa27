import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import loadshare.io
import loadshare.writer
from loadshare import (
    DataFileError,
    DimensionMismatch,
    DuplicateLifetime,
    InvalidModel,
    ModelKind,
    ModelSpec,
    NonPositiveLifetime,
    Params,
    RngState,
    SpacingsMatrix,
    sample_dataset,
    sufficient_stats,
)
from loadshare.cli import json_dumps, main
from loadshare.io import read_dataset, read_params_file, read_stats, write_dataset
from loadshare.model import format_float
from loadshare.writer import _WRITE_BLOCK_VALUES, _write_blocks


def roundtrip(matrix: SpacingsMatrix, **kwargs) -> SpacingsMatrix:
    buf = io.StringIO()
    write_dataset(matrix, buf)
    buf.seek(0)
    return read_dataset(buf, **kwargs)


def per_value_csv(data: np.ndarray) -> str:
    """The CSV text write_dataset must produce: format_float of each value."""
    return "".join(
        [",".join(f"t{j + 1}" for j in range(data.shape[1])) + "\n"]
        + [",".join(format_float(v) for v in row) + "\n" for row in data]
    )


class TestFormatting:
    def test_seventeen_digits_round_trip(self):
        for x in (1 / 3, 0.1, 123456.789e-12, 2.0, 9.87654321e17):
            assert float(format_float(x)) == x

    def test_json_dumps_lossless_floats(self):
        payload = {"theta_hat": 1 / 3, "lambda_hat": [2 / 7, 5.0], "n": 3, "model": "ssk"}
        parsed = json.loads(json_dumps(payload))
        assert parsed["theta_hat"] == 1 / 3
        assert parsed["lambda_hat"] == [2 / 7, 5.0]
        assert parsed["n"] == 3 and parsed["model"] == "ssk"

    def test_json_dumps_handles_numpy_scalars(self):
        parsed = json.loads(json_dumps({"a": np.float64(0.25), "b": np.int64(4), "c": None}))
        assert parsed == {"a": 0.25, "b": 4, "c": None}

    def test_json_dumps_spells_bools_as_json(self):
        # bool subclasses int, and numpy's bool subclasses neither: both must read as JSON bools.
        text = json_dumps({"a": True, "b": [False, np.bool_(True), np.bool_(False)], "n": 1})
        assert text == '{"a": true, "b": [false, true, false], "n": 1}'
        assert json.loads(text) == {"a": True, "b": [False, True, False], "n": 1}

    def test_json_dumps_rejects_other_types(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            json_dumps({"a": [object()]})


class TestDatasetRoundTrip:
    def test_write_then_read_is_exact(self):
        m = SpacingsMatrix([[1 / 3, 2 / 7], [0.125, 9.999999999999999e-5]])
        back = roundtrip(m)
        assert np.array_equal(back.data, m.data)

    def test_header_written(self):
        buf = io.StringIO()
        write_dataset(SpacingsMatrix([[1.0, 2.0, 3.0]]), buf)
        assert buf.getvalue().splitlines()[0] == "t1,t2,t3"

    # The writer's slice edges at k = 2; at k = 5, whose slices are 1,638 rows, the same counts
    # end inside the 1st, 3rd, 3rd, 3rd and 6th slice. test_every_slice_edge_of_k pins other k.
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize(
        "rows",
        [1, _WRITE_BLOCK_VALUES // 2 - 1, _WRITE_BLOCK_VALUES // 2, _WRITE_BLOCK_VALUES // 2 + 1,
         _WRITE_BLOCK_VALUES + 7],
    )
    def test_blocked_writer_matches_per_value_formatting(self, rows, k):
        rng = np.random.default_rng(rows * 10 + k)
        values = 10.0 ** rng.uniform(-320.0, 308.0, size=(rows, k))
        extremes = [5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
                    1.7976931348623157e308, 9.999999999999999e307, 1 / 3]
        values.flat[: len(extremes)] = extremes[: values.size]
        matrix = SpacingsMatrix(values)
        expected = per_value_csv(matrix.data)
        for source in (matrix, matrix.data):
            buf = io.StringIO()
            write_dataset(source, buf)
            assert buf.getvalue() == expected

    # At k = 5 these end 819 rows into the 3rd slice and 9 rows into the 6th.
    @pytest.mark.parametrize("rows", [_WRITE_BLOCK_VALUES // 2 - 1, _WRITE_BLOCK_VALUES + 7])
    def test_blocked_writer_matches_per_value_formatting_in_fixed_range(self, rows):
        # Bit patterns dense in [1e-4, 1e17], which "%.17g" prints in fixed
        # notation: the block kernel, not format_float, spells most of them.
        lo, hi = np.array([1e-4, 1e17]).view(np.int64)
        bits = np.random.default_rng(rows).integers(lo, hi, size=(rows, 5), endpoint=True)
        matrix = SpacingsMatrix(bits.view(np.float64))
        expected = per_value_csv(matrix.data)
        for source in (matrix, matrix.data):
            buf = io.StringIO()
            write_dataset(source, buf)
            assert buf.getvalue() == expected

    @pytest.mark.parametrize("k", [3, 20, 200, _WRITE_BLOCK_VALUES + 5])
    def test_every_slice_edge_of_k(self, k):
        # The writer cuts each block it is given into slices of whole rows (one row when a row
        # holds more than _WRITE_BLOCK_VALUES); at each slice edge the bytes are format_float's.
        step = max(1, _WRITE_BLOCK_VALUES // k)
        values = 10.0 ** np.random.default_rng(k).uniform(-20.0, 20.0, size=(2 * step + 3, k))
        expected = per_value_csv(values).splitlines(keepends=True)
        for rows in sorted({1, step - 1, step, step + 1, 2 * step, 2 * step + 3} - {0}):
            buf = io.StringIO()
            write_dataset(values[:rows], buf)
            assert buf.getvalue() == "".join(expected[: rows + 1]), rows

    def test_few_simulated_values_take_the_per_value_path(self, monkeypatch):
        # A count, not a clock: the block kernel must spell nearly all simulated values.
        calls = []

        def counted(value):
            calls.append(value)
            return format_float(value)

        spec, truth = ModelSpec.ssk(5, 2), Params(1.0, (1.5, 0.8, 2.0, 1.2))
        matrix = sample_dataset(spec, truth, 20_000, RngState(11))
        monkeypatch.setattr(loadshare.writer, "format_float", counted)
        buf = io.StringIO()
        write_dataset(matrix, buf)
        assert len(calls) < 0.001 * matrix.data.size, len(calls)
        assert buf.getvalue() == per_value_csv(matrix.data)


class TestWriterScratch:
    """The writer allocates its buffers once per call, for one slice of whole rows: the
    tracemalloc peak, those buffers included, stays at 175 bytes a value of one slice whatever
    k is, and further slices add nothing. Unlike a page-fault count, this does not depend on
    the malloc."""

    def test_peak_is_the_held_buffers(self):
        class Sink:
            def write(self, text):
                return len(text)

        for k in (2, 5, 20, 200):
            rows = max(1, loadshare.writer._WRITE_BLOCK_VALUES // k)
            spec, truth = ModelSpec.kim_kvam(k), Params(1.0, (1.5,) * (k - 1))
            data = sample_dataset(spec, truth, 8 * rows, RngState(3)).data
            peaks = []
            for slices in (1, 8):
                tracemalloc.start()
                try:
                    _write_blocks((data[: slices * rows],), k, Sink())
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[0] <= 175 * max(loadshare.writer._WRITE_BLOCK_VALUES, k), (k, peaks)
            assert peaks[1] - peaks[0] < 64 * 1024, (k, peaks)


class TestDatasetParsing:
    def test_crlf_accepted(self):
        m = read_dataset(io.StringIO("t1,t2\r\n1.0,2.0\r\n"))
        assert np.array_equal(m.data, [[1.0, 2.0]])

    def test_lifetimes_header_converts(self):
        m = read_dataset(io.StringIO("x1,x2,x3\n3,1,2\n"))
        assert np.array_equal(m.data, [[1.0, 1.0, 1.0]])

    def test_ragged_row_rejected(self):
        with pytest.raises(DataFileError, match="row 3"):
            read_dataset(io.StringIO("t1,t2\n1,2\n1,2,3\n"))

    def test_non_numeric_cell_rejected(self):
        with pytest.raises(DataFileError, match="row 2, column 2"):
            read_dataset(io.StringIO("t1,t2\n1,abc\n"))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_rejected(self, token):
        with pytest.raises(DataFileError):
            read_dataset(io.StringIO(f"t1,t2\n1,{token}\n"))

    def test_nonpositive_cell_cited(self):
        with pytest.raises(NonPositiveLifetime) as err:
            read_dataset(io.StringIO("t1,t2\n1,2\n0,1\n"))
        assert err.value.row == 3 and err.value.col == 1
        assert "row 3, column 1" in str(err.value)

    def test_missing_header_rejected(self):
        with pytest.raises(DataFileError, match="header"):
            read_dataset(io.StringIO("1,2\n3,4\n"))

    def test_headerless_lifetimes_override(self):
        m = read_dataset(io.StringIO("3,1,2\n4,2,1\n"), assume_lifetimes=True)
        assert np.array_equal(m.data, [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0]])

    def test_override_contradicting_spacings_header(self):
        with pytest.raises(DataFileError, match="contradicts"):
            read_dataset(io.StringIO("t1,t2\n1,2\n"), assume_lifetimes=True)

    def test_lifetimes_header_with_override_is_fine(self):
        m = read_dataset(io.StringIO("x1,x2\n2,1\n"), assume_lifetimes=True)
        assert np.array_equal(m.data, [[1.0, 1.0]])

    def test_empty_file(self):
        with pytest.raises(DataFileError, match="empty"):
            read_dataset(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(DataFileError, match="no data rows"):
            read_dataset(io.StringIO("t1,t2\n"))

    def test_out_of_order_header_rejected(self):
        with pytest.raises(DataFileError):
            read_dataset(io.StringIO("t2,t1\n1,2\n"))

    def test_mixed_header_rejected(self):
        with pytest.raises(DataFileError, match="header"):
            read_dataset(io.StringIO("t1,x2\n1,2\n"))

    def test_separator_control_is_not_whitespace(self):
        # np.loadtxt strips "\x1c" around a number; float() does not.
        with pytest.raises(DataFileError) as err:
            read_dataset(io.StringIO("t1,t2\n\x1c1,2\n"))
        assert str(err.value) == "row 2, column 1: '\\x1c1' is not a number"


class TestRowNumbersAreFileLines:
    """Every error about a row names the 1-based line of the file it starts on."""

    def test_cell_after_blank_line(self):
        with pytest.raises(NonPositiveLifetime) as err:
            read_dataset(io.StringIO("t1,t2\n\n1,0\n"))
        assert str(err.value) == "row 3, column 2: value must be > 0 (got 0)"
        assert (err.value.row, err.value.col) == (3, 2)

    def test_ragged_row_after_blank_line(self):
        with pytest.raises(DataFileError, match=r"^row 4: expected 2 columns, got 1$"):
            read_dataset(io.StringIO("t1,t2\n1,2\n\n3\n"))

    def test_blank_line_before_header(self):
        with pytest.raises(DataFileError, match=r"^row 3, column 1: 'x' is not a number$"):
            read_dataset(io.StringIO("\nt1,t2\nx,1\n"))

    def test_headerless_row_after_blank_lines(self):
        with pytest.raises(DataFileError, match=r"^row 3: expected 2 columns, got 3$"):
            read_dataset(io.StringIO("\n2,1\n1,2,3\n"), assume_lifetimes=True)

    def test_tie_names_its_line(self):
        with pytest.raises(DuplicateLifetime) as err:
            read_dataset(io.StringIO("x1,x2,x3\n\n3,1,2\n2,5,2\n"))
        assert err.value.row == 4
        assert str(err.value) == (
            "row 4: system 2 contains the lifetime 2.0 twice; tied failures give a zero spacing"
        )

    def test_first_tie_is_reported(self):
        with pytest.raises(DuplicateLifetime, match="^row 3: system 2 contains the lifetime 3.0"):
            read_dataset(io.StringIO("x1,x2\n1,2\n3,3\n2,2\n"))

    def test_cell_errors_come_before_ties(self):
        with pytest.raises(DataFileError, match="row 3, column 1"):
            read_dataset(io.StringIO("x1,x2\n1,1\nnan,2\n"))

    def test_quoted_newline_row_starts_on_its_first_line(self):
        with pytest.raises(DataFileError) as err:
            read_dataset(io.StringIO('t1,t2\n1,2\n"1\n2",3\n'))
        assert str(err.value) == "row 3, column 1: '1\\n2' is not a number"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_error_in_third_chunk(self, monkeypatch, newline):
        # Chunks hold file lines 2-3, 4-5 and 6-7: the bad cell is in the third.
        monkeypatch.setattr(loadshare.io, "_CHUNK_CHARS", len("1,2" + newline))
        lines = ["t1,t2", "1,2", "", "1,2", "1,2", "1,2", "1,-2", "1,2"]
        stream = io.TextIOWrapper(
            io.BytesIO(newline.join(lines).encode()), encoding="utf-8", newline=""
        )
        with pytest.raises(NonPositiveLifetime) as err:
            read_dataset(stream)
        assert (err.value.row, err.value.col) == (7, 2)
        assert str(err.value) == "row 7, column 2: value must be > 0 (got -2)"

    def test_tie_in_third_chunk(self, monkeypatch):
        # Chunks hold file lines 2-3, 4-5 and 6-7: the tie is in the third.
        monkeypatch.setattr(loadshare.io, "_CHUNK_CHARS", 4)
        text = "x1,x2\n1,2\n\n1,2\n1,2\n1,2\n2,2\n1,2\n"
        with pytest.raises(DuplicateLifetime) as err:
            read_dataset(io.StringIO(text))
        assert err.value.row == 7
        assert str(err.value) == (
            "row 7: system 5 contains the lifetime 2.0 twice; tied failures give a zero spacing"
        )


# (header letter, line end, cell format, separator); the "%.17g" cases keep their old ids.
_PLAIN = [
    pytest.param(letter, newline, cell, sep, id="-".join([letter, newline] + [name] * bool(name)))
    for name, cell, sep in [("", "%.17g", ","), ("18e", "%.18e", ","), ("padded", "%.17g", ", ")]
    for letter in "tx" for newline in ["\n", "\r\n"]
]


class TestFastPath:
    @pytest.mark.parametrize("letter, newline, cell, sep", _PLAIN)
    def test_plain_numbers_never_reach_the_per_cell_parser(self, monkeypatch, letter, newline,
                                                           cell, sep):
        def per_cell(*args):
            raise AssertionError("the per-cell parser ran")

        monkeypatch.setattr(loadshare.io, "_parse_rows", per_cell)
        monkeypatch.setattr(loadshare.io, "_CHUNK_CHARS", 1 << 16)  # several chunks
        values = np.random.default_rng(7).exponential(size=(10_000, 4))
        text = newline.join(
            [",".join(f"{letter}{j}" for j in range(1, 5))]
            + [sep.join(cell % v for v in row) for row in values]
        ) + newline
        stream = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="")
        got = read_dataset(stream)
        expected = values if letter == "t" else np.diff(np.sort(values, axis=1), prepend=0.0)
        assert got.data.tobytes() == expected.tobytes()

    def test_kernel_resumes_after_a_chunk_it_turns_down(self, monkeypatch):
        # A quoted first cell sends the first chunk, and only it, to the per-cell parser.
        kernel, per_cell = [], []

        def spy(calls, real):
            return lambda *args: calls.append(real(*args)) or calls[-1]

        monkeypatch.setattr(loadshare.io, "_fast_block", spy(kernel, loadshare.io._fast_block))
        monkeypatch.setattr(loadshare.io, "_parse_rows", spy(per_cell, loadshare.io._parse_rows))
        monkeypatch.setattr(loadshare.io, "_CHUNK_CHARS", 1 << 12)  # several chunks
        values = np.random.default_rng(3).exponential(size=(2_000, 3))
        head, first, rest = per_value_csv(values).split("\n", 2)
        first = '"{}",{}'.format(*first.split(",", 1))
        got = read_dataset(io.StringIO("\n".join([head, first, rest])))
        assert got.data.tobytes() == values.tobytes()
        assert len(kernel) > 2 and kernel[0] is None and all(b is not None for b in kernel[1:])
        [(parsed, rows, used)] = per_cell
        assert rows == list(range(2, 2 + len(parsed))) and used == len(parsed)
        assert len(parsed) + sum(map(len, kernel[1:])) == len(values)


def kernel_values(cells: list[str]) -> np.ndarray:
    """The parse kernel's floats for one cell a line; the chunk must be in its grammar."""
    block = loadshare.io._fast_block("\n".join(cells) + "\n", 1)
    assert block is not None, "the kernel declined the chunk"
    return block.ravel()


# 24 digits and a point that is not the first byte; 1e17 as "%.6f" spells it read as 0.0.
LONG_MANTISSAS = ["100001234567890123.456789", "1.00001234567890123456789e17",
                  "100000000000000000.000000", "10000123456789012345678.9"]


def exact_decimal(x: Fraction) -> str:
    """The terminating decimal expansion of a dyadic fraction, in full."""
    shift = x.denominator.bit_length() - 1  # x = m / 2**shift = m * 5**shift / 10**shift
    digits = str(x.numerator * 5**shift).rjust(shift + 1, "0")
    return digits[: len(digits) - shift] + ("." + digits[len(digits) - shift :] if shift else "")


def hard_cells() -> list[str]:
    """Cells where a conversion that is not exact shows: midpoints between adjacent doubles
    written in full (also with trailing zeros and in exponent form), values one ulp around
    powers of two and of ten, 19-digit mantissas, leading zeros and short forms."""
    cells = ["9007199254740993", "5.", ".5", "1E+05", "1e-05", "0", "0.0", "000123", "0.000123",
             "00000000000000000000001.5", "1234567890123456789", "9999999999999999999",
             "1000000000000000001", "9223372036854775807", "9223372036854775808",
             "0.1234567890123456789", "1.234567890123456789e-100", "18446744073709551615",
             "1e23", "8.988465674311579e307", "1e308", "1e-290", "1e-300", "1e400", "4.9e-324",
             "2.2250738585072014e-308", "1.7976931348623157e308", "12345678901234567890e-20"]
    for e in range(-8, 70):
        for x in (2.0**e, math.nextafter(2.0**e, 0), math.nextafter(2.0**e, math.inf)):
            mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
            full = exact_decimal(mid)
            digits = full.replace(".", "")
            cells += [full, full + ("0" if "." in full else ".0"), full + ("00" if "." in full else ".00"),
                      f"{digits}e-{len(full) - full.index('.') - 1 if '.' in full else 0}"]
            cells += ["%.17g" % x, "%.16g" % x, "%.20g" % x, "%.18e" % x, repr(x)]
    for e in range(-25, 26):
        for x in (10.0**e, math.nextafter(10.0**e, 0), math.nextafter(10.0**e, math.inf)):
            cells += ["%.17g" % x, "%.18e" % x, repr(x)]
    rng = random.Random(1)  # midpoints in the binades where they have at most 19 digits
    for e in range(44, 64):
        for _ in range(100):
            full = exact_decimal((2 * rng.randrange(2**52, 2**53) + 1) * Fraction(2) ** (e - 53))
            cells += [full + "0" * zeros for zeros in range(4)] if "." in full else [full]
    return cells


_FIVES = [5**i for i in range(291)]


def power_of_two_neighbours() -> tuple[list[str], Fraction]:
    """The decimals N * 10**q (1 <= N < 10**19, q in [-290, 288]) within 2**-10 h of a midpoint
    2**e - j * h / 2 (j = 1, 3, 5, 7; h = 2**(e - 53)) below a power of two, in every binade the
    parse kernel's table reaches, and the least distance, in units of h, of one that is not a
    midpoint itself. Integer arithmetic throughout."""
    cells, closest = [], Fraction(1)
    for e in range(-966, 1021):
        for j in (1, 3, 5, 7):
            top = math.floor((e + math.log2(1 - j * 2.0**-54)) * math.log10(2))  # the midpoint's
            for q in range(max(top - 20, -290), min(top + 1, 288) + 1):
                a = e - 54 - q  # midpoint / 10**q = (2**54 - j) * 2**a / 5**q = num / den
                num = ((2**54 - j) << max(a, 0)) * _FIVES[max(-q, 0)]
                den = _FIVES[max(q, 0)] << max(-a, 0)
                for n in (num // den, num // den + 1):
                    # |n * 10**q - midpoint| / h = |n * den - num| / den * 2**(q + 53 - e) * 5**q
                    diff, twos = abs(n * den - num), q + 53 - e + 10
                    near = (diff << max(twos, 0)) * _FIVES[max(q, 0)]
                    far = (den << max(-twos, 0)) * _FIVES[max(-q, 0)]
                    if 1 <= n < 10**19 and near < far:
                        cells.append(f"{n}e{q}")
                        closest = min(closest, Fraction(near, far) / 2**10) if diff else closest
    return cells, closest


def assert_per_cell_fault(tmp_path, capsys, text, k, message):
    """The parse kernel turns down the data lines of ``text`` (k columns), and then
    read_dataset, read_stats and ``fit`` each report ``message``."""
    assert loadshare.io._fast_block(text.split("\n", 1)[1], k) is None
    for read in (read_dataset, lambda stream: read_stats(stream, ModelSpec.kim_kvam)):
        with pytest.raises(DataFileError) as err:
            read(io.StringIO(text, newline=""))
        assert str(err.value) == message
    (tmp_path / "d.csv").write_bytes(text.encode())
    assert main(["fit", "--model", "kim-kvam", "--data", str(tmp_path / "d.csv")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


class TestParseKernel:
    def test_decimals_next_to_a_power_of_two_equal_float(self):
        # Where the kernel's r > 2**E guard would act (see read_dataset): a decimal that is not
        # a midpoint below a power of two stays at least 2**-23 h from it, far outside the
        # kernel's 2**-46 h error, and every decimal near one reads as float() reads it.
        cells, closest = power_of_two_neighbours()
        assert closest > Fraction(2) ** -23
        got = kernel_values(cells)
        wrong = [(cell, v.hex(), float(cell).hex()) for cell, v in zip(cells, got.tolist())
                 if v.hex() != float(cell).hex()]
        assert not wrong, wrong[:10]

    def test_hard_cells_equal_float(self):
        cells = hard_cells()
        got = kernel_values(cells)
        wrong = [(cell, v.hex(), float(cell).hex()) for cell, v in zip(cells, got.tolist())
                 if v.hex() != float(cell).hex()]
        assert not wrong, wrong[:10]

    @pytest.mark.parametrize("cell", LONG_MANTISSAS)
    def test_a_first_digit_before_the_window_is_read(self, cell):
        # A 25-byte mantissa with a point inside it: the 24 bytes the kernel gathers miss the first
        # digit, so the kernel must hand the cell to float(), alone, among short cells, in a file.
        assert kernel_values([cell])[0].hex() == float(cell).hex()
        assert kernel_values(["1", cell, "2.5"])[1].hex() == float(cell).hex()
        got = read_dataset(io.StringIO(f"t1,t2\n{cell},1\n2,3\n")).data[0, 0]
        assert got.hex() == float(cell).hex()

    def test_the_kernel_certifies_ordinary_cells(self, monkeypatch):
        # The kernel, not float(), answers ordinary values, or equality with float() proves little.
        scaled, certified = loadshare.io._scaled, []

        def spy(n, q):
            values, ok = scaled(n, q)
            certified.append(int(np.broadcast_to(ok, n.shape).sum()))
            return values, ok

        monkeypatch.setattr(loadshare.io, "_scaled", spy)
        values = np.random.default_rng(3).exponential(size=2000) * 10.0 ** np.arange(-40, 40, 0.04)
        kernel_values(["%.17g" % v for v in values])
        assert certified == [2000]

    @pytest.mark.parametrize("cell", ["1e", "1e+", "1e-", "1.e", "1E", "1e5+"])
    def test_an_exponent_without_digits_goes_to_the_per_cell_parser(self, tmp_path, capsys, cell):
        # The kernel's guard on the exponent's layout turns the chunk down; float() then names the
        # cell, whichever reader or command meets it.
        text = f"t1,t2,t3\n1,2,3\n4,{cell},6\n7,8.5,9e-1\n"
        assert_per_cell_fault(tmp_path, capsys, text, 3, f"row 3, column 2: {cell!r} is not a number")

    @pytest.mark.parametrize("text, row", [
        ("t1,t2\n1,1\r \n2,2\n", 3),
        ("t1,t2\n1\r ,2\n3,4\n", 2),
        ("t1,t2\n \r1,2\n3,4\n", 2),
    ], ids=["before-a-pad", "after-a-cell", "after-a-pad"])
    def test_a_stray_cr_goes_to_the_per_cell_parser(self, tmp_path, capsys, text, row):
        # A CR that does not start a CRLF ends a line for the csv module; the kernel's guard on
        # it turns the chunk down, or the kernel would read the pads and cells around it as one.
        assert_per_cell_fault(tmp_path, capsys, text, 2, f"row {row}: expected 2 columns, got 1")


class TestParamsFile:
    def test_kim_kvam_file(self):
        text = '{"theta": 1.5, "lambda": [2.0, 0.5], "model": "kim-kvam", "k": 3}'
        spec, params = read_params_file(io.StringIO(text))
        assert spec.kind is ModelKind.KIM_KVAM and spec.k == 3
        assert params.theta == 1.5 and params.lambdas == (2.0, 0.5)

    def test_ssk_file(self):
        text = '{"theta": 1, "lambda": [1, 1, 2], "model": "ssk", "k": 4, "s": 2}'
        spec, params = read_params_file(io.StringIO(text))
        assert spec.kind is ModelKind.SSK and spec.s == 2

    def test_unknown_keys_rejected(self):
        text = '{"theta": 1, "lambda": [1], "model": "kim-kvam", "k": 2, "extra": 1}'
        with pytest.raises(DataFileError, match="unknown keys"):
            read_params_file(io.StringIO(text))

    def test_missing_key_rejected(self):
        with pytest.raises(DataFileError, match="missing"):
            read_params_file(io.StringIO('{"theta": 1, "model": "kim-kvam", "k": 2}'))

    def test_s_required_for_ssk(self):
        text = '{"theta": 1, "lambda": [1, 1], "model": "ssk", "k": 3}'
        with pytest.raises(DataFileError, match="'s'"):
            read_params_file(io.StringIO(text))

    def test_s_rejected_for_kim_kvam(self):
        text = '{"theta": 1, "lambda": [1], "model": "kim-kvam", "k": 2, "s": 2}'
        with pytest.raises(DataFileError):
            read_params_file(io.StringIO(text))

    def test_wrong_lambda_count(self):
        text = '{"theta": 1, "lambda": [1], "model": "kim-kvam", "k": 3}'
        with pytest.raises(DataFileError, match="k-1"):
            read_params_file(io.StringIO(text))

    def test_unknown_model(self):
        text = '{"theta": 1, "lambda": [1], "model": "weibull", "k": 2}'
        with pytest.raises(DataFileError, match="kim-kvam"):
            read_params_file(io.StringIO(text))

    def test_invalid_json(self):
        with pytest.raises(DataFileError, match="JSON"):
            read_params_file(io.StringIO("{not json"))

    def test_non_integer_k(self):
        text = '{"theta": 1, "lambda": [1], "model": "kim-kvam", "k": 2.0}'
        with pytest.raises(DataFileError):
            read_params_file(io.StringIO(text))

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"theta": 1, "lambda": [], "model": "kim-kvam", "k": 1}',
             "k must be at least 2, got 1"),
            ('{"theta": 1, "lambda": [1, 1], "model": "ssk", "k": 3, "s": 5}',
             "s must satisfy 2 <= s <= k-1, got s=5 with k=3"),
            ('{"theta": -1, "lambda": [1], "model": "kim-kvam", "k": 2}',
             "theta must be finite and > 0, got -1.0"),
        ],
        ids=["k-below-two", "s-out-of-range", "negative-theta"],
    )
    def test_model_and_parameter_faults_are_file_errors(self, text, message):
        # ModelSpec and Params judge these; the file reader keeps their text.
        with pytest.raises(DataFileError) as err:
            read_params_file(io.StringIO(text))
        assert str(err.value) == message

    def test_null_s_is_no_s(self):
        text = '{"theta": 1, "lambda": [1], "model": "kim-kvam", "k": 2, "s": null}'
        spec, _ = read_params_file(io.StringIO(text))
        assert spec == ModelSpec.kim_kvam(2)


class TestReadStats:
    DATA = "t1,t2,t3\n1,2,3\n0.5,0.25,4\n"

    @pytest.mark.parametrize("spec", [ModelSpec.kim_kvam(3), ModelSpec.ssk(3, 2)],
                             ids=["kim-kvam", "ssk"])
    def test_equals_the_stats_of_the_matrix(self, spec):
        stats = read_stats(io.StringIO(self.DATA), lambda k: spec)
        assert stats == sufficient_stats(spec, read_dataset(io.StringIO(self.DATA)))

    @pytest.mark.parametrize("assume_lifetimes", [False, True])
    def test_kim_kvam_model_reads_with_either_flag(self, assume_lifetimes):
        # A lifetimes header reads the same whether or not lifetimes are assumed.
        text, spec = "x1,x2,x3\n3,1,2\n4,0.5,1\n", ModelSpec.kim_kvam(3)
        stats = read_stats(io.StringIO(text), lambda k: spec, assume_lifetimes)
        assert stats == sufficient_stats(spec, read_dataset(io.StringIO(text)))

    @pytest.mark.parametrize("spec", [ModelSpec.kim_kvam(2), ModelSpec.kim_kvam(4),
                                      ModelSpec.ssk(4, 2)], ids=["kk-k2", "kk-k4", "ssk-k4"])
    def test_a_model_of_another_k_is_a_dimension_mismatch(self, spec):
        # Not the sums of the model's first k columns: the stage counts must agree.
        with pytest.raises(DimensionMismatch) as err:
            read_stats(io.StringIO(self.DATA), lambda k: spec)
        assert str(err.value) == f"data has 3 columns but the model expects k={spec.k}"

    @pytest.mark.parametrize("header,last,error,message", [
        ("t", "1,x,3", DataFileError, "row 6, column 2: 'x' is not a number"),
        ("x", "2,2,3", DuplicateLifetime,
         "row 6: system 5 contains the lifetime 2.0 twice; tied failures give a zero spacing"),
        ("t", "1,2,3", InvalidModel, "s must satisfy 2 <= s <= k-1, got s=3 with k=3"),
    ], ids=["bad-cell", "tie", "model-fault"])
    def test_a_data_fault_in_a_later_chunk_comes_before_the_model_fault(
            self, monkeypatch, header, last, error, message):
        # spec_for fails on the first chunk's k; the chunks after it are still read.
        monkeypatch.setattr(loadshare.io, "_CHUNK_CHARS", 4)
        text = ",".join(f"{header}{j}" for j in (1, 2, 3)) + "\n" + "1,2,3\n" * 4 + last + "\n"
        with pytest.raises(error) as err:
            read_stats(io.StringIO(text), lambda k: ModelSpec.ssk(k, k))
        assert type(err.value) is error and str(err.value) == message
