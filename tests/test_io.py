import io
import json

import numpy as np
import pytest

from loadshare import (
    DataFileError,
    ModelKind,
    NonPositiveLifetime,
    SpacingsMatrix,
)
from loadshare.io import (
    _WRITE_BLOCK_ROWS,
    format_float,
    json_dumps,
    read_dataset,
    read_params_file,
    write_dataset,
)


def roundtrip(matrix: SpacingsMatrix, **kwargs) -> SpacingsMatrix:
    buf = io.StringIO()
    write_dataset(matrix, buf)
    buf.seek(0)
    return read_dataset(buf, **kwargs)


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


class TestDatasetRoundTrip:
    def test_write_then_read_is_exact(self):
        m = SpacingsMatrix([[1 / 3, 2 / 7], [0.125, 9.999999999999999e-5]])
        back = roundtrip(m)
        assert np.array_equal(back.data, m.data)

    def test_header_written(self):
        buf = io.StringIO()
        write_dataset(SpacingsMatrix([[1.0, 2.0, 3.0]]), buf)
        assert buf.getvalue().splitlines()[0] == "t1,t2,t3"

    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize(
        "rows",
        [1, _WRITE_BLOCK_ROWS - 1, _WRITE_BLOCK_ROWS, _WRITE_BLOCK_ROWS + 1, 2 * _WRITE_BLOCK_ROWS + 7],
    )
    def test_blocked_writer_matches_per_value_formatting(self, rows, k):
        rng = np.random.default_rng(rows * 10 + k)
        values = 10.0 ** rng.uniform(-320.0, 308.0, size=(rows, k))
        extremes = [5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
                    1.7976931348623157e308, 9.999999999999999e307, 1 / 3]
        values.flat[: len(extremes)] = extremes[: values.size]
        matrix = SpacingsMatrix(values)
        expected = "".join(
            [",".join(f"t{j + 1}" for j in range(k)) + "\n"]
            + [",".join(format_float(v) for v in row) + "\n" for row in matrix.data]
        )
        for source in (matrix, matrix.data):
            buf = io.StringIO()
            write_dataset(source, buf)
            assert buf.getvalue() == expected


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
