"""The shared table reader: one numpy conversion per table, read as `float` reads."""

import numpy as np
import pytest

from grancount import ValidationError, tables

# cell forms `float` accepts, each with an odd corner: underscores, padding, a
# non-ASCII digit, the special values, overflow to inf, a subnormal
FLOAT_FORMS = ["1_0", " 2 ", "१", "nan", "-Infinity", "1e400", "1.5e-320"]
# cell forms `float` refuses
NOT_FLOATS = ["", "0x10", "abc"]


@pytest.mark.parametrize("cell", FLOAT_FORMS)
def test_numpy_reads_each_cell_as_float_does(cell):
    # the readers convert a whole table with numpy and run `float` per cell only to
    # name a bad one, so the two must agree on every cell they accept
    as_numpy = np.array([[cell]], dtype=np.float64)
    assert as_numpy.tobytes() == np.float64(float(cell)).tobytes()


@pytest.mark.parametrize("cell", NOT_FLOATS)
def test_numpy_refuses_what_float_refuses(cell):
    with pytest.raises(ValueError):
        float(cell)
    with pytest.raises(ValueError):
        np.array([[cell]], dtype=np.float64)


def table(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize("text, finite, message", [
    ("id,a,b\nr,1.0,x\ns,y,2.0\n", False, "line 2, column 'b': not a number: 'x'"),
    ("id,a,b\nr,1.0,2.0\ns,y,x\n", False, "line 3, column 'a': not a number: 'y'"),
    ("id,a,b\nr,1.0,inf\ns,nan,2.0\n", True, "line 2, column 'b': not a finite number: 'inf'"),
    ("id,a,b\nr,1.0,2.0\ns,nan,x\n", True, "line 3, column 'a': not a finite number: 'nan'"),
    ("id, a ,b\nr,z,2.0\n", False, "line 2, column 'a': not a number: 'z'"),
], ids=["first-row", "first-column", "finite-first-row", "finite-first-column", "padded-name"])
def test_the_first_bad_cell_in_row_then_column_order_is_named(tmp_path, text, finite, message):
    path = table(tmp_path, text)
    with pytest.raises(ValidationError) as info:
        tables.read_table(path, lambda h: True, "", slice(1, None), finite=finite)
    assert str(info.value) == f"{path}: {message}"


def test_numeric_cells_come_back_as_one_matrix(tmp_path):
    path = table(tmp_path, "id,a,b,note\nr,1.5,-0,x\ns,1e400,nan,y\n")
    header, rows, values = tables.read_table(path, lambda h: True, "", slice(1, 3))
    assert header == ["id", "a", "b", "note"] and [i for i, _ in rows] == [2, 3]
    assert values.dtype == np.float64 and values.shape == (2, 2)
    np.testing.assert_array_equal(values, [[1.5, -0.0], [np.inf, np.nan]])
    assert np.signbit(values[0, 1])


@pytest.mark.parametrize("cells, message", [
    (["1.0", "2", "48.9"], "line 4, column 'K': not an integer: '48.9'"),
    (["nan", "2", "3"], "line 2, column 'K': not an integer: 'nan'"),
    (["1", "-inf", "3"], "line 3, column 'K': not an integer: '-inf'"),
    (["1", "2", "1e300"], "line 4, column 'K': not an integer: '1e300'"),
], ids=["fraction", "nan", "infinite", "beyond-int64"])
def test_integer_column_names_its_first_non_integer(tmp_path, cells, message):
    path = table(tmp_path, "id,K\n" + "".join(f"r,{cell}\n" for cell in cells))
    header, rows, values = tables.read_table(path, lambda h: True, "", slice(1, None))
    with pytest.raises(ValidationError) as info:
        tables.integer_column(path, header, rows, 1, values[:, 0])
    assert str(info.value) == f"{path}: {message}"


def test_integer_column_reads_integral_floats(tmp_path):
    path = table(tmp_path, "id,K\nr,48\ns,48.0\nt,-3e2\n")
    header, rows, values = tables.read_table(path, lambda h: True, "", slice(1, None))
    ks = tables.integer_column(path, header, rows, 1, values[:, 0])
    assert ks.dtype == np.int64 and ks.tolist() == [48, 48, -300]
