"""The CSV codec every table goes through: its bytes and its refusals."""

import pytest

from o2olab.errors import FormatError
from o2olab.tables import read_table, write_table

COLUMNS = ("name", "step", "value")
KINDS = (str, int, float)


def test_float_fields_have_pinned_bytes_and_round_trip(tmp_path):
    values = [-0.0, 5e-324, 0.1 + 0.2, 1e16, 2.0, 1 / 3]
    path = tmp_path / "t.csv"
    write_table(path, COLUMNS, KINDS, [("run", i, v) for i, v in enumerate(values)])
    assert path.read_bytes() == (
        b"name,step,value\n"
        b"run,0,-0\n"
        b"run,1,4.9406564584124654e-324\n"
        b"run,2,0.30000000000000004\n"
        b"run,3,10000000000000000\n"
        b"run,4,2\n"
        b"run,5,0.33333333333333331\n"
    )
    rows = read_table(path, COLUMNS, KINDS)
    assert [(name, step) for name, step, _ in rows] == [("run", i) for i in range(6)]
    assert [v.hex() for _, _, v in rows] == [v.hex() for v in values]


@pytest.mark.parametrize(
    "text, columns, kinds, cause",
    [
        ("x,y\n", COLUMNS, KINDS, "unexpected header 'x,y' (line 1)"),
        ("name,step,value\na,1\n", COLUMNS, KINDS, "expected 3 fields, found 2 (line 2)"),
        ("name,step,value\na,1.5,2\n", COLUMNS, KINDS, "'1.5' (line 2)"),
        ("name,step,value\na,1,x\n", COLUMNS, KINDS, "float: 'x' (line 2)"),
        # Blank lines are skipped but counted.
        ("name,step,value\n\na,1,-inf\n", COLUMNS, KINDS, "value '-inf' must be finite (line 3)"),
        ("1,2\n3,nan\n", None, (float, float), "field 2 'nan' must be finite (line 2)"),
    ],
)
def test_reader_refuses_naming_path_and_line(tmp_path, text, columns, kinds, cause):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        read_table(path, columns, kinds)
    assert str(err.value).startswith(f"{path}: ") and cause in str(err.value)
