"""The estimate input reader against a csv.reader + float() oracle.

`cli._load_data_csv` splits plain files itself and converts whole columns
with numpy; these tests pin that it reads every file exactly as parsing each
cell of `csv.reader`'s rows with `float()` would, bit for bit, and names the
same first bad cell when one does not parse.
"""

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from onestep import cli

SPECIAL_SPELLINGS = [
    "nan", "NaN", "-nan", "+NAN", "inf", "-inf", "+inf", "Infinity", "-Infinity", "iNfInItY",
]
# whitespace float() strips that splitlines() does not treat as a line break
PADDING = ["", " ", "  ", "\t", " ", "　", "\xa0"]
# zero digits of scripts whose decimal digits float() accepts
DIGIT_ZEROS = ["0", "０", "٠", "०"]
COMMENTS = ["# onestep/data/v1", "#", '# a,"b",c', "#x,a"]
BAD_CELLS = [
    "", "oops", "1..2", "1__0", "_1", "1_", "0x10", "1e", "nan(1)", "1 2", "١٫٥", "--1",
]


def write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def oracle(text: str):
    """(header, columns as float64 arrays) the way the reader must see a
    file, with the expected message in place of the columns when the file
    must be refused.  The generated files hold one record per line."""
    lines = text.splitlines()
    skip = 0
    while lines[skip].startswith("#"):
        skip += 1
    rows = list(csv.reader(lines[skip:]))
    header, body = rows[0], rows[1:]
    width = len(header)
    for k, row in enumerate(body, start=1):
        if len(row) != width:
            return header, f"row {k} (line {skip + 1 + k}) has {len(row)} fields, expected {width}"
    for k, row in enumerate(body, start=1):
        for col, cell in zip(header, row):
            try:
                float(cell)
            except ValueError:
                where = f"row {k} (line {skip + 1 + k}), column {col!r}"
                return header, f"{where}: cannot parse {cell!r} as a number"
    return header, {col: np.array([float(row[j]) for row in body]) for j, col in enumerate(header)}


@st.composite
def number_texts(draw):
    """A cell float() accepts, in one of the spellings a file may use."""
    kind = draw(st.sampled_from(["repr", "repr", "subnormal", "zero", "special", "int"]))
    if kind == "repr":
        text = repr(draw(st.floats(allow_nan=False)))
    elif kind == "subnormal":
        tiny = 2.2250738585072014e-308  # smallest normal double
        text = repr(draw(st.floats(min_value=-tiny, max_value=tiny)))
    elif kind == "zero":
        text = draw(st.sampled_from(["0.0", "-0.0", "+0", "-0", "0e-5", ".0"]))
    elif kind == "special":
        text = draw(st.sampled_from(SPECIAL_SPELLINGS))
    else:
        text = str(draw(st.integers(-(10**30), 10**30)))
    if kind in ("repr", "int"):
        # an underscore may sit between any two digits; bit i of the mask
        # puts one after character i
        mask = draw(st.integers(0, 2 ** len(text) - 1))
        text = text[0] + "".join(
            ("_" if mask >> i & 1 and prev.isdigit() and ch.isdigit() else "") + ch
            for i, (prev, ch) in enumerate(zip(text, text[1:]))
        )
    if kind != "special":
        zero = draw(st.sampled_from(DIGIT_ZEROS))
        text = "".join(chr(ord(zero) + int(ch)) if ch.isdigit() else ch for ch in text)
    return draw(st.sampled_from(PADDING)) + text + draw(st.sampled_from(PADDING))


@st.composite
def data_files(draw, quoted: bool, defect: str | None):
    """File text for an estimate input.  quoted forces at least one quoted
    cell (csv.reader path); otherwise no cell is quoted (split path).
    defect "bad" puts unparsable cells in; "ragged" gives one row too few or
    too many cells, or replaces it by a blank line, and may add bad cells."""
    header = ["x", "a", *draw(st.lists(st.sampled_from(["b", "w"]), unique=True))]
    header = draw(st.permutations(header))
    n_rows = draw(st.integers(1, 6))
    cells = [[draw(number_texts()) for _ in header] for _ in range(n_rows)]
    if defect == "bad" or (defect == "ragged" and draw(st.booleans())):
        for _ in range(draw(st.integers(1, 3))):
            k = draw(st.integers(0, n_rows - 1))
            j = draw(st.integers(0, len(header) - 1))
            cells[k][j] = draw(st.sampled_from(BAD_CELLS))
    quote = [[quoted and draw(st.booleans()) for _ in header] for _ in range(n_rows)]
    if quoted:
        quote[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, len(header) - 1))] = True
    if defect == "ragged":
        k = draw(st.integers(0, n_rows - 1))
        shape = draw(st.sampled_from(["short", "long", "blank"]))
        if shape == "short":
            cells[k], quote[k] = cells[k][:-1], quote[k][:-1]
        elif shape == "long":
            cells[k], quote[k] = [*cells[k], "1.0"], [*quote[k], False]
        else:
            cells[k], quote[k] = [], []
    comments = draw(st.lists(st.sampled_from(COMMENTS), max_size=3))
    header_line = ",".join(f'"{c}"' if quoted and draw(st.booleans()) else c for c in header)
    rows = [
        ",".join(f'"{cell}"' if q else cell for cell, q in zip(row, qrow))
        for row, qrow in zip(cells, quote)
    ]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    # a blank last row is a line only when a line break ends it
    trailing = draw(st.booleans()) or not rows[-1]
    return newline.join([*comments, header_line, *rows]) + (newline if trailing else "")


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
@pytest.mark.parametrize("defect", [None, "bad", "ragged"])
@pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv_reader"])
def test_reads_like_oracle(tmp_path, monkeypatch, quoted, defect, data):
    text = data.draw(data_files(quoted, defect))
    header, expected = oracle(text)
    path = write(tmp_path, text)
    if defect != "ragged":
        # the file took the path it was generated for: split, or csv.reader
        assert isinstance(cli._read_table(path)[3], range) is not quoted
    # Sample rejects nan and inf; take the columns as they are read, so that
    # every spelling is compared bit for bit
    monkeypatch.setattr(cli, "Sample", dict)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            cli._load_data_csv(path)
        assert str(exc.value) == f"{path}: {expected}"
        return
    got = cli._load_data_csv(path)
    for col, key in (("x", "x"), ("a", "a"), ("b", "b"), ("w", "w_known")):
        if col not in header:
            assert got[key] is None
            continue
        assert got[key].dtype == np.float64
        assert got[key].view(np.uint64).tolist() == expected[col].view(np.uint64).tolist()


def test_quoted_field_across_lines_keeps_line_numbers(tmp_path):
    # csv.reader joins a quoted field that spans two lines; the next record
    # still names its own file line
    path = write(tmp_path, '# c\nx,a\n"1.5\n",2\n3,oops\n')
    with pytest.raises(ValueError, match=r"row 2 \(line 5\), column 'a': cannot parse 'oops'"):
        cli._load_data_csv(path)


def test_header_only_file_has_no_rows(tmp_path):
    with pytest.raises(ValueError, match="no data rows"):
        cli._load_data_csv(write(tmp_path, "# c\nx,a\n"))
    with pytest.raises(ValueError, match="no header row"):
        cli._load_data_csv(write(tmp_path, "# c\n"))


def test_cell_scan_runs_only_on_failure(tmp_path, monkeypatch):
    def refuse(text, where):
        raise AssertionError(f"cell scan ran on a well-formed file at {where}")

    monkeypatch.setattr(cli, "_parse_float", refuse)
    rows = "".join(f"{i / 7!r},{1 + i / 3!r},{0.5 + i!r}\n" for i in range(5000))
    s = cli._load_data_csv(write(tmp_path, "# plain\nx,a,b\n" + rows))
    assert s.n == 5000 and s.b[-1] == 4999.5
    s = cli._load_data_csv(write(tmp_path, 'x,a\n"1.5",2\n3," 4 "\n'))
    assert s.a.tolist() == [2.0, 4.0]
    contrasts = tmp_path / "contrasts.txt"
    contrasts.write_text("# c\n1.5\n\n-2  # two\n")
    assert cli._load_contrast_file(contrasts, 2).tolist() == [1.5, -2.0]
