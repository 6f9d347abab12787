"""The estimate input reader against a csv.reader + float() oracle.

`cli._load_data_csv` reads its input once.  After the header, it converts
each chunk of whole lines with `np.loadtxt` until a chunk does not convert
(quotes, underscores, non-ASCII digits, blank lines, bad cells, ragged
rows); that chunk and the rest of the input go to csv.reader and numpy's
str conversion, counting rows and lines on from the rows already
converted.  These tests pin that it reads every file exactly as parsing
each cell of `csv.reader`'s rows with `float()` would, bit for bit, and
names the same first bad cell when one does not parse, wherever the
chunks are cut.  A large seekable file is also cut into shares, one per
usable CPU, after its head (comments and header) is read: every cut falls
past the head's bytes, the first share skips the head's lines, and each
share after the first is converted in a forked child.  From the first
share that does not send a whole table, the rows it converted are kept
and the rest is read by csv.reader in the estimate process.  The tests at
the end pin that a read in shares gives what a read in one process gives,
bit for bit or error line for error line, and converts no line twice.
"""

import csv
import io
import os
import pickle
import signal
import time
import tracemalloc
import warnings
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
# the reader's own chunk size, before a test patches it
CHUNK_BYTES = cli._CHUNK_BYTES
BAD_CELLS = [
    "", "oops", "1..2", "1__0", "_1", "1_", "0x10", "1e", "nan(1)", "1 2", "١٫٥", "--1",
]


def text_file(text: str) -> io.TextIOWrapper:
    """text as an open text file, in UTF-8, the way _line_chunks reads a file."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


def write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


class Split(Exception):
    """Raised by reader_path in place of splitting a file with csv.reader."""


def reader_path(path: Path) -> str:
    """Which of the reader's paths converts the file's body: "chunks" when
    np.loadtxt converts every chunk of lines, "csv" when csv.reader splits
    a chunk and the rest."""

    def split_rows(*args):
        raise Split

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_split_rows", split_rows)
        mp.setattr(cli, "Sample", dict)
        try:
            cli._load_data_csv(path)
        except Split:
            return "csv"
    return "chunks"


def loadtxt_takes(path: Path) -> bool:
    """Whether the reader converts the file with np.loadtxt."""
    return reader_path(path) != "csv"


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
    cell (csv.reader path); otherwise no cell is quoted.
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
    # chunks of a few bytes cut the file at every kind of place, inside a character too
    chunk = data.draw(st.just(CHUNK_BYTES) | st.integers(1, 40), label="chunk")
    monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk)
    # numpy's reader takes the file exactly when it is well formed and no
    # cell is quoted or holds an underscore or a non-ASCII digit
    plain = defect is None and not quoted and "_" not in text
    plain = plain and all(ch.isascii() or ch.isspace() for ch in text)
    assert loadtxt_takes(path) is plain
    if plain and chunk == CHUNK_BYTES:
        assert reader_path(path) == "chunks"
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


@pytest.mark.parametrize(
    "text",
    [
        "x,a\n\n",
        "# c\nx,a\n\n\n\n",
        "x,a\n1,2\n\n3,4\n",
        "x,a\r1,2\r3,4\r",
        "x,a\r1,2\r\r3,4",
        "x,a\r\n1,2\r\n3,4\r\n",
        "x,a\r\n1,2\r\n\r\n3,4\r\n",
        "x,a\n1,2\x0c3,4\n",
        "x,a\n1,2\x0c\n3,4\n",
        "x,a\n1,2\n3,4#5\n",
    ],
    ids=[
        "one_blank_line", "all_blank", "blank_line", "cr", "cr_blank_line", "crlf",
        "crlf_blank_line", "form_feed", "form_feed_blank_line", "hash",
    ],
)
def test_lines_loadtxt_could_read_otherwise_read_like_oracle(tmp_path, monkeypatch, text):
    # np.loadtxt skips blank lines and, by default, text after a "#"
    header, expected = oracle(text)
    path = write(tmp_path, text)
    assert loadtxt_takes(path) is not isinstance(expected, str)
    monkeypatch.setattr(cli, "Sample", dict)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on a body without data
        if isinstance(expected, str):
            with pytest.raises(ValueError) as exc:
                cli._load_data_csv(path)
            assert str(exc.value) == f"{path}: {expected}"
            return
        got = cli._load_data_csv(path)
    assert got["x"].tolist() == expected["x"].tolist() == [1.0, 3.0]
    assert got["a"].tolist() == expected["a"].tolist() == [2.0, 4.0]


def test_plain_file_reads_as_float_per_cell(tmp_path, monkeypatch):
    # random doubles of every exponent and values of everyday size, each
    # spelt as repr, %.25e or %.3g
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2**64, size=(5000, 4), dtype=np.uint64).view(np.float64)
    values[::2] = rng.standard_normal((2500, 4)) * 10.0 ** rng.integers(-8, 9, (2500, 4))
    spell = [repr, "{:.25e}".format, "{:.3g}".format]
    cells = [[spell[(i + j) % 3](float(v)) for j, v in enumerate(row)] for i, row in enumerate(values)]
    path = write(tmp_path, "x,a,b,w\n" + "".join(",".join(row) + "\n" for row in cells))

    def refuse(text, where):
        raise AssertionError(f"cell scan ran on a well-formed file at {where}")

    monkeypatch.setattr(cli, "_parse_float", refuse)
    monkeypatch.setattr(cli, "Sample", dict)
    assert loadtxt_takes(path)
    got = cli._load_data_csv(path)
    for j, key in enumerate(["x", "a", "b", "w_known"]):
        expected = np.array([float(row[j]) for row in cells])
        assert got[key].view(np.uint64).tolist() == expected.view(np.uint64).tolist()


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


@settings(max_examples=200, deadline=None)
@given(
    text=st.lists(
        st.sampled_from(["a", ",", "\n", "\r", "\r\n", "\x0c", "\x1c", "\x85", "\u2028"])
    ).map("".join),
    chunk=st.integers(1, 12),
)
def test_chunks_hold_the_lines_of_the_whole_text(text, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CHUNK_BYTES", chunk)
        chunks = list(cli._line_chunks(text_file(text)))
    assert [line for lines in chunks for line in lines] == text.splitlines()
    assert all(chunks)


def test_a_pipe_is_read_in_chunks_as_a_file_is(monkeypatch):
    # a pipe cannot seek; it is not read whole for that
    text = "x,a\n" + "".join(f"{i},{i / 8}\n" for i in range(12))
    read_fd, write_fd = os.pipe()
    with open(write_fd, "wb") as pipe:
        pipe.write(text.encode())  # less than a pipe holds, so nothing waits for the reader
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 24)
    with open(read_fd) as fh:
        assert not fh.seekable()
        chunks = list(cli._line_chunks(fh))
    assert len(text) == 93 and len(chunks) == 4  # one per read of 24 bytes, as from a file
    assert [line for lines in chunks for line in lines] == text.splitlines()


# Each tail follows 12 plain rows, so at 24 bytes a chunk it lies
# in a later chunk than the header: (tail, path, x column read)
LATER_CHUNK_TAILS = {
    "blank_line": ("\n", "csv", None),
    "form_feed": ("5,6\x0c7,8\n", "chunks", [5.0, 7.0]),
    "line_separator": ("5,6\u20287,8\n", "chunks", [5.0, 7.0]),
    "lone_cr": ("5,6\r7,8\n", "chunks", [5.0, 7.0]),
    "quoted_cell": ('"5",6\n', "csv", [5.0]),
    "bad_cell": ("5,oops\n", "csv", None),
    "ragged_row": ("5,6,7\n", "csv", None),
}


@pytest.mark.parametrize("name", list(LATER_CHUNK_TAILS))
def test_a_later_chunk_reads_or_is_refused_like_oracle(tmp_path, monkeypatch, name):
    tail, path_taken, x_read = LATER_CHUNK_TAILS[name]
    rows = "".join(f"{i},{i / 8}\n" for i in range(12))
    head = "# c\nx,a\n" + rows
    assert len(head) > 4 * 24
    text = head + tail + "9,10\n"
    header, expected = oracle(text)
    path = write(tmp_path, text)
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 24)
    assert reader_path(path) == path_taken
    monkeypatch.setattr(cli, "Sample", dict)
    if x_read is None:
        assert isinstance(expected, str)
        with pytest.raises(ValueError) as exc:
            cli._load_data_csv(path)
        assert str(exc.value) == f"{path}: {expected}"
        assert "row 13 (line 15)" in expected
        return
    got = cli._load_data_csv(path)
    assert got["x"].tolist() == expected["x"].tolist() == [*range(12), *x_read, 9.0]
    assert got["a"].view(np.uint64).tolist() == expected["a"].view(np.uint64).tolist()


def test_crlf_file_reads_in_chunks_wherever_they_are_cut(tmp_path, monkeypatch):
    # among the cuts, one after each "\r" of a "\r\n"
    text = "x,a\r\n" + "".join(f"{i},{i / 8}\r\n" for i in range(12))
    header, expected = oracle(text)
    path = write(tmp_path, text)
    monkeypatch.setattr(cli, "Sample", dict)
    for chunk in range(1, len(text) + 1):
        monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk)
        assert reader_path(path) == "chunks"
        got = cli._load_data_csv(path)
        assert got["x"].tolist() == expected["x"].tolist()
        assert got["a"].tolist() == expected["a"].tolist()


def test_undecodable_byte_is_named_by_its_offset_in_the_file(tmp_path, monkeypatch):
    # past the first 8 KiB the file object decodes, where a chunked read
    # would count the offset from
    path = tmp_path / "data.csv"
    path.write_bytes(b"x,a\n" + b"1.5,2.5\n" * 2000 + b"3,\xff4\n")
    with pytest.raises(UnicodeDecodeError) as whole:
        with open(path, newline="") as fh:
            fh.read()
    assert "position 16006" in str(whole.value)
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 24)
    with pytest.raises(UnicodeDecodeError) as exc:
        cli._load_data_csv(path)
    assert str(exc.value) == str(whole.value)


# At 24 bytes a chunk, the three comments fill a chunk each, and the
# first chunk ends inside the quoted header cell "w\n", after its line
# break.  (comments and header, rows, columns read or message)
COMMENTS_PAST_A_CHUNK = "".join(f"# comment line {i} of the file\n" for i in range(3))
HEADER_CASES = {
    "comments_plain": (
        COMMENTS_PAST_A_CHUNK + "x,a\n", "1,2\n3,4\n",
        {"x": [1.0, 3.0], "a": [2.0, 4.0], "w_known": None},
    ),
    "comments_bad_cell": (
        COMMENTS_PAST_A_CHUNK + "x,a\n", "1,2\n3,oops\n",
        "row 2 (line 6), column 'a': cannot parse 'oops' as a number",
    ),
    "quoted_header_cut": (
        '# fifteen chars\nx,a,"w\n"\n', "1,2,3\n4,5,6\n",
        {"x": [1.0, 4.0], "a": [2.0, 5.0], "w_known": [3.0, 6.0]},
    ),
    "quoted_header_cut_ragged_row": (
        '# fifteen chars\nx,a,"w\n"\n', "1,2,3\n4,5\n", "row 2 (line 5) has 2 fields, expected 3",
    ),
    "quoted_header_cut_bad_cell": (
        '# fifteen chars\nx,a,"w\n"\n', "1,2,3\n4,5,oops\n",
        "row 2 (line 5), column 'w': cannot parse 'oops' as a number",
    ),
}


@pytest.mark.parametrize("name", list(HEADER_CASES))
def test_header_past_the_first_chunk_or_cut_in_its_quotes(tmp_path, monkeypatch, name):
    head, rows, expected = HEADER_CASES[name]
    text = head + rows
    path = write(tmp_path, text)
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 24)
    first = next(cli._line_chunks(text_file(text)))
    if name.startswith("comments"):
        assert first == ["# comment line 0 of the file"]
    else:
        assert first == ["# fifteen chars", 'x,a,"w']
    monkeypatch.setattr(cli, "Sample", dict)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            cli._load_data_csv(path)
        assert str(exc.value) == f"{path}: {expected}"
        return
    got = cli._load_data_csv(path)
    assert {key: None if got[key] is None else got[key].tolist() for key in expected} == expected


# (line end, a last row with quoted cells)
MEMORY_CASES = {
    "lf": ("\n", False),
    "crlf": ("\r\n", False),
    "cr": ("\r", False),
    "quoted_last_row": ("\n", True),
}


@pytest.mark.parametrize(
    "name, cpus",
    [(name, cpus) for cpus in (2, 1) for name in MEMORY_CASES],
    ids=[name + suffix for suffix in ("", "-one_cpu") for name in MEMORY_CASES],
)
def test_plain_file_is_read_in_at_most_two_and_a_half_tables(tmp_path, monkeypatch, name, cpus):
    # tracemalloc sees numpy's buffers: the converted chunks and the table
    # they are joined into are two tables, and the text and line strings of
    # the chunk being converted stay small beside them; a last row with a
    # quoted cell leaves only its chunk to csv.reader.  On two CPUs the
    # 3.9 MB file is read in two shares, on one in one.
    newline, quoted_last_row = MEMORY_CASES[name]
    set_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(11)
    values = rng.standard_normal((50_000, 4))
    rows = [f"{x!r},{a!r},{b!r},{w!r}" for x, a, b, w in values.tolist()]
    if quoted_last_row:
        rows[-1] = '"' + rows[-1].replace(",", '","') + '"'
    path = write(tmp_path, newline.join(["x,a,b,w", *rows, ""]))
    del rows
    assert reader_path(path) == ("csv" if quoted_last_row else "chunks")
    monkeypatch.setattr(cli, "Sample", dict)
    tracemalloc.start()
    try:
        got = cli._load_data_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got["w_known"].tolist() == values[:, 3].tolist()
    assert peak <= 2.5 * values.nbytes, f"peak {peak / values.nbytes:.2f} tables"



# --- a seekable file read in shares, one per usable CPU (cli._share_starts) ---


def set_cpus(monkeypatch, count: int) -> None:
    """Make core.usable_cpus see count processors, through the affinity as under taskset."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def outcome(path: Path):
    """The bits of each column _load_data_csv reads, or the type and text of what it raises."""
    try:
        got = cli._load_data_csv(path)
    except ValueError as exc:  # UnicodeDecodeError included
        return type(exc).__name__, str(exc)
    return {key: None if v is None else v.view(np.uint64).tolist() for key, v in got.items()}


def read_both_ways(monkeypatch, path: Path, cpus: int):
    """(outcome on cpus processors, outcome in one share, the later shares' starts, forks made).

    The smallest share is patched to one byte, so that a short file is cut;
    the starts are those the read on cpus processors cut at.
    """
    forks = []
    cuts = []
    share_starts = cli._share_starts

    def recording_share_starts(fh):
        cuts.append(share_starts(fh))
        return cuts[-1]

    monkeypatch.setattr(cli, "_share_starts", recording_share_starts)
    if hasattr(os, "fork"):
        real_fork = os.fork

        def counting_fork():
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(cli, "Sample", dict)
    set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(cli, "_MIN_SHARE_BYTES", 1)
    shared = outcome(path)
    [starts] = cuts
    fork_count = len(forks)
    monkeypatch.setattr(cli, "_MIN_SHARE_BYTES", 2**62)
    whole = outcome(path)
    assert len(forks) == fork_count  # one share: no child
    _assert_no_child_left()
    return shared, whole, starts, fork_count


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def plain_rows(count: int, seed: int = 3) -> list[str]:
    """count rows of x,a,b,w: doubles of every exponent, spelt as repr, %.17g or %.3e."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**64, size=(count, 4), dtype=np.uint64).view(np.float64)
    values[::2] = rng.standard_normal((count - count // 2, 4))
    spell = [repr, "{:.17g}".format, "{:.3e}".format]
    return [
        ",".join(spell[(i + j) % 3](float(v)) for j, v in enumerate(row))
        for i, row in enumerate(values)
    ]


@pytest.mark.parametrize("chunk", [CHUNK_BYTES, 64])
@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_plain_file_reads_alike_in_shares(tmp_path, monkeypatch, cpus, chunk):
    # the head is read a chunk at a time and every cut falls past it, so
    # at 256 KiB a chunk the file holds more than four such chunks
    rows = plain_rows(300 if chunk == 64 else 20_000)
    path = write(tmp_path, "# c\nx,a,b,w\n" + "".join(row + "\n" for row in rows))
    monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk)
    shared, whole, starts, forks = read_both_ways(monkeypatch, path, cpus)
    assert len(starts) == forks == cpus - 1
    assert reader_path(path) == "chunks"  # every share converted where it was read
    assert isinstance(whole, dict) and shared == whole


# rows joined by each line end; "\u3000" pads every cell, as float() and
# np.loadtxt allow, so that a three-byte character sits on either side of
# every "\n" and may hold a share's equal part
LINE_ENDS = {
    "crlf": ["\r\n"],
    "lone_cr": ["\r"],
    "mixed": ["\n", "\r\n", "\r", "\u2028", "\x85", "\r\n", "\n"],
    "multibyte_cells": ["\n"],
}


@pytest.mark.parametrize("name", list(LINE_ENDS))
def test_line_ends_and_multibyte_cells_read_alike_in_shares(tmp_path, monkeypatch, name):
    ends = LINE_ENDS[name]
    rows = plain_rows(202)
    if name == "multibyte_cells":
        rows = ["\u3000" + row.replace(",", "\u3000,\u3000") + "\u3000" for row in rows]
    text = "x,a,b,w" + ends[0] + "".join(row + ends[i % len(ends)] for i, row in enumerate(rows))
    path = write(tmp_path, text)
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 100)
    shared, whole, starts, forks = read_both_ways(monkeypatch, path, 4)
    assert isinstance(whole, dict) and shared == whole
    if name == "lone_cr":
        assert starts == [] and forks == 0  # no "\n" to cut after
        return
    assert len(starts) == forks == 3
    data = path.read_bytes()
    assert all(data[k - 1 : k] == b"\n" for k in starts)
    if name == "multibyte_cells":
        # a share's equal part starts inside a character's bytes (at 202
        # rows); its cut moves on past the character, to the next line
        targets = [k * len(data) // 4 for k in (1, 2, 3)]
        assert any(0x80 <= data[t] < 0xC0 for t in targets)
        assert all(data[k : k + 3] == "\u3000".encode() for k in starts)


# Each defect replaces one row of 300 plain ones, in the second of three
# shares or the last; rows, lines and the byte offset are named as one
# process names them.  (defect row, an outcome that is an error)
LATER_SHARE_DEFECTS = {
    "quoted_cell_across_lines": ('"1.5\n",2,3,4', False),
    "blank_line": ("", True),
    "ragged_row": ("1,2,3", True),
    "bad_cell": ("1,2,oops,4", True),
    "undecodable_byte": ("1,2,\udcff3,4", True),
}


@pytest.mark.parametrize("where", [0.5, 0.9], ids=["middle_share", "last_share"])
@pytest.mark.parametrize("name", list(LATER_SHARE_DEFECTS))
def test_a_later_share_that_refuses_or_fails_reads_alike(tmp_path, monkeypatch, name, where):
    row, fails = LATER_SHARE_DEFECTS[name]
    rows = plain_rows(300)
    rows[int(where * 300)] = row
    data = ("x,a,b,w\n" + "".join(r + "\n" for r in rows)).encode(errors="surrogateescape")
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 256)
    shared, whole, starts, forks = read_both_ways(monkeypatch, path, 3)
    assert len(starts) == forks == 2
    at = len(("x,a,b,w\n" + "".join(r + "\n" for r in rows[: int(where * 300)])).encode())
    assert starts[where > 0.5] <= at < ([*starts, len(data)])[1 + (where > 0.5)]
    assert isinstance(whole, tuple) is fails
    assert shared == whole
    if name == "undecodable_byte":
        assert whole[1].endswith(f"position {data.index(bytes([0xFF]))}: invalid start byte")
    elif fails:
        assert f"row {int(where * 300) + 1} (line {int(where * 300) + 2})" in whole[1]


@pytest.mark.parametrize(
    "where", [0.1, 0.5, 0.9], ids=["first_share", "middle_share", "last_share"]
)
def test_a_refused_share_is_read_on_from_its_refused_chunk(tmp_path, monkeypatch, where):
    # the estimate process converts each plain line of the first share at
    # most once, and csv.reader takes the input from the refused chunk on,
    # wherever the share that holds it starts
    rows = plain_rows(600)
    shortest = min(map(len, rows))
    quoted = int(where * 600)
    rows[quoted] = '"1.5",2,3,4'
    path = write(tmp_path, "x,a,b,w\n" + "".join(row + "\n" for row in rows))
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 256)
    parent = os.getpid()
    converted = []  # rows of each table _plain_table converts in this process
    taken_on = []  # rows converted before csv.reader takes the input on
    plain_table, split_rows = cli._plain_table, cli._split_rows

    def counting_plain_table(lines, width):
        table = plain_table(lines, width)
        if os.getpid() == parent and table is not None:
            converted.append(len(table))
        return table

    def counting_split_rows(path, header, lines, start, done):
        taken_on.append(done)
        return split_rows(path, header, lines, start, done)

    monkeypatch.setattr(cli, "_plain_table", counting_plain_table)
    monkeypatch.setattr(cli, "_split_rows", counting_split_rows)
    shared, whole, starts, forks = read_both_ways(monkeypatch, path, 3)
    assert len(starts) == forks == 2
    assert isinstance(whole, dict) and shared == whole
    # the read in one process came second; read in shares again alone
    converted.clear()
    taken_on.clear()
    monkeypatch.setattr(cli, "_MIN_SHARE_BYTES", 1)
    assert outcome(path) == whole
    first_share_rows = path.read_bytes()[: starts[0]].count(b"\n") - 1
    [done] = taken_on
    assert quoted - 256 // shortest <= done <= quoted  # from the refused chunk on
    assert sum(converted) == min(done, first_share_rows)


def test_a_later_share_with_an_undecodable_byte_sends_a_bare_refusal(tmp_path, monkeypatch):
    # the UnicodeDecodeError holds as many bytes as precede the byte; the
    # refusal holds only the table of the chunks before the byte's, and the
    # share is read on from there here, where the byte is named
    path = tmp_path / "data.csv"
    path.write_bytes(b"x,a\n" + b"1.5,2.5\n" * 2000 + b"3,\xff4\n")
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 4096)
    with open(path) as fh, pytest.raises(cli._Refused) as exc:
        cli._share_table(fh, 2, 4 + 8 * 1000, None, 0)
    sent = pickle.dumps(exc.value)
    [table] = pickle.loads(sent).args
    assert table.tolist() == [[1.5, 2.5]] * 512  # the first 4096 bytes' rows
    assert b"1.5,2.5" not in sent and len(sent) < table.nbytes + 200


def test_a_cut_inside_a_quoted_cell_from_the_share_before_reads_alike(tmp_path, monkeypatch):
    # the one line break in the middle of the file is inside a quoted cell
    # that opens 400 bytes before it, so the second share starts in the cell
    rows = ["1.5,2.5,0.5,1"] * 60
    quoted = '"' + " " * 400 + '\n1.25",2,3,4'
    path = write(tmp_path, "x,a,b,w\n" + "".join(r + "\n" for r in [*rows, quoted, *rows]))
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 64)  # the head's chunk ends before the cut
    shared, whole, starts, forks = read_both_ways(monkeypatch, path, 2)
    data = path.read_bytes()
    assert data.index(b'"') < starts[0] < data.rindex(b'"') and forks == 1
    assert isinstance(whole, dict) and shared == whole
    assert whole["x"][60] == np.float64(1.25).view(np.uint64)


# (head, rows): a header with a quote may hold a line break in a cell, so
# the head's read takes every line of the file, and no cut falls past it
HEADS_PAST_THE_FIRST_SHARE = {
    "quoted_header": ('x,a,"b",w\n', plain_rows(300)),
    "quoted_header_cell_across_lines": ('x,a,b,"\nw"\n', plain_rows(300)),
}


@pytest.mark.parametrize("name", list(HEADS_PAST_THE_FIRST_SHARE))
def test_a_head_that_takes_lines_of_later_shares_is_read_as_one_share(
    tmp_path, monkeypatch, name
):
    head, rows = HEADS_PAST_THE_FIRST_SHARE[name]
    path = write(tmp_path, head + "".join(row + "\n" for row in rows))
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 4096)
    shared, whole, starts, forks = read_both_ways(monkeypatch, path, 3)
    assert starts == [] and forks == 0
    assert isinstance(whole, dict) and shared == whole
    assert len(whole["x"]) == 300


def test_comments_past_an_equal_share_are_read_before_the_cuts(tmp_path, monkeypatch):
    # 34,000 bytes of comments, more than a third of the file: the head is
    # read first and the first cut falls past it, so the first share holds
    # every comment and each later share is still converted in a child
    head = "# a comment line\n" * 2000 + "x,a,b,w\n"
    path = write(tmp_path, head + "".join(row + "\n" for row in plain_rows(300)))
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 4096)
    shared, whole, starts, forks = read_both_ways(monkeypatch, path, 3)
    assert len(starts) == forks == 2
    assert len(head) < starts[0] and path.stat().st_size < 3 * len(head)
    assert isinstance(whole, dict) and shared == whole
    assert len(whole["x"]) == 300


def test_a_pipe_is_never_cut(tmp_path, monkeypatch):
    text = "x,a\n" + "".join(f"{i},{i / 8}\n" for i in range(300))
    read_fd, write_fd = os.pipe()
    with open(write_fd, "wb") as pipe:
        pipe.write(text.encode())  # less than a pipe holds, so nothing waits for the reader
    set_cpus(monkeypatch, 4)
    monkeypatch.setattr(cli, "_MIN_SHARE_BYTES", 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a pipe was read in shares"))
    # whatever size the platform gives a pipe (macOS: the bytes it holds)
    size = os.fstat(read_fd).st_size
    monkeypatch.setattr(os, "fstat", lambda fd: pytest.fail(f"a pipe's size ({size}) was read"))
    with open(read_fd) as fh:
        assert cli._share_starts(fh) == []
        header, parts, _, row_lines = cli._read_table(Path("pipe"), fh)
    assert header == ["x", "a"] and row_lines == []
    assert np.concatenate(parts)[:, 1].tolist() == [i / 8 for i in range(300)]


def test_without_fork_a_file_is_one_share(tmp_path, monkeypatch):
    path = write(tmp_path, "x,a,b,w\n" + "".join(row + "\n" for row in plain_rows(300)))
    monkeypatch.delattr(os, "fork")
    shared, whole, starts, forks = read_both_ways(monkeypatch, path, 4)
    assert (starts, forks) == ([], 0)
    assert isinstance(whole, dict) and shared == whole


@pytest.mark.parametrize("death", ["exit", "signal"])
def test_a_child_that_dies_without_sending_leaves_its_share_to_this_process(
    tmp_path, monkeypatch, death
):
    path = write(tmp_path, "x,a,b,w\n" + "".join(row + "\n" for row in plain_rows(300)))
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 256)  # the head's chunk ends before the cuts
    parent = os.getpid()
    share_table = cli._share_table

    def dying_share_table(fh, width, start, stop, skip):
        if os.getpid() != parent and stop is None:  # the child of the last share
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return share_table(fh, width, start, stop, skip)

    monkeypatch.setattr(cli, "_share_table", dying_share_table)
    shared, whole, starts, forks = read_both_ways(monkeypatch, path, 3)
    assert len(starts) == forks == 2
    assert isinstance(whole, dict) and shared == whole


def test_a_refusal_in_the_first_share_kills_the_children(tmp_path, monkeypatch):
    # the first share refuses its quoted row at once, while each child
    # sleeps: the children are killed, not waited for
    rows = plain_rows(300)
    rows[2] = '"1",2,3,4'
    path = write(tmp_path, "x,a,b,w\n" + "".join(row + "\n" for row in rows))
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 256)  # the head's chunk ends before the cuts
    parent = os.getpid()
    share_table = cli._share_table

    def sleeping_share_table(fh, width, start, stop, skip):
        if os.getpid() != parent:
            time.sleep(60)
        return share_table(fh, width, start, stop, skip)

    monkeypatch.setattr(cli, "_share_table", sleeping_share_table)
    start = time.monotonic()
    shared, whole, starts, forks = read_both_ways(monkeypatch, path, 3)
    assert time.monotonic() - start < 30
    assert len(starts) == forks == 2
    assert isinstance(whole, dict) and shared == whole
