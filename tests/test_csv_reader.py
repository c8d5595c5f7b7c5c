"""
Equivalence of the columnar dataset CSV reader and the line-by-line oracle.

Tolerance strategy
------------------
None: ``cli.read_dataset`` must agree with ``_reference_csv`` exactly.  On
each input both readers either return a ``Dataset`` whose arrays have the
same dtype, shape and bytes, or raise ``ConfigError`` with the same message
(which names the first bad line in file order).  Inputs are small random
datasets written by ``write_dataset`` and then damaged by up to two
mutations, read with chunk and read-block sizes small enough that their
boundaries fall among the damage.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_csv import reference_read_dataset
from mrtpower import cli
from mrtpower.cli import DATASET_HEADER, read_dataset, write_dataset
from mrtpower.design import TrialDesign, elicit_quadratic_effect, make_availability
from mrtpower.estimator import Dataset
from mrtpower.exceptions import ConfigError
from mrtpower.simulate import ErrorProcess, GenerativeModel, generate_dataset

INT_TEXTS = [
    "+{v}", " 0{v}", "{v}\t", "{v}_0", "{v}.0", "0x{v}", "-{v}", "", "a",
    "٣", "99999999999999999999", "-99999999999999999999",
]
BINARY_TEXTS = ["0", "1", "2", "", " 1", "+1", "01", "1.0", "-0"]
PROB_TEXTS = [
    "0", "1", "nan", "inf", "-0.5", " 0.5", "0.5\t", "1e-1", "0x1", "", "0.4",
    "1_0", "5e-324", "0.99999999999999989", "NaN", "0,5",
]
OUTCOME_TEXTS = [
    "1.0", "inf", "-inf", "nan", "", "abc", " 2", "1e308", "1e309", "-0.0",
    "1_000.5", "0x10",
]


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 6))
    t = draw(st.integers(1, 4))
    cells = n * t
    binary = st.lists(st.integers(0, 1), min_size=cells, max_size=cells)
    prob = st.one_of(
        st.sampled_from([0.4, 0.1 + 0.2, 0.5]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    outcome = st.floats(allow_nan=False, allow_infinity=False)
    return Dataset(
        avail=np.reshape(draw(binary), (n, t)),
        action=np.reshape(draw(binary), (n, t)),
        prob=np.reshape(draw(st.lists(prob, min_size=cells, max_size=cells)), (n, t)),
        outcome=np.reshape(draw(st.lists(outcome, min_size=cells, max_size=cells)), (n, t)),
    )


def _body_line(draw, lines):
    return draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else None


def _set_field(draw, lines, column, texts):
    i = _body_line(draw, lines)
    if i is None:
        return
    fields = lines[i].split(",")
    if column < len(fields):
        value = fields[column]
        fields[column] = draw(st.sampled_from(texts)).format(v=value)
        lines[i] = ",".join(fields)


def drop_field(draw, lines):
    i = _body_line(draw, lines)
    if i is not None:
        fields = lines[i].split(",")
        del fields[draw(st.integers(0, len(fields) - 1))]
        lines[i] = ",".join(fields)


def add_field(draw, lines):
    i = _body_line(draw, lines)
    if i is not None:
        fields = lines[i].split(",")
        fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from(["", "0", "1"])))
        lines[i] = ",".join(fields)


def blank_line(draw, lines):
    position = draw(st.integers(min(1, len(lines)), len(lines)))
    lines.insert(position, draw(st.sampled_from(["", " ", ","])))


def int_text(draw, lines):
    _set_field(draw, lines, draw(st.sampled_from([0, 1])), INT_TEXTS)


def binary_text(draw, lines):
    _set_field(draw, lines, draw(st.sampled_from([2, 3])), BINARY_TEXTS)


def prob_text(draw, lines):
    _set_field(draw, lines, 4, PROB_TEXTS)


def outcome_text(draw, lines):
    _set_field(draw, lines, 5, OUTCOME_TEXTS)


def shift_number(draw, lines):
    # a skipped or repeated subject or t
    i = _body_line(draw, lines)
    if i is not None:
        fields = lines[i].split(",")
        column = draw(st.sampled_from([0, 1]))
        if column < len(fields) and fields[column].isdigit():
            fields[column] = str(int(fields[column]) + draw(st.sampled_from([-1, 1, 2])))
            lines[i] = ",".join(fields)


def drop_line(draw, lines):
    i = _body_line(draw, lines)
    if i is not None:
        del lines[i]


def repeat_line(draw, lines):
    i = _body_line(draw, lines)
    if i is not None:
        lines.insert(i, lines[i])


def ragged_block(draw, lines):
    # end a subject block one row early or one row late
    ends = [
        i for i in range(1, len(lines))
        if i + 1 == len(lines) or lines[i + 1].split(",")[0] != lines[i].split(",")[0]
    ]
    if not ends:
        return
    i = draw(st.sampled_from(ends))
    if draw(st.booleans()):
        del lines[i]
        return
    fields = lines[i].split(",")
    if len(fields) > 1 and fields[1].isdigit():
        fields[1] = str(int(fields[1]) + 1)
        lines.insert(i + 1, ",".join(fields))


def truncate(draw, lines):
    del lines[draw(st.integers(0, len(lines))):]


def header(draw, lines):
    if lines:
        lines[0] = draw(st.sampled_from([DATASET_HEADER[1:], DATASET_HEADER + ",", ""]))


MUTATIONS = [
    drop_field, add_field, blank_line, int_text, binary_text, prob_text,
    outcome_text, shift_number, drop_line, repeat_line, ragged_block, truncate,
    header,
]


def read_result(reader, path):
    try:
        data = reader(path)
    except ConfigError as exc:
        return "error", str(exc)
    return "data", [
        (a.dtype.str, a.shape, a.tobytes())
        for a in (data.avail, data.action, data.prob, data.outcome)
    ]


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(deadline=None, max_examples=300)
@given(
    data=datasets(),
    mutations=st.lists(st.sampled_from(MUTATIONS), max_size=2),
    chunk=st.sampled_from([1, 2, 3, 5, cli._READ_CHUNK]),
    block=st.sampled_from([1, 2, 3, 7, cli._READ_BLOCK]),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    trailing=st.booleans(),
    draw=st.data(),
)
def test_columnar_reader_matches_oracle(csv_dir, data, mutations, chunk, block, newline,
                                        trailing, draw):
    # blocks of a few bytes end inside fields, between CR and LF, inside the
    # two bytes of a non-ASCII digit and before a last line with no newline
    path = csv_dir / "d.csv"
    write_dataset(data, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for mutate in mutations:
        mutate(draw.draw, lines)
    path.write_bytes((newline.join(lines) + (newline if trailing else "")).encode("utf-8"))
    with mock.patch.object(cli, "_READ_CHUNK", chunk), \
            mock.patch.object(cli, "_READ_BLOCK", block):
        got = read_result(read_dataset, path)
    assert got == read_result(reference_read_dataset, path)


def test_clean_round_trip_matches_oracle_and_input(csv_dir):
    data = Dataset(
        avail=[[1, 0, 1], [0, 1, 1]],
        action=[[0, 1, 1], [1, 0, 0]],
        prob=[[0.4, 0.1 + 0.2, 0.5], [0.4, 0.1 + 0.2, 0.5]],
        outcome=[[-0.0, np.nan, 5e-324], [np.nan, 1e308, -2.5]],
    )
    path = csv_dir / "clean.csv"
    write_dataset(data, path)
    got = read_result(read_dataset, path)
    assert got == read_result(reference_read_dataset, path)
    assert got == read_result(lambda _: data, path)


@pytest.mark.parametrize("reader", [read_dataset, reference_read_dataset])
def test_only_newlines_end_a_line(csv_dir, reader):
    # a form feed ends line 2's outcome (float strips it); the line numbers
    # of later lines must not shift
    path = csv_dir / "formfeed.csv"
    body = ["0,1,1,0,0.4,1.0\f", "0,2,1,0,0.4,oops"]
    path.write_text("\n".join([DATASET_HEADER] + body) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="^line 3: outcome must be a number, got 'oops'$"):
        reader(path)
    body[1] = "0,2,1,0,0.4,2.0"
    path.write_text("\n".join([DATASET_HEADER] + body) + "\n", encoding="utf-8")
    np.testing.assert_array_equal(reader(path).outcome, [[1.0, 2.0]])


def _layout_file(path, n, t_len):
    """A valid file of n subjects over t_len times, as ``write_dataset`` writes it."""
    shape = (n, t_len)
    avail = np.arange(n * t_len).reshape(shape) % 3 != 0
    write_dataset(Dataset(
        avail=avail,
        action=np.arange(n * t_len).reshape(shape) % 2,
        prob=np.full(shape, 0.4),
        outcome=np.where(avail, 0.5, np.nan),
    ), path)
    return path.read_text(encoding="utf-8").split("\n")


def _rewrite(path, lines, row, column, text):
    fields = lines[row + 1].split(",")
    fields[column] = text.format(v=fields[column])
    lines = [*lines[:row + 1], ",".join(fields), *lines[row + 2:]]
    path.write_text("\n".join(lines), encoding="utf-8")


def _read_by_lines(path):
    """``read_result`` of the reader, and whether it took the line path."""
    with mock.patch.object(cli, "_read_lines", wraps=cli._read_lines) as spy:
        return read_result(read_dataset, path), spy.called


def _trial_file(path):
    """The N = 400 trial of the paper's 6-week design, as ``write_dataset`` writes it."""
    design = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
    model = GenerativeModel.working_true(
        design, elicit_quadratic_effect(0.0, 0.10, 29, design),
        make_availability("constant", 0.5, design), ErrorProcess("ar1", 0.6))
    write_dataset(generate_dataset(model, 400, seed=1), path)


@pytest.mark.parametrize("n,t_len", [(1, 3), (1, cli._READ_CHUNK + 5), (3, cli._READ_CHUNK + 5),
                                     (400, 210)])
def test_write_dataset_files_never_take_the_line_path(csv_dir, n, t_len):
    path = csv_dir / "written.csv"
    if n == 400:
        _trial_file(path)
    else:
        _layout_file(path, n, t_len)
    got, by_lines = _read_by_lines(path)
    assert not by_lines
    assert got[1][0][1] == (n, t_len)
    assert got == read_result(reference_read_dataset, path)


def test_layout_texts_are_the_canonical_texts():
    for t_len in range(1, 7):
        for start in range(0, 20):
            for stop in range(start + 1, 24):
                rows = range(start, stop)
                assert cli._layout_texts(start, stop, t_len) == (
                    [str(r // t_len) for r in rows], [str(r % t_len + 1) for r in rows])


# 12 subjects over 11 times; rows 119 and 131 hold subject and t 10 and 11,
# which "1_0" and "1_1" spell too
SPELLED = [(spelling, row) for spelling in ("+{v}", "0{v}", " {v}", "{v} ", "{v[0]}_{v[1]}")
           for row in (0, 7, 119, 131) if row >= 119 or "_" not in spelling]


@pytest.mark.parametrize("chunk", [5, cli._READ_CHUNK])
@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("spelling,row", SPELLED)
def test_non_canonical_integer_texts_read_as_int_reads_them(csv_dir, chunk, column, spelling,
                                                            row):
    path = csv_dir / "spelled.csv"
    lines = _layout_file(path, 12, 11)
    clean = read_result(read_dataset, path)
    _rewrite(path, lines, row, column, spelling)
    with mock.patch.object(cli, "_READ_CHUNK", chunk):
        got = read_result(read_dataset, path)
    assert got == read_result(reference_read_dataset, path) == clean


@pytest.mark.parametrize("column,text", [
    (0, "+{v}"), (1, "0{v}"), (0, "7"), (1, "1"), (0, "x"), (1, "99999999999999999999"),
])
def test_first_layout_mismatch_after_the_first_chunk_reads_like_the_oracle(csv_dir, column,
                                                                          text):
    # 25 subjects over 210 times: 5250 rows, the mismatch at row 4500, in the
    # second chunk, after a first chunk whose texts are canonical
    path = csv_dir / "late.csv"
    lines = _layout_file(path, 25, 210)
    assert not _read_by_lines(path)[1]
    _rewrite(path, lines, 4500, column, text)
    got, by_lines = _read_by_lines(path)
    assert got == read_result(reference_read_dataset, path)
    assert by_lines


@pytest.mark.parametrize("column,text", [(0, "{v}"), (1, "+{v}"), (1, "1"), (0, "0")])
def test_first_block_longer_than_a_chunk_reads_like_the_oracle(csv_dir, column, text):
    # T = 5000 > _READ_CHUNK: subject 0's block spans two chunks; "{v}" leaves
    # row 7000 as written
    path = csv_dir / "long.csv"
    lines = _layout_file(path, 2, 5000)
    _rewrite(path, lines, 7000, column, text)
    got, by_lines = _read_by_lines(path)
    assert got == read_result(reference_read_dataset, path)
    assert by_lines == (text != "{v}")


def _handed_lines(path):
    """``read_result`` of the reader, and the lines it hands the line parser."""
    handed, read_lines = [], cli._read_lines

    def spy(lines, *args):
        handed.extend(lines)
        return read_lines(iter(handed), *args)

    with mock.patch.object(cli, "_read_lines", spy):
        return read_result(read_dataset, path), handed


def test_a_last_line_spelled_otherwise_hands_the_line_parser_one_chunk(csv_dir):
    # the N = 400 trial with its last subject spelled "+399": the columnar
    # parser keeps every chunk before the last one
    path = csv_dir / "trial.csv"
    _trial_file(path)
    clean = read_result(read_dataset, path)
    text = path.read_text(encoding="utf-8")
    last = text.rindex("\n", 0, -1) + 1
    path.write_text(text[:last] + "+" + text[last:], encoding="utf-8")
    got, handed = _handed_lines(path)
    assert got == clean
    assert 0 < len(handed) <= cli._READ_CHUNK
    assert handed[-1] == "+" + text[last:-1]


@pytest.mark.parametrize("column,text", [(0, "+{v}"), (1, "x"), (0, "0")])
def test_the_line_parser_starts_at_the_first_rejected_chunk(csv_dir, column, text):
    # 3 subjects over 4 times in chunks of 5 lines: the first mismatch, at
    # row 7, lies in the second chunk, rows 5-9
    path = csv_dir / "handed.csv"
    lines = _layout_file(path, 3, 4)
    _rewrite(path, lines, 7, column, text)
    with mock.patch.object(cli, "_READ_CHUNK", 5):
        got, handed = _handed_lines(path)
    assert got == read_result(reference_read_dataset, path)
    assert handed[0] == lines[6]  # row 5, the chunk's first line, as written


@pytest.mark.parametrize("chunk", [2, cli._READ_CHUNK])
@pytest.mark.parametrize("n,spelling", [(3, "{v}"), (1, "{v}"), (1, "+{v}")])
def test_a_file_changed_between_the_passes_is_reported(csv_dir, chunk, n, spelling):
    # a 2 x 3 file that grows by a subject, or loses three rows, after its
    # lines are counted; "+{v}" sends the shorter file to the line parser
    path, other = csv_dir / "changing.csv", csv_dir / "changed.csv"
    _layout_file(path, 2, 3)
    _rewrite(other, _layout_file(other, n, 3), 0, 0, spelling)
    line_chunks = cli._line_chunks

    def rewritten(name):
        path.write_bytes(other.read_bytes())
        return line_chunks(name)

    with mock.patch.object(cli, "_line_chunks", rewritten), \
            mock.patch.object(cli, "_READ_CHUNK", chunk):
        got = read_result(read_dataset, path)
    assert got == ("error", "cannot read dataset: the file changed while it was read")


def _undecodable(path, lines, offset, damage):
    """The file of ``lines`` with ``damage`` bytes put in at byte ``offset``."""
    data = "\n".join(lines).encode("utf-8")
    path.write_bytes(data[:offset] + damage + data[offset:])


@pytest.mark.parametrize("block", [3, 1000, cli._READ_BLOCK])
@pytest.mark.parametrize("damage,offset,position", [
    (b"\xff", 9000, "byte 0xff in position 9000: invalid start byte"),
    (b"\xe2\x28", 9000, "byte 0xe2 in position 9000: invalid continuation byte"),
    (b"\xe2\x82", None, "bytes in position {end}-{end1}: unexpected end of data"),
    (b"\xc3", 70000, "byte 0xc3 in position 70000: invalid continuation byte"),
])
def test_undecodable_byte_after_the_first_block_reads_like_the_oracle(csv_dir, block, damage,
                                                                      offset, position):
    # 5250 lines of about 25 bytes: the damage lies past the first block, at
    # a position that a whole-file decode names
    path = csv_dir / "undecodable.csv"
    lines = _layout_file(path, 25, 210)
    end = len("\n".join(lines).encode("utf-8"))
    _undecodable(path, lines, end if offset is None else offset, damage)
    with mock.patch.object(cli, "_READ_BLOCK", block):
        got = read_result(read_dataset, path)
    assert got == read_result(reference_read_dataset, path)
    assert got == ("error", "cannot read dataset: 'utf-8' codec can't decode "
                   + position.format(end=end, end1=end + 1))


def test_undecodable_byte_is_reported_before_a_bad_line(csv_dir):
    path = csv_dir / "undecodable.csv"
    lines = _layout_file(path, 25, 210)
    lines[0] = "not a header"
    _undecodable(path, lines, 90000, b"\xff")
    got = read_result(read_dataset, path)
    assert got == read_result(reference_read_dataset, path)
    assert got[1].startswith("cannot read dataset: 'utf-8' codec can't decode byte 0xff")
