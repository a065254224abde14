"""Differential tests: the columnar hydraulic ingest against its oracle.

``tests/reference_hydraulics.py`` keeps the row-by-row ingest that the
columnar one replaced.  On every input the two must agree: either every
``HydraulicSeries`` field is bit-equal, ids in the same order, or both raise
the same exception type with the same message.

The shipped ingest has two readers.  Plain text with "\n" or "\r\n" line
ends is read a block of bytes at a time by ``np.loadtxt``; every other
file, every file with a fault and every file with a number that numpy does
not parse is read row by row with ``csv.reader``, which words the error.
So the fuzzer and the explicit cases also run with blocks of 0, 1 and 7
bytes, which end at the first line end after them: a line or a few per
block.  Their numbers and ids hold whitespace that ``float`` and numpy both
strip, or that only numpy strips, and their ids a "#" or nothing.
"""

import csv
import io
import tempfile
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hydrolora import build_network, export_hydraulic_csv, ingest_hydraulic_csv, synthetic_wds, tokenize_inp
from hydrolora import hydraulics
from hydrolora.errors import HydroLoraError
from tests import reference_hydraulics
from tests.test_bench_contract import load_perfbench

# A reservoir and four junctions; two ids need quoting in CSV, two hold a "#".
ORACLE_INP = """\
[RESERVOIRS]
 R1 150
[JUNCTIONS]
 J1 100 1
 a,"b 95 2
 Jé 90 1
 J#2 85 1
[PIPES]
 P1 R1 J1 100 0.3 130
 p,"2 J1 a,"b 100 0.3 130
 P3 a,"b Jé 50 0.3 130
 P#4 Jé J#2 50 0.3 130
[COORDINATES]
 R1 0 0
 J1 100 0
 a,"b 200 0
 Jé 300 0
 J#2 400 0
"""
NODE_HEADER = ["time_s", "node_id", "pressure", "demand"]
LINK_HEADER = ["time_s", "link_id", "flow"]
NODE_IDS = ["R1", "J1", 'a,"b', "Jé", "J#2"]
LINK_IDS = ["P1", 'p,"2', "P3", "P#4"]
# Whitespace as ``str.isspace`` has it: numpy strips all of it around a
# number; ``float`` strips all but 0x1C-0x1F, which the block reader refuses.
SPACES = ["\x1c", "\x1d", "\x1e", "\x1f", "\x0b", "\x0c", "\xa0", "\u2003", "\x85", "\u2028"]
# Ids no network here has, each an UnknownId that names it as it was read.
UNKNOWN_IDS = ["Z9", " J1", "J1 ", "", "J#1", *(f"J{c}1" for c in SPACES)]
# Spellings of the grid times: "-0" equals "0" and "3600.0" equals "3600".
TIMES = [("0", "-0"), ("1e3",), ("3600", "3600.0"), ("7200",)]
GOOD = ["1", "-2.5", "0", "-0", "1e300", " 1.5", "1_0", "2.5 ", "1e-320", "\u0661",
        *(f"{c}1.5" for c in SPACES[4:]), *(f"2.5{c}" for c in SPACES[4:])]
BAD = ["nan", "inf", "-inf", "1e999", "x", "", "1__0", "NaN", "Infinity", "-Infinity",
       *(f"{c}1.5" for c in SPACES[:4]), *(f"2.5{c}" for c in SPACES[:4])]

SMALL_BLOCKS = pytest.mark.parametrize("chars", [0, 1, 7])  # a line or a few per block

FUZZ = settings(derandomize=True, max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def outcome(ingest, node_bytes, link_bytes, inp):
    """What ``ingest`` makes of the two files: its series, or (type, message)."""
    net = build_network(tokenize_inp(inp))
    with tempfile.TemporaryDirectory() as tmp:
        node_csv, link_csv = Path(tmp, "nodes.csv"), Path(tmp, "links.csv")
        node_csv.write_bytes(node_bytes)
        link_csv.write_bytes(link_bytes)
        try:
            return ingest(node_csv, link_csv, net)
        except HydroLoraError as exc:
            return type(exc), str(exc).replace(tmp, "<tmp>")


def bits(array):
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


def blocks_of(chars):
    return mock.patch.object(hydraulics, "_CHARS_PER_BLOCK", chars)


def assert_same(node_bytes, link_bytes, inp=ORACLE_INP):
    """Both ingests give bit-equal series or the same error; returns ours."""
    got = outcome(ingest_hydraulic_csv, node_bytes, link_bytes, inp)
    expected = outcome(reference_hydraulics.ingest_hydraulic_csv, node_bytes, link_bytes, inp)
    if isinstance(expected, tuple) or isinstance(got, tuple):
        assert got == expected
        return got
    assert bits(got.timestamps) == bits(expected.timestamps)
    assert bits(got.node_flow) == bits(expected.node_flow)
    for name in ("pressure", "demand", "flow"):
        got_column, expected_column = getattr(got, name), getattr(expected, name)
        assert list(got_column) == list(expected_column)
        assert [bits(v) for v in got_column.values()] == [bits(v) for v in expected_column.values()]
    return got


def random_grid(rnd):
    return sorted(rnd.sample(TIMES, rnd.randint(1, len(TIMES))), key=lambda spellings: float(spellings[0]))


def long_csv(rnd, header, ids, grid):
    """CSV bytes in the ingest schema, mostly well formed: each drawn id at
    each grid time, time-major or id-major, with now and then a bad value,
    an unknown id, a dropped, swapped, short or wide row, a blank line, a
    header with columns moved or missing, CRLF or CR line ends, quoting of
    every field, or a byte that is not UTF-8."""
    def rarely(odds):
        return rnd.random() < odds

    pool = ids + [rnd.choice(UNKNOWN_IDS)] if rarely(0.1) else ids
    entities = rnd.sample(pool, rnd.randint(0, len(ids)))
    pairs = [(t, e) for t in grid for e in entities]
    if rnd.random() < 0.5:
        pairs.sort(key=lambda pair: entities.index(pair[1]))
    rows = [[rnd.choice(t), e, *(rnd.choice(BAD if rarely(0.02) else GOOD) for _ in header[2:])]
            for t, e in pairs]
    if rows and rarely(0.1):
        rows.pop(rnd.randrange(len(rows)))
    if rows and rarely(0.05):
        rnd.choice(rows)[0] = rnd.choice(rnd.choice(TIMES))
    if len(rows) > 1 and rarely(0.1):
        i = rnd.randrange(len(rows) - 1)
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    for row in rows:
        if rarely(0.01):
            del row[rnd.randrange(len(row)):]
        elif rarely(0.02):
            row.append(rnd.choice(GOOD))
    columns = list(header)
    if rarely(0.1):
        rnd.shuffle(columns)
        rows = [[dict(zip(header, row)).get(name, "") for name in columns] for row in rows]
    if rarely(0.03):
        columns.pop()
    if rarely(0.1):
        columns.append("extra")
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator=rnd.choice(["\n"] * 4 + ["\r\n", "\r"]),
                        quoting=csv.QUOTE_ALL if rarely(0.15) else csv.QUOTE_MINIMAL)
    for row in [columns, *rows]:
        writer.writerow(row)
        if rarely(0.03):
            buffer.write("\n")
    data = buffer.getvalue().encode("utf-8")
    if rarely(0.05):
        at = rnd.randint(0, len(data))
        data = data[:at] + rnd.choice([b"\xff", b"\x80", b"\xc3", b"\x00"]) + data[at:]
    return data


def assert_same_on_random_files(rnd):
    """The two files share one grid, or now and then each has its own."""
    grid = random_grid(rnd)
    assert_same(long_csv(rnd, NODE_HEADER, NODE_IDS, grid),
                long_csv(rnd, LINK_HEADER, LINK_IDS, grid if rnd.random() < 0.85 else random_grid(rnd)))


@FUZZ
@given(st.randoms(use_true_random=True))
def test_columnar_ingest_matches_oracle(rnd):
    assert_same_on_random_files(rnd)


@SMALL_BLOCKS
@FUZZ
@given(st.randoms(use_true_random=True))
def test_columnar_ingest_in_small_blocks_matches_oracle(chars, rnd):
    with blocks_of(chars):
        assert_same_on_random_files(rnd)


NODES = "time_s,node_id,pressure,demand\n"
LINKS = "time_s,link_id,flow\n"
GOOD_NODES = NODES + '0,R1,50,0\n0,"a,""b",48,2\n3600,R1,49,0\n3600,"a,""b",47,2\n'
GOOD_LINKS = LINKS + '0,P1,10\n0,"p,""2",-3\n3600,P1,12\n3600,"p,""2",-4\n'


EXPLICIT_CASES = pytest.mark.parametrize("nodes,links", [
    (GOOD_NODES, GOOD_LINKS),  # quoted ids holding "," and '"'
    (GOOD_NODES.replace("\n", "\r\n"), GOOD_LINKS),
    (GOOD_NODES.replace("\n", "\r"), GOOD_LINKS.replace("\n", "\r")),
    (GOOD_NODES.replace("3600,R1", "\n\n3600,R1"), GOOD_LINKS + "\n\n"),  # blank lines
    ("\n" + GOOD_NODES, GOOD_LINKS),  # a blank first line is an empty header
    (NODES + "0,R1,50\n", GOOD_LINKS),  # short row
    (NODES + "0,R1,50,0,9,9\n3600,R1,49,0,9\n", LINKS + "0,P1,10,x\n3600,P1,1\n"),  # wide rows pass
    (NODES + "0,R1,nan,0\n0,J1,inf,1\n", GOOD_LINKS),
    (NODES + "0,R1,1,0\n0,J1,1,1\n3600,J1,inf,1\n3600,R1,nan,0\n", LINKS),  # first id's line wins
    (NODES + "0,J1,1,1\n0,R1,nan,0\n3600,J1,inf,1\n3600,R1,1,0\n7200,J1,nan,1\n", LINKS),
    (NODES + "0,R1, 1.5,1_0\n", LINKS + "0,P1,1_0 \n"),
    (NODES + "0,R1,1__0,0\n", LINKS),
    (NODES + "0,R1,NaN,0\n", LINKS + "0,P1,Infinity\n"),
    (NODES + "0,R1,1,-Infinity\n", LINKS),
    (NODES + "0,J#2,1,0\n3600,J#2,2,0\n", LINKS + "0,P#4,1\n3600,P#4,2\n"),  # "#" is no comment
    (NODES + "0,R1,1,0#1\n", LINKS),
    (NODES + "0, R1,1,0\n", LINKS),  # ids keep their spaces
    (NODES + "0,R1 ,1,0\n", LINKS),
    (NODES + "0,,1,0\n", LINKS),  # an empty id
    (NODES.replace("\n", ",note\n") + "0,R1,1,0,calm\n3600,R1,2,0,x\n", LINKS),  # a column that is not read
    ("note," + NODES + "a b,0,R1,1,0\n", LINKS),
    (NODES + "0,R1,1,0\n \n", LINKS),  # lines of whitespace or commas only
    (NODES + "0,R1,1,0\n\t\n", LINKS),
    (NODES + "0,R1,1,0\n\x0c\n", LINKS),
    (NODES + "0,R1,1,0\n,,,\n", LINKS),
    (GOOD_NODES, LINKS + ",,,,\n"),
    (NODES + "0,R1,1,0", LINKS + "0,P1,1"),  # no final line end
    (NODES, LINKS),  # header-only files
    (NODES, GOOD_LINKS),
    (GOOD_NODES, LINKS),
    ("", GOOD_LINKS),
    (NODES + "3600,R1,1,0\n0,R1,1,0\n", LINKS),  # non-monotone
    (NODES + "0,R1,1,0\n3600,R1,1,0\n0,J1,1,0\n", LINKS),  # mismatched grid
    (NODES + "0,R1,1,0\n3600,R1,1,0\n0,J1,1,0\n7200,J1,1,0\n", LINKS),
    (NODES + "0,R1,1,0\n0,J1,1,0\n3600,J1,1,0\n3600,J1,2,0\n", LINKS),
    (NODES + "0,R1,1,0\n", LINKS + "3600,P1,1\n"),  # node and link grids differ
    (NODES + "-0,R1,1,0\n0,J1,1,0\n", LINKS + "0.0,P1,1\n"),
    (NODES + "0,Z9,1,0\n", LINKS + "0,Q9,1\n"),  # unknown ids
    (GOOD_NODES, LINKS + "0,P1,1\n0,Q9,x\n"),
    ("time_s,node_id,pressure\n0,R1,1\n", GOOD_LINKS),  # missing column
    ("demand,node_id,time_s,pressure\n1,R1,0,50\n", GOOD_LINKS),  # columns in another order
    (NODES + '0,"R1,1,0\n', LINKS),  # unterminated quote
    (NODES + "0,R\x001,1,0\n", LINKS),
    (NODES.replace("\n", ",note\n") + "0,R1,1,0," + "x" * 131073 + "\n", LINKS),  # field over csv's limit
    (GOOD_NODES.replace('"a,""b"', "J1").rstrip("\n"), GOOD_LINKS.rstrip("\n")),  # no final line end
])
@EXPLICIT_CASES
def test_explicit_case_matches_oracle(nodes, links):
    assert_same(nodes.encode("utf-8"), links.encode("utf-8"))


@EXPLICIT_CASES
@SMALL_BLOCKS
def test_explicit_case_in_small_blocks_matches_oracle(nodes, links, chars):
    with blocks_of(chars):
        assert_same(nodes.encode("utf-8"), links.encode("utf-8"))


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("row", ["0,R1,{}1.5,0", "0,R1,1.5{},0", "0,R1,1.5,0{}", "0,R{}1,1.5,0", "0,{}R1,1.5,0",
                                 "0,R1{},1.5,0", "{}0,R1,1.5,0", "{}"])
def test_whitespace_around_numbers_and_in_ids_matches_oracle(space, row):
    assert_same((NODES + row.format(space) + "\n").encode("utf-8"), GOOD_LINKS.encode("utf-8"))


def node_rows(id_major=False):
    """Ten hourly rows for each of three ids, time-major or id-major."""
    pairs = product(range(0, 36000, 3600), ("R1", "J1", "Jé"))
    return [f"{t},{e},{40 + t % 7},1" for t, e in (sorted(pairs, key=lambda pair: pair[1]) if id_major else pairs)]


ROWS = node_rows()


@pytest.mark.parametrize("rows,plain", [
    (ROWS[:-1] + [ROWS[-1] + ",9"], True),  # a wide row in the last block: its extra field is not read
    (ROWS[:-1] + ['32400,"Jé",1,1'], False),  # a quoted id in the last block only: csv.reader reads the file
    (ROWS[:-1] + [ROWS[-1].rpartition(",")[0]], None),  # a short row there
    (ROWS[:-1] + ["32400,Jé,x,1"], None),  # a bad number in a later block
    (ROWS[:-1] + ["32400,Jé,inf,1"], None),  # a non-finite value in a later block
    (ROWS[:-1] + ["32400,Jé,\x1c1,1"], None),  # a number numpy strips and float does not
    (ROWS[:-1] + ["32400,Jé,1_0,1"], False),  # a number float reads and numpy does not
    (ROWS[:-1] + ["32400,Jé,\u0661,1"], False),
    (ROWS[:-1] + ["32400,Jé,\u20031\xa0,\x851\u2028"], True),  # whitespace both strip
    (ROWS[:4] + ["0,R1,nan,1"] + ROWS[5:-1] + ["32400,Jé,-inf,1"], None),  # and one in the first
    (node_rows(id_major=True), True),  # J1 and Jé first seen in later blocks
    (["", *ROWS, "", ""], True),  # a blank line at each block edge
    ([row + "\r" for row in ROWS], True),  # CRLF line ends
])
@pytest.mark.parametrize("chars", [hydraulics._CHARS_PER_BLOCK, 0, 1, 7, 64])
def test_block_edges_match_oracle(rows, plain, chars):
    """Faults, a width change, new ids, blank lines and CRLF line ends in
    blocks after the first.  An accepted file is split by the blocks
    (``plain``) or, where a block holds a quote or a number that numpy does
    not parse, by ``csv.reader``."""
    nodes = (NODES + "\n".join(rows) + "\n").encode("utf-8")
    with blocks_of(chars):
        assert_same(nodes, LINKS.encode())
        with mock.patch.object(hydraulics.csv, "reader", wraps=csv.reader) as reader:
            got = outcome(ingest_hydraulic_csv, nodes, LINKS.encode(), ORACLE_INP)
    if plain is not None:
        assert not isinstance(got, tuple) and reader.called != plain


@pytest.mark.parametrize("at", [len(NODES) + 3, 20_000])
def test_non_utf8_bytes_match_oracle(at):
    """A bad byte in the first decoded block or far beyond it, behind rows
    that are themselves bad or good."""
    rows = "".join(f"{t},R1,1,0\n" for t in range(2000))
    data = (NODES + rows).encode()
    assert_same(data[:at] + b"\xff" + data[at:], GOOD_LINKS.encode())
    bad_rows = (NODES + "0,R1,x,0\n" + rows).encode()
    assert_same(bad_rows[:at] + b"\xff" + bad_rows[at:], GOOD_LINKS.encode())


def test_benchmark_series_matches_oracle(tmp_path):
    inp = synthetic_wds(n_nodes=120, n_clusters=3, seed=5)
    (tmp_path / "network.inp").write_text(inp)
    series = load_perfbench("workloads").hydraulic_series(tmp_path / "network.inp", seed=2)
    export_hydraulic_csv(series, tmp_path / "nodes.csv", tmp_path / "links.csv")
    nodes, links = (tmp_path / "nodes.csv").read_bytes(), (tmp_path / "links.csv").read_bytes()
    got = assert_same(nodes, links, inp)
    assert list(got.flow) == list(series.flow) and got.node_flow.any()
    with mock.patch.object(hydraulics.csv, "reader", wraps=csv.reader) as reader:
        outcome(ingest_hydraulic_csv, nodes, links, inp)
    assert not reader.called  # the block reader reads benchmark files
