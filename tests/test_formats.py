"""Tests for the records/csv/table serializations and their parsers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from reachcalc.errors import DomainError
from reachcalc.formats import (
    REPORT_KEYS,
    SOLUTION_KEYS,
    TRACE_KEYS,
    classes_text,
    csv_text,
    format_value,
    parse_csv,
    parse_records,
    read_program_text,
    records_text,
    table_text,
)

ROWS = [
    {"program": "0011", "length": 4, "p": 0.8, "variation": 0.2575424759098899,
     "reachability": 0.06548908013415841, "energy": 7.3939954589271285e-22},
    {"program": "100011", "length": 6, "p": 0.2, "variation": 0.4643856189774725,
     "reachability": 0.20000000000000007, "energy": 1.3332422722812844e-21},
]


def test_format_value():
    assert format_value(0.5) == "0.5"
    assert format_value(1.0 / 3.0) == "0.333333333333"  # 12 significant digits
    assert format_value(7.3939954589271285e-22) == "7.39399545893e-22"
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(7) == "7"
    assert format_value("0011") == "0011"


def test_records_shape():
    text = records_text(ROWS, SOLUTION_KEYS)
    assert text == "program=0011 length=4 p=0.8\nprogram=100011 length=6 p=0.2\n"
    assert records_text([], SOLUTION_KEYS) == ""


def test_csv_shape():
    text = csv_text(ROWS, SOLUTION_KEYS)
    lines = text.splitlines()
    assert lines[0] == "program,length,p"
    assert lines[1] == "0011,4,0.8"
    assert "\r" not in text
    assert text.endswith("\n")


def test_table_shape():
    text = table_text(ROWS, SOLUTION_KEYS)
    lines = text.splitlines()
    assert lines[0].split() == ["program", "length", "p"]
    assert lines[1].startswith("0011")
    # columns align: 'length' values start where the header word starts
    col = lines[0].index("length")
    assert lines[1][col] == "4"
    assert lines[2][col] == "6"
    assert not any(line != line.rstrip() for line in lines)


def test_empty_rows_print_the_header_line_only():
    assert csv_text([], SOLUTION_KEYS) == "program,length,p\n"
    assert table_text([], SOLUTION_KEYS) == "program  length  p\n"
    assert csv_text(iter(()), TRACE_KEYS) == "program,length,outcome\n"


def test_records_roundtrip_pinned():
    parsed = parse_records(records_text(ROWS, REPORT_KEYS))
    assert parsed[0]["program"] == "0011"  # stays a string, leading zero intact
    assert parsed[1]["program"] == "100011"
    assert parsed[0]["length"] == 4
    assert isinstance(parsed[0]["length"], int)
    assert parsed[0]["p"] == 0.8
    assert parsed[1]["reachability"] == 0.2


def test_csv_roundtrip_pinned():
    parsed = parse_csv(csv_text(ROWS, REPORT_KEYS))
    assert [row["program"] for row in parsed] == ["0011", "100011"]
    assert parsed[0]["energy"] == pytest.approx(7.39399545893e-22, rel=1e-12)


def test_parse_outcome_stays_string():
    rows = [{"program": "0011", "length": 4, "outcome": "hit"}]
    for text, parse in ((records_text(rows, TRACE_KEYS), parse_records),
                        (csv_text(rows, TRACE_KEYS), parse_csv)):
        assert parse(text)[0]["outcome"] == "hit"


def test_parse_empty_inputs():
    assert parse_records("") == []
    assert parse_records("\n\n") == []
    assert parse_csv("") == []


value_strategy = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    st.floats(min_value=1e-30, max_value=1.0),
)
row_strategy = st.fixed_dictionaries(
    {
        "program": st.text(alphabet="01", min_size=1, max_size=16),
        "length": st.integers(min_value=0, max_value=64),
        "p": value_strategy,
        "variation": value_strategy,
        "reachability": value_strategy,
        "energy": value_strategy,
    }
)


@given(st.lists(row_strategy, min_size=0, max_size=6))
def test_records_roundtrip_property(rows):
    """Parsing recovers exactly the 12-digit rendering of every field."""
    parsed = parse_records(records_text(rows, REPORT_KEYS))
    assert len(parsed) == len(rows)
    for original, back in zip(rows, parsed):
        assert back["program"] == original["program"]
        for key in REPORT_KEYS[1:]:
            assert back[key] == pytest.approx(float(format_value(original[key])))


@given(st.lists(row_strategy, min_size=0, max_size=6))
def test_csv_roundtrip_property(rows):
    parsed = parse_csv(csv_text(rows, REPORT_KEYS))
    assert len(parsed) == len(rows)
    for original, back in zip(rows, parsed):
        assert back["program"] == original["program"]
        for key in REPORT_KEYS[1:]:
            assert back[key] == pytest.approx(float(format_value(original[key])))


def test_serialization_is_deterministic():
    assert records_text(ROWS, REPORT_KEYS) == records_text(ROWS, REPORT_KEYS)
    assert csv_text(ROWS, REPORT_KEYS) == csv_text(ROWS, REPORT_KEYS)
    assert table_text(ROWS, REPORT_KEYS) == table_text(ROWS, REPORT_KEYS)


def test_read_program_text():
    assert read_program_text("0011") == "0011"
    assert read_program_text(" 00 11\n") == "0011"
    assert read_program_text("00\t11\n01\n") == "001101"
    assert read_program_text("") == ""
    with pytest.raises(DomainError):
        read_program_text("0x11")


def test_read_program_text_error_marks_only_a_cut():
    with pytest.raises(DomainError) as short:
        read_program_text("012")
    assert str(short.value).endswith("got '012'")
    with pytest.raises(DomainError) as long:
        read_program_text("2" * 41)
    assert str(long.value).endswith(f"got {'2' * 40!r}...")
    with pytest.raises(DomainError) as exact:
        read_program_text("2" * 40)
    assert str(exact.value).endswith(f"got {'2' * 40!r}")


FORMATS = ("table", "records", "csv")
REFERENCES = {"table": oracles.oracle_table_text, "records": oracles.oracle_records_text,
              "csv": oracles.oracle_csv_text}
WRITERS = {"table": table_text, "records": records_text, "csv": csv_text}


@st.composite
def classes_strategy(draw):
    """(keys, classes): 0-5 classes of 1-4 programs, each of 1-16 bits drawn
    on its own, so a class's programs can differ in width, and each class
    with one drawn value per column after the first."""
    keys = draw(st.sampled_from((REPORT_KEYS, SOLUTION_KEYS, TRACE_KEYS)))
    program = st.text(alphabet="01", min_size=1, max_size=16)
    row = st.fixed_dictionaries({k: value_strategy for k in keys[1:]})
    classes = draw(st.lists(
        st.tuples(st.lists(program, min_size=1, max_size=4).map(tuple), row), max_size=5))
    return keys, classes


@given(classes_strategy())
def test_class_writer_matches_the_row_by_row_reference(drawn):
    """classes_text prints each class as its programs' rows, in every format,
    byte for byte as the row-by-row reference prints the expanded rows; the
    three per-row writers print those rows as the reference does."""
    keys, classes = drawn
    rows = [{keys[0]: p, **row} for programs, row in classes for p in programs]
    for fmt in FORMATS:
        expected = REFERENCES[fmt](rows, keys)
        assert classes_text(fmt, keys, classes) == expected, fmt
        assert WRITERS[fmt](rows, keys) == expected, fmt
