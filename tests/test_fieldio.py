
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflux import GridSpec, ScalarField, example1
from gradflux.fieldio import FieldFormatError, read_field_meta, write_field


def test_round_trip_example_weight(tmp_path):
    p = example1(GridSpec(20))
    path = tmp_path / "a.field"
    write_field(p.a, path, kind="a", problem="example1")
    back, kind, problem = read_field_meta(path)
    assert kind == "a"
    assert problem == "example1"
    assert np.array_equal(back.values, p.a.values)


def test_rewrite_is_byte_identical(tmp_path):
    p = example1(GridSpec(11))
    first = tmp_path / "one.field"
    second = tmp_path / "two.field"
    write_field(p.a, first, kind="a", problem="t")
    write_field(read_field_meta(first)[0], second, kind="a", problem="t")
    assert first.read_bytes() == second.read_bytes()


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12))
@settings(max_examples=25, deadline=None)
def test_round_trip_random_values(tmp_path_factory, seed, n):
    g = GridSpec(n)
    vals = np.random.default_rng(seed).standard_normal(g.shape) * 10.0 ** (
        seed % 7 - 3
    )
    field = ScalarField(g, vals)
    path = tmp_path_factory.mktemp("fio") / "f.field"
    write_field(field, path)
    assert np.array_equal(read_field_meta(path)[0].values, field.values)


def test_empty_file_reports_missing_header(tmp_path):
    path = tmp_path / "empty.field"
    path.write_text("")
    with pytest.raises(FieldFormatError, match="missing header"):
        read_field_meta(path)[0]


def test_malformed_header_names_line(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("not-a-field-file\n1 2 3\n")
    with pytest.raises(FieldFormatError, match=":1:"):
        read_field_meta(path)[0]


def test_count_mismatch_reported(tmp_path):
    path = tmp_path / "short.field"
    path.write_text("gradflux-field n=2 kind=u problem=t\n1 2 3\n4 5\n")
    with pytest.raises(FieldFormatError, match="holds 5"):
        read_field_meta(path)[0]


def test_bad_token_names_line(tmp_path):
    path = tmp_path / "token.field"
    path.write_text("gradflux-field n=2 kind=u problem=t\n1 2 3\n4 oops 6\n7 8 9\n")
    with pytest.raises(FieldFormatError, match=":3:.*oops"):
        read_field_meta(path)[0]


def test_undecodable_byte_names_file(tmp_path):
    path = tmp_path / "bytes.field"
    path.write_bytes(b"gradflux-field n=2 kind=u problem=t\n1 2 3\n4 \xff 6\n7 8 9\n")
    with pytest.raises(FieldFormatError) as err:
        read_field_meta(path)
    assert str(err.value).startswith(f"{path}: not UTF-8 text")


def test_non_finite_value_names_line(tmp_path):
    path = tmp_path / "nan.field"
    path.write_text("gradflux-field n=2 kind=u problem=t\n1 2 3\n4 5 6\n7 nan 9\n")
    with pytest.raises(FieldFormatError, match=r"nan\.field:4: non-finite value nan"):
        read_field_meta(path)[0]
    path.write_text("gradflux-field n=2 kind=u problem=t\n1 2 3\n4 inf 6\n7 8 9\n")
    with pytest.raises(FieldFormatError, match=":3: non-finite value inf"):
        read_field_meta(path)[0]


def test_whitespace_in_tags_rejected(tmp_path):
    """A tag the header cannot carry, empty or holding whitespace, is refused
    before anything is written."""
    p = example1(GridSpec(4))
    path = tmp_path / "x.field"
    for tags in ({"kind": "a b"}, {"problem": "t\tu"}, {"kind": ""}, {"problem": ""}):
        with pytest.raises(ValueError, match="whitespace"):
            write_field(p.a, path, **tags)
        assert not path.exists()


def _write_body(path, rows, newline="\n"):
    text = newline.join(["gradflux-field n=2 kind=u problem=t", *rows]) + newline
    path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "tok",
    ["1_000", "1__0", "+.5", "-0", "１２", "nan(1)", "0x10", "1e", "1e-400", "1e400", "-Infinity"],
)
def test_parse_grammar_matches_float(tmp_path, tok):
    """The body parse accepts exactly what float() accepts, with the same bits;
    anything else gets the error the per-line parse gives, naming line 3."""
    path = tmp_path / "tok.field"
    _write_body(path, ["1 2 3", f"4 {tok} 6", "7 8 9"])
    try:
        expected = float(tok)
    except ValueError:
        with pytest.raises(FieldFormatError) as err:
            read_field_meta(path)
        assert str(err.value) == f"{path}:3: cannot parse value {tok!r}"
        return
    if not np.isfinite(expected):
        with pytest.raises(FieldFormatError) as err:
            read_field_meta(path)
        assert str(err.value) == f"{path}:3: non-finite value {expected!r}"
        return
    values = read_field_meta(path)[0].values
    assert values[1, 1].tobytes() == np.float64(expected).tobytes()
    assert values.ravel().tolist() == [1, 2, 3, 4, expected, 6, 7, 8, 9]


def test_crlf_blank_lines_and_trailing_spaces(tmp_path):
    path = tmp_path / "crlf.field"
    _write_body(path, ["1 2 3  ", "", "4 5 6", "7 8 9 "], newline="\r\n")
    assert read_field_meta(path)[0].values.ravel().tolist() == list(range(1, 10))
    # the blank line still counts, so the bad token sits on line 5
    _write_body(path, ["1 2 3  ", "", "4 5 6", "7 oops 9 "], newline="\r\n")
    with pytest.raises(FieldFormatError, match=r"crlf\.field:5: cannot parse value 'oops'"):
        read_field_meta(path)
    _write_body(path, ["1 2 3  ", "", "4 5 6", "7 inf 9 "], newline="\r\n")
    with pytest.raises(FieldFormatError, match=r"crlf\.field:5: non-finite value inf"):
        read_field_meta(path)


def test_bad_token_wins_over_count_mismatch(tmp_path):
    path = tmp_path / "both.field"
    _write_body(path, ["1 2 3", "4 5", "7 oops"])
    with pytest.raises(FieldFormatError, match=r"both\.field:4: cannot parse value 'oops'"):
        read_field_meta(path)
    # a wrong count in turn wins over a non-finite value
    _write_body(path, ["1 2 3", "4 nan", "7 8"])
    with pytest.raises(FieldFormatError, match="holds 7"):
        read_field_meta(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        # numpy's parser reads a whitespace-only body as [-1.0]
        (["   ", "\t"], "header announces n=2 (9 values) but file holds 0"),
        (["1 2 3", "4 5 6", "7 8"], "header announces n=2 (9 values) but file holds 8"),
        # numpy's parser reads nan(123) as nan; float() rejects it
        (["1 2 3", "4 nan(123) 6", "7 8 9"], ":3: cannot parse value 'nan(123)'"),
    ],
)
def test_c_parse_quirks_get_the_line_parse_message(tmp_path, rows, message):
    path = tmp_path / "quirk.field"
    _write_body(path, rows)
    with pytest.raises(FieldFormatError) as err:
        read_field_meta(path)
    sep = "" if message.startswith(":") else ": "
    assert str(err.value) == f"{path}{sep}{message}"


def test_lone_minus_one_is_a_value_and_blank_lines_hold_none(tmp_path):
    """numpy's parser reads a whitespace-only line as [-1.0], like a real -1."""
    path = tmp_path / "minus.field"
    _write_body(path, ["1 2 3 4", " \t ", "-1", "", "6 7 8 9"])
    assert read_field_meta(path)[0].values.ravel().tolist() == [1, 2, 3, 4, -1, 6, 7, 8, 9]


def test_lines_end_only_at_newline_and_carriage_return(tmp_path):
    """A vertical tab or form feed separates values; it does not start a line."""
    path = tmp_path / "vt.field"
    _write_body(path, ["1 2 3\v4 5 6\f", "7 8 9"])
    assert read_field_meta(path)[0].values.ravel().tolist() == list(range(1, 10))
    _write_body(path, ["1 2 3\v4 5 6", "7 oops 9"])
    with pytest.raises(FieldFormatError, match=r"vt\.field:3: cannot parse value 'oops'"):
        read_field_meta(path)


def test_header_far_beyond_the_body_gives_the_count_error(tmp_path):
    """No allocation is sized from the header: a huge n ends in the count error."""
    path = tmp_path / "huge.field"
    path.write_text("gradflux-field n=100000 kind=u problem=t\n1 2 3\n4 5 6\n7 8 9\n")
    with pytest.raises(FieldFormatError) as err:
        read_field_meta(path)
    assert str(err.value) == (
        f"{path}: header announces n=100000 (10000200001 values) but file holds 9"
    )


def _joined_field_text(field, kind, problem):
    """The file write_field must produce, built as one joined string."""
    lines = [f"gradflux-field n={field.grid.n} kind={kind} problem={problem}"]
    lines += [" ".join("%.17g" % v for v in row) for row in field.values.tolist()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [2, 7, 40])
def test_streamed_write_matches_joined_text(tmp_path, n):
    g = GridSpec(n)
    vals = np.random.default_rng(n).standard_normal(g.shape) * 10.0 ** np.arange(n + 1)
    vals[0, 0], vals[-1, -1] = -0.0, 5e-324
    field = ScalarField(g, vals)
    path = tmp_path / "s.field"
    write_field(field, path, kind="u", problem="t")
    assert path.read_bytes() == _joined_field_text(field, "u", "t").encode()


def test_read_and_write_peaks_stay_bounded(tmp_path, traced_peak):
    """Reading streams lines and holds one value array; writing streams rows."""
    field = example1(GridSpec(200)).exact_u
    path = tmp_path / "u.field"
    write_peak = traced_peak(lambda: write_field(field, path))
    size = path.stat().st_size
    read_peak = traced_peak(lambda: read_field_meta(path))
    assert write_peak <= 0.1 * size
    assert read_peak <= 1.0 * size
