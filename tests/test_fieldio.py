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


def test_non_finite_value_names_line(tmp_path):
    path = tmp_path / "nan.field"
    path.write_text("gradflux-field n=2 kind=u problem=t\n1 2 3\n4 5 6\n7 nan 9\n")
    with pytest.raises(FieldFormatError, match=r"nan\.field:4: non-finite value nan"):
        read_field_meta(path)[0]
    path.write_text("gradflux-field n=2 kind=u problem=t\n1 2 3\n4 inf 6\n7 8 9\n")
    with pytest.raises(FieldFormatError, match=":3: non-finite value inf"):
        read_field_meta(path)[0]


def test_whitespace_in_tags_rejected(tmp_path):
    p = example1(GridSpec(4))
    with pytest.raises(ValueError, match="whitespace"):
        write_field(p.a, tmp_path / "x.field", kind="a b")
