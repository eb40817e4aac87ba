import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradflux import GridSpec, ScalarField, example1
from gradflux.fieldio import FieldFormatError, read_field_meta, write_field


def save(path, values, **kwargs):
    """Write an array as a field input is written: np.save on an open file."""
    with open(path, "wb") as f:
        np.save(f, values, **kwargs)


def refusal(path) -> str:
    with pytest.raises(FieldFormatError) as err:
        read_field_meta(path)
    assert str(err.value).startswith(f"{path}: ")
    return str(err.value)[len(f"{path}: "):]


def test_round_trip_example_weight(tmp_path):
    p = example1(GridSpec(20))
    path = tmp_path / "a.field"
    write_field(p.a, path)
    assert np.array_equal(read_field_meta(path).values, p.a.values)


def test_rewrite_is_byte_identical(tmp_path):
    p = example1(GridSpec(11))
    first = tmp_path / "one.field"
    second = tmp_path / "two.field"
    write_field(p.a, first)
    write_field(read_field_meta(first), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("n", [2, 7, 40])
def test_write_is_np_save_bytes(tmp_path, n):
    """A field file is exactly what np.save writes, so np.save makes inputs."""
    g = GridSpec(n)
    vals = np.random.default_rng(n).standard_normal(g.shape) * 10.0 ** np.arange(n + 1)
    vals[0, 0], vals[-1, -1] = -0.0, 5e-324
    write_field(ScalarField(g, vals), tmp_path / "w.field")
    save(tmp_path / "s.field", vals)
    assert (tmp_path / "w.field").read_bytes() == (tmp_path / "s.field").read_bytes()


finite = st.floats(allow_nan=False, allow_infinity=False)
finite_arrays = st.integers(2, 12).flatmap(
    lambda n: hnp.arrays(np.float64, (n + 1, n + 1), elements=finite)
)


@given(values=finite_arrays, fortran=st.booleans())
@settings(max_examples=25, deadline=None)
def test_round_trip_random_values(tmp_path_factory, values, fortran):
    """Every bit comes back, in the order the field held it."""
    values.flat[:4] = [-0.0, 5e-324, 1e308, -1e308]
    if fortran:
        values = np.asfortranarray(values)
    field = ScalarField(GridSpec(values.shape[0] - 1), values)
    path = tmp_path_factory.mktemp("fio") / "f.field"
    write_field(field, path)
    back = read_field_meta(path).values
    assert back.flags.f_contiguous == fortran and back.flags.owndata
    assert np.array_equal(back.view(np.uint64), field.values.view(np.uint64))


def test_empty_file_reports_missing_header(tmp_path):
    path = tmp_path / "empty.field"
    path.write_bytes(b"")
    assert refusal(path).startswith("not a field file (EOF: reading magic string")


def test_text_field_file_is_refused(tmp_path):
    """The text format of earlier versions is refused in one line naming the file."""
    path = tmp_path / "old.field"
    path.write_text("gradflux-field n=2 kind=u problem=t\n1 2 3\n4 5 6\n7 8 9\n")
    assert refusal(path) == (
        "not a field file (the magic string is not correct; expected b'\\x93NUMPY', got b'gradfl')"
    )


def test_undecodable_byte_names_file(tmp_path):
    """A header byte that decodes to no dtype is a refusal, not a traceback."""
    path = tmp_path / "bytes.field"
    save(path, np.zeros((3, 3)))
    path.write_bytes(path.read_bytes().replace(b"'<f8'", b"'\xfff8'"))
    assert refusal(path).startswith("not a field file (descr is not a valid dtype descriptor")


@pytest.mark.parametrize(
    "values, held",
    [
        (np.array([[None] * 3] * 3), "object of shape (3, 3)"),
        (np.zeros((3, 3), np.float32), "float32 of shape (3, 3)"),
        (np.zeros((3, 3), np.int64), "int64 of shape (3, 3)"),
        (np.zeros((3, 3), ">f8"), ">f8 of shape (3, 3)"),
        (np.zeros(9), "float64 of shape (9,)"),
        (np.zeros((3, 3, 3)), "float64 of shape (3, 3, 3)"),
        (np.zeros((3, 4)), "float64 of shape (3, 4)"),
        (np.zeros((2, 2)), "float64 of shape (2, 2)"),
    ],
    ids=["pickled", "float32", "int", "big-endian", "1-D", "3-D", "non-square", "side-2"],
)
def test_array_that_is_no_field_is_refused(tmp_path, values, held):
    path = tmp_path / "x.field"
    save(path, values, allow_pickle=True)
    assert refusal(path) == f"not a field file ({held}, not a float64 square of side >= 3)"


def test_count_mismatch_reported(tmp_path):
    path = tmp_path / "short.field"
    save(path, np.zeros((4, 4)))
    whole = path.read_bytes()
    expected = "not a field file (shape (4, 4) needs 128 bytes of values, file holds {})"
    path.write_bytes(whole[:-3])
    assert refusal(path) == expected.format(125)
    path.write_bytes(whole + b"\0")
    assert refusal(path) == expected.format(129)


def test_header_far_beyond_the_body_gives_the_count_error(tmp_path):
    """The byte count is checked before the array is allocated: a huge shape
    in the header ends in the count error."""
    path = tmp_path / "huge.field"
    save(path, np.zeros((3, 3)))
    data = path.read_bytes().replace(b"(3, 3), }", b"(100001, 100001), }")
    path.write_bytes(data.replace(b" " * 10 + b"\n", b"\n"))  # the header keeps its length
    assert refusal(path) == (
        "not a field file (shape (100001, 100001) needs 80001600008 bytes of values, "
        "file holds 72)"
    )


def test_non_finite_value_names_node(tmp_path):
    path = tmp_path / "nan.field"
    values = np.zeros((4, 4))
    values[2, 1], values[3, 0] = np.nan, np.inf
    save(path, values)
    assert refusal(path) == "non-finite value nan at node (2, 1)"
    values[2, 1] = -np.inf
    save(path, np.asfortranarray(values))
    assert refusal(path) == "non-finite value -inf at node (2, 1)"


def test_missing_path_names_the_file(tmp_path):
    path = tmp_path / "missing.field"
    assert refusal(path).startswith("cannot read field file ([Errno 2]")


def test_read_and_write_peaks_stay_bounded(tmp_path, traced_peak):
    """Reading holds one array plus the finiteness mask; writing copies nothing."""
    field = example1(GridSpec(200)).exact_u
    path = tmp_path / "u.field"
    write_peak = traced_peak(lambda: write_field(field, path))
    read_peak = traced_peak(lambda: read_field_meta(path))
    assert write_peak <= 0.1 * path.stat().st_size
    assert read_peak <= 1.25 * field.values.nbytes
