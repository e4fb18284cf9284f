"""studies/compare_outputs.py: how it reports the columns of two outputs that differ."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "studies" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

PARENT = b"0.0 0.0 0.0 1.0 0.0 16 0\n0.3 0.25 0.0 0.5 0.0 16 300\n"


def describe(a, b):
    return compare_outputs.describe(*compare_outputs.column_differences(a, b))


def test_a_changed_basis_size_column_is_told_apart_from_changed_values():
    boxed = PARENT.replace(b" 16 300", b" 4 300")
    assert describe(PARENT, boxed) == "column 6 max |diff| 12; columns 1-5, 7 identical"
    moved = PARENT.replace(b"0.25", b"0.2500001").replace(b"300", b"301")
    assert describe(PARENT, moved) == ("column 2 max |diff| 1e-07; column 7 max |diff| 1; "
                                       "columns 1, 3-6 identical")


def test_a_signed_zero_differs_by_zero_and_other_shapes_have_no_columns():
    assert describe(PARENT, PARENT.replace(b"0.3 0.25 0.0", b"0.3 0.25 -0.0")) == (
        "column 3 max |diff| 0; columns 1-2, 4-7 identical")
    assert compare_outputs.column_differences(PARENT, b"0.0 0.0\n") is None
    assert compare_outputs.column_differences(PARENT, PARENT + b"1 2 3 4 5 6 7\n") is None
