"""The integration kernel is reported as the numpy backend in run metadata."""


def test_numpy_backend_is_explicit():
    from itmflow import BACKEND
    assert BACKEND == "numpy"
