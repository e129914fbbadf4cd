import pytest

from labeldp import models


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread-count getter, with the count set to 2 for the
    test and the process's own count put back afterwards. Skips where no
    OpenBLAS thread control is found."""
    control = models._blas_thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process")
    get, set_ = control
    original = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS does not take a thread count of 2 here")
        yield get
    finally:
        set_(original)
