import pytest


@pytest.fixture
def blas_threads():
    """``set(count)`` for numpy's OpenBLAS threads, starting at 2;
    restored afterwards."""
    from mwstab import bloch

    threads = bloch._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, put = threads
    before = get()
    put(2)
    if get() != 2:
        put(before)
        pytest.skip("OpenBLAS runs one thread on this host")
    yield put
    put(before)
