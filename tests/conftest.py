import pytest


@pytest.fixture
def blas_at_two():
    """The OpenBLAS thread getter, with the count set to 2 for the test and restored after."""
    from foucast import pool

    api = pool._openblas_threads()
    if api is None:
        pytest.skip("no OpenBLAS thread setter in this process")
    get, put = api
    before = get()
    put(2)
    yield get
    put(before)
