import pytest

from commdiff.numcore import set_precision

# importing commdiff leaves mpmath at its 53-bit default, and test modules
# build mpf values and contexts at import, before any fixture runs
set_precision(113)


@pytest.fixture(autouse=True)
def working_precision():
    set_precision(113)
    yield
