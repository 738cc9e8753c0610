import pytest

from relop import lnp


@pytest.fixture(autouse=True)
def empty_lnp_memo():
    """Each test starts with ``lnp``'s memo empty, so test order cannot
    change what a test sees."""
    lnp.MEMO.clear()
