import pytest

from burstkit import field_from_order, field_new


class _Fields(dict):
    """Fields by order; one missing from the preset is built on first use."""

    def __missing__(self, q):
        self[q] = field_from_order(q)
        return self[q]


@pytest.fixture(scope="session")
def fields():
    """The fields the suite keeps coming back to, built once."""
    return _Fields({
        2: field_new(2, 1),
        3: field_new(3, 1),
        4: field_new(2, 2),
        5: field_new(5, 1),
        7: field_new(7, 1),
        8: field_new(2, 3),
        13: field_new(13, 1),
        16: field_new(2, 4),
        17: field_new(17, 1),
    })
