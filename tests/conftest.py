"""Fixtures shared across test modules."""

from __future__ import annotations

import pytest

from helpers import MOVERS, mover


@pytest.fixture(params=MOVERS)
def transport(request):
    """Each frame mover in turn: worker pools built by the test use it."""
    with mover(request.param):
        yield request.param
