"""Fixtures shared by the tier-1 tests."""

import gc

import pytest


@pytest.fixture
def caller_gc(request):
    """Run a test with the cyclic collector in the caller state named by
    the (indirect) parameter, then put pytest's own setting back."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()
