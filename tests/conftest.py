"""Fixtures shared by the test modules."""

from __future__ import annotations

from functools import cache

import pytest

from knightpaths import recurrences, transfer
from knightpaths.counting import generate
from knightpaths.paths import Path, PathConstraints


@cache
def _generated(size: int, constraints: PathConstraints = PathConstraints()) -> tuple[Path, ...]:
    return tuple(generate(size, constraints))


@pytest.fixture(scope="session")
def paths_of():
    """generate(size, constraints), built once per test session.

    Each result is a tuple, so no test can change what another one reads.
    """
    return _generated


@pytest.fixture
def fresh_rows():
    """No stored row before or after the test: a patched recurrence or element
    is derived afresh, and a row derived from it is not kept."""
    recurrences._memo.clear()
    yield
    recurrences._memo.clear()


@pytest.fixture(autouse=True)
def fresh_band_fractions():
    """No band fraction kept from another test: each test's `band_gf` runs its
    own elimination, so a patched step or a spy on one is reached."""
    transfer.band_gf.cache_clear()
    yield
    transfer.band_gf.cache_clear()
