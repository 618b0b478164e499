import pytest

from stringcones import cones


@pytest.fixture
def empty_entries():
    """An empty class cache before and after the test."""
    cones._class_entry.cache_clear()
    yield cones._class_entry
    cones._class_entry.cache_clear()
