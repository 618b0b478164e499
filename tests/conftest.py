import pytest

from stringcones import cones, polyhedra


@pytest.fixture
def empty_entries():
    """An empty class cache before and after the test."""
    cones._class_entry.cache_clear()
    yield cones._class_entry
    cones._class_entry.cache_clear()


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts redundancy LP sets, starting from an empty class cache."""
    calls = []
    lp = polyhedra._irredundant_indices

    def counting(rows, dim):
        calls.append(dim)
        return lp(rows, dim)

    monkeypatch.setattr(polyhedra, "_irredundant_indices", counting)
    cones._class_entry.cache_clear()
    yield calls
    cones._class_entry.cache_clear()
