import pytest

from suborbifolds import groups


@pytest.fixture(autouse=True)
def empty_group_table(monkeypatch):
    """Each test starts from an empty table of kept groups
    (``groups.group_from_forms``), so a chart it builds is a fresh group
    and no test sees the groups, product rows or orbit stores of another."""
    monkeypatch.setattr(groups, "_kept", {})
