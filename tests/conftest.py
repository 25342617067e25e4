import pytest

from suborbifolds import groups


@pytest.fixture(autouse=True)
def empty_group_table(monkeypatch):
    """Each test starts from an empty table of kept groups
    (``groups.group_from_forms``), so a chart it builds is a fresh group
    and no test sees the groups, product rows or orbit stores of another.
    A test that undid every patch of ``monkeypatch`` mid-test would fill
    the process-wide table, so that is refused at teardown."""
    process_table = groups._kept
    monkeypatch.setattr(groups, "_kept", {})
    yield
    assert groups._kept is not process_table, \
        "the test undid the empty group table (use monkeypatch.context())"
