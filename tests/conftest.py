import pytest


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """A results cache of the test's own, so that no test reads or fills the user's or another test's."""
    home = tmp_path_factory.mktemp("cache-home")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home
