"""The loader of the compiled march library: its cache and its build error."""

import pytest

from heatflux import marchlib
from heatflux.errors import BuildError


@pytest.mark.parametrize("command", [("false",), ("heatflux-no-such-compiler", "-O2")])
def test_failed_build_raises_an_error_naming_the_command(tmp_path, monkeypatch, command):
    # A compiler that fails and one that is not there at all.
    monkeypatch.setattr(marchlib, "COMPILE", command)
    with pytest.raises(BuildError, match=f"`{' '.join(command)} -o "):
        marchlib.build(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_unchanged_source_reuses_the_cached_library(tmp_path, monkeypatch):
    built = marchlib.build(tmp_path)
    stamp = built.stat().st_mtime_ns

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran for a cached library")

    monkeypatch.setattr(marchlib.subprocess, "run", no_compiler)
    assert marchlib.build(tmp_path) == built
    assert built.stat().st_mtime_ns == stamp
    assert list(tmp_path.iterdir()) == [built]


def test_changed_source_builds_a_new_library(tmp_path):
    cache = tmp_path / "cache"
    built = marchlib.build(cache)
    changed = tmp_path / "_march.c"
    changed.write_text(marchlib.SOURCE.read_text() + "/* changed */\n")
    rebuilt = marchlib.build(cache, changed)
    assert rebuilt != built
    assert sorted(cache.iterdir()) == sorted([built, rebuilt])


def test_unwritable_cache_builds_in_a_temporary_directory(tmp_path, monkeypatch):
    # A regular file where the cache directory should be: the library is
    # built in a temporary directory instead, which is gone once it is loaded.
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(marchlib, "cache_dir", lambda: blocker / "heatflux")
    monkeypatch.setattr(marchlib.tempfile, "tempdir", str(tmp_path))
    lib, solver = marchlib._library.__wrapped__()
    assert lib.forward_march and solver
    assert list(tmp_path.iterdir()) == [blocker]
