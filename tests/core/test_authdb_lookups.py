"""Account lookups copy only the entry they return.

``UserDatabase`` reads each database through the syscall layer and
parses it into a process-wide memo keyed on the file's bytes. The
memo's entries are shared, so no caller may ever hold one: the
``*_entries`` readers hand out clones of every entry, and a lookup
clones just the entry it returns.
"""

import pytest

from repro.config.passwd_db import GroupEntry, PasswdEntry, ShadowEntry
from repro.core import System, SystemMode


@pytest.fixture(scope="module")
def userdb():
    return System(SystemMode.PROTEGO).userdb


@pytest.fixture
def clones(monkeypatch):
    """Count ``clone()`` calls per entry class."""
    counts = {}
    for cls in (PasswdEntry, ShadowEntry, GroupEntry):
        original = cls.clone

        def counted(self, _original=original, _name=cls.__name__):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(self)

        monkeypatch.setattr(cls, "clone", counted)
    return counts


@pytest.mark.parametrize("lookup,arg,cls", [
    ("lookup_user", "alice", "PasswdEntry"),
    ("lookup_uid", 1001, "PasswdEntry"),
    ("lookup_group", "printers", "GroupEntry"),
    ("lookup_gid", 27, "GroupEntry"),
    ("shadow_for", "bob", "ShadowEntry"),
])
def test_a_lookup_clones_one_entry(userdb, clones, lookup, arg, cls):
    assert getattr(userdb, lookup)(arg) is not None
    assert clones == {cls: 1}


@pytest.mark.parametrize("lookup,arg", [
    ("lookup_user", "nobody-here"), ("lookup_uid", 4242),
    ("lookup_group", "nobody-here"), ("lookup_gid", 4242),
    ("shadow_for", "nobody-here"),
])
def test_a_miss_clones_nothing(userdb, clones, lookup, arg):
    assert getattr(userdb, lookup)(arg) is None
    assert clones == {}


def test_group_lists_clone_only_the_users_entry(userdb, clones):
    assert userdb.gids_for("alice") == [1000, 60]
    assert clones == {"PasswdEntry": 1}
    assert sorted(userdb.group_names_for("alice")) == ["alice", "printers"]
    assert clones == {"PasswdEntry": 2}


def test_mutating_a_returned_entry_never_changes_a_later_lookup(userdb):
    user = userdb.lookup_user("alice")
    user.shell = "/bin/evil"
    group = userdb.lookup_group("printers")
    group.members.append("mallory")
    shadow = userdb.shadow_for("bob")
    shadow.password_hash = "!"
    listed = userdb.passwd_entries()
    listed[0].uid = 4242

    assert userdb.lookup_user("alice").shell == "/bin/bash"
    assert userdb.lookup_uid(4242) is None
    assert "mallory" not in userdb.lookup_gid(60).members
    assert userdb.gids_for("mallory") == []
    assert userdb.shadow_for("bob").password_hash != "!"
