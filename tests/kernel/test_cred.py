"""Unit tests for credentials."""

import dataclasses

from repro.kernel.capabilities import Capability, CapabilitySet
from repro.kernel.cred import Credentials


class TestCredentials:
    def test_root_has_full_effective_caps(self):
        cred = Credentials.for_root()
        assert cred.is_root()
        assert cred.has_cap(Capability.CAP_SYS_ADMIN)
        assert len(cred.cap_effective) == 36

    def test_user_has_no_caps(self):
        cred = Credentials.for_user(1000, 1000)
        assert not cred.is_root()
        assert not cred.has_cap(Capability.CAP_SYS_ADMIN)
        assert cred.cap_effective.is_empty()

    def test_with_uids_updates_fsuid_with_euid(self):
        cred = Credentials.for_user(1000, 1000).with_uids(euid=0)
        assert cred.euid == 0
        assert cred.fsuid == 0
        assert cred.ruid == 1000

    def test_with_uids_none_keeps_values(self):
        cred = Credentials.for_user(1000, 1000).with_uids(suid=0)
        assert cred.ruid == 1000
        assert cred.euid == 1000
        assert cred.suid == 0

    def test_with_gids(self):
        cred = Credentials.for_user(1000, 1000).with_gids(egid=24)
        assert cred.egid == 24
        assert cred.fsgid == 24
        assert cred.rgid == 1000

    def test_in_group_checks_supplementary_groups(self):
        cred = Credentials.for_user(1000, 1000, groups=[24, 27])
        assert cred.in_group(24)
        assert cred.in_group(1000)
        assert not cred.in_group(25)

    def test_drop_all_caps(self):
        cred = Credentials.for_root().drop_all_caps()
        assert cred.cap_effective.is_empty()
        assert cred.cap_permitted.is_empty()

    def test_credentials_are_immutable_snapshots(self):
        before = Credentials.for_user(1000, 1000)
        after = before.with_uids(euid=0)
        assert before.euid == 1000  # snapshot unchanged
        assert after is not before

    def test_with_caps_partial_replace(self):
        cred = Credentials.for_user(1000, 1000).with_caps(
            effective=CapabilitySet([Capability.CAP_NET_RAW])
        )
        assert cred.has_cap(Capability.CAP_NET_RAW)
        assert cred.cap_permitted.is_empty()

    def test_describe_mentions_ids(self):
        text = Credentials.for_user(1000, 100).describe()
        assert "uid=1000" in text
        assert "egid=100" in text

    def test_root_and_the_full_and_empty_sets_are_shared(self):
        assert Credentials.for_root() is Credentials.for_root()
        assert CapabilitySet.full() is CapabilitySet.full()
        assert CapabilitySet.empty() is CapabilitySet.empty()

    def test_transitions_leave_the_shared_root_unchanged(self):
        root = Credentials.for_root()
        fields = dataclasses.astuple(root)
        root_hash = hash(root)
        changed = [
            (root.drop_all_caps(),
             dataclasses.replace(root, cap_permitted=CapabilitySet(),
                                 cap_effective=CapabilitySet())),
            (root.with_uids(ruid=1000, euid=1000),
             dataclasses.replace(root, ruid=1000, euid=1000, fsuid=1000)),
            (root.with_caps(effective=CapabilitySet.empty()),
             dataclasses.replace(root, cap_effective=CapabilitySet())),
            (root.with_gids(egid=5),
             dataclasses.replace(root, egid=5, fsgid=5)),
            (root.with_groups([27]),
             dataclasses.replace(root, groups=frozenset({27}))),
        ]
        for new, expected in changed:
            assert new is not root
            assert new == expected and hash(new) == hash(expected)
        assert dataclasses.astuple(Credentials.for_root()) == fields
        assert hash(root) == root_hash
        assert list(CapabilitySet.full()) == list(Capability)
        assert CapabilitySet.empty().is_empty()
