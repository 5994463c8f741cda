"""Unit tests for the capability model."""

import pytest

from repro.kernel.capabilities import (
    Capability,
    CapabilitySet,
    PASSWORD_CHANGE_CAPS,
    VIDEO_MODE_CAPS,
)


class TestCapabilitySet:
    def test_full_set_has_36_capabilities(self):
        assert len(CapabilitySet.full()) == 36

    def test_empty_set(self):
        caps = CapabilitySet.empty()
        assert caps.is_empty()
        assert not caps.has(Capability.CAP_SYS_ADMIN)

    def test_has_accepts_plain_ints_and_rejects_unknown_ones(self):
        assert CapabilitySet.full().has(int(Capability.CAP_SYS_ADMIN))
        assert not CapabilitySet.empty().has(int(Capability.CAP_SYS_ADMIN))
        with pytest.raises(ValueError):
            CapabilitySet.full().has(99)

    def test_add_is_functional_not_mutating(self):
        base = CapabilitySet.empty()
        extended = base.add(Capability.CAP_NET_RAW)
        assert not base.has(Capability.CAP_NET_RAW)
        assert extended.has(Capability.CAP_NET_RAW)

    def test_drop(self):
        caps = CapabilitySet.full().drop(Capability.CAP_SYS_ADMIN)
        assert not caps.has(Capability.CAP_SYS_ADMIN)
        assert len(caps) == 35

    def test_union_and_intersection(self):
        a = CapabilitySet([Capability.CAP_CHOWN, Capability.CAP_SETUID])
        b = CapabilitySet([Capability.CAP_SETUID, Capability.CAP_NET_RAW])
        assert len(a.union(b)) == 3
        assert list(a.intersection(b)) == [Capability.CAP_SETUID]

    def test_contains_and_iter_sorted(self):
        caps = CapabilitySet([Capability.CAP_NET_RAW, Capability.CAP_CHOWN])
        assert Capability.CAP_CHOWN in caps
        assert list(caps) == [Capability.CAP_CHOWN, Capability.CAP_NET_RAW]

    def test_equality_and_hash(self):
        a = CapabilitySet([Capability.CAP_CHOWN])
        b = CapabilitySet([Capability.CAP_CHOWN])
        assert a == b
        assert hash(a) == hash(b)
        assert a != CapabilitySet.empty()

    def test_repr_mentions_members(self):
        assert "CAP_CHOWN" in repr(CapabilitySet([Capability.CAP_CHOWN]))
        assert "empty" in repr(CapabilitySet.empty())


class TestPaperCapabilityFacts:
    """Claims from section 3.2 encoded as data."""

    def test_password_change_needs_six_capabilities(self):
        assert len(PASSWORD_CHANGE_CAPS) == 6
        assert Capability.CAP_SYS_ADMIN in PASSWORD_CHANGE_CAPS

    def test_video_mode_needs_four_capabilities(self):
        assert len(VIDEO_MODE_CAPS) == 4
        assert Capability.CAP_SYS_RAWIO in VIDEO_MODE_CAPS

    @pytest.mark.parametrize("cap", list(Capability))
    def test_every_capability_roundtrips_by_value(self, cap):
        assert Capability(int(cap)) is cap
