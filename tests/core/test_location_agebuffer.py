"""SharedLocationSpec validation and AgeBuffer semantics."""

import pytest

from repro.core import AgeBuffer, SharedLocationSpec, VersionedValue


class TestSpec:
    def test_valid_spec(self):
        spec = SharedLocationSpec("migrants.0", writer=0, readers=(1, 2), value_nbytes=100)
        assert spec.readers == (1, 2)

    def test_writer_in_readers_rejected(self):
        with pytest.raises(ValueError, match="reader set"):
            SharedLocationSpec("x", writer=0, readers=(0, 1))

    def test_duplicate_readers_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SharedLocationSpec("x", writer=0, readers=(1, 1))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            SharedLocationSpec("", writer=0, readers=(1,))

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            SharedLocationSpec("x", writer=0, readers=(1,), value_nbytes=0)

    def test_empty_reader_set_allowed(self):
        # a location nobody reads is legal (e.g. instrumentation)
        spec = SharedLocationSpec("x", writer=0, readers=())
        assert spec.readers == ()


class TestVersionedValue:
    def test_newer_comparison(self):
        old = VersionedValue(1, age=3, write_time=0.0)
        new = VersionedValue(2, age=4, write_time=1.0)
        assert new.is_newer_than(old)
        assert not old.is_newer_than(new)
        assert old.is_newer_than(None)

    def test_equal_age_is_not_newer(self):
        a = VersionedValue(1, age=3, write_time=0.0)
        b = VersionedValue(2, age=3, write_time=1.0)
        assert not b.is_newer_than(a)


class TestAgeBuffer:
    def test_update_and_get(self):
        buf = AgeBuffer(owner=1)
        assert buf.get("x") is None
        assert buf.update("x", "v1", age=1, write_time=0.0, now=0.5)
        assert buf.get("x").value == "v1"
        assert buf.get("x").age == 1
        assert "x" in buf and len(buf) == 1

    def test_newer_replaces_older(self):
        buf = AgeBuffer(owner=1)
        buf.update("x", "v1", age=1, write_time=0.0, now=0.5)
        assert buf.update("x", "v3", age=3, write_time=1.0, now=1.5)
        assert buf.get("x").value == "v3"
        assert buf.updates_applied == 2

    def test_stale_arrival_dropped(self):
        """Out-of-order arrival with smaller age never regresses the copy."""
        buf = AgeBuffer(owner=1)
        buf.update("x", "v5", age=5, write_time=2.0, now=2.5)
        assert not buf.update("x", "v2", age=2, write_time=0.5, now=2.6)
        assert buf.get("x").value == "v5"
        assert buf.updates_dropped_stale == 1

    def test_refresh_fires_signal(self):
        buf = AgeBuffer(owner=1)
        fired = []

        class Probe:
            def fire(self):
                fired.append(True)

        buf.refresh_signal = Probe()
        buf.update("x", "v", age=1, write_time=0.0, now=0.0)
        assert fired == [True]
        # a stale drop must not fire
        buf.update("x", "old", age=0, write_time=0.0, now=0.1)
        assert fired == [True]

    def test_locations_are_independent(self):
        buf = AgeBuffer(owner=1)
        buf.update("x", 1, age=10, write_time=0.0, now=0.0)
        buf.update("y", 2, age=1, write_time=0.0, now=0.0)
        assert buf.get("x").age == 10
        assert buf.get("y").age == 1
