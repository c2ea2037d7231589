"""Tests for logical files, storage elements and the replica catalog."""

import pytest

from repro.grid.storage import LogicalFile, ReplicaCatalog, StorageElement, UnknownFileError


class TestLogicalFile:
    def test_requires_gfn(self):
        with pytest.raises(ValueError):
            LogicalFile(gfn="")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LogicalFile(gfn="gfn://x", size=-1)

    def test_fresh_mints_unique_names(self):
        a = LogicalFile.fresh("out", 10)
        b = LogicalFile.fresh("out", 10)
        assert a.gfn != b.gfn
        assert a.gfn.startswith("gfn://out/")


class TestStorageElement:
    def test_holds_after_add(self):
        se = StorageElement("se0", site="s0")
        assert not se.holds("gfn://a")
        se.add("gfn://a")
        assert se.holds("gfn://a")
        assert se.file_count == 1

    def test_requires_name(self):
        with pytest.raises(ValueError):
            StorageElement("", site="s0")


class TestReplicaCatalog:
    def test_register_and_lookup(self):
        catalog = ReplicaCatalog()
        se = StorageElement("se0", site="s0")
        file = LogicalFile("gfn://a", size=100)
        catalog.register(file, se)
        assert catalog.lookup("gfn://a") == file
        assert catalog.knows("gfn://a")
        assert se.holds("gfn://a")

    def test_unknown_lookup_raises(self):
        with pytest.raises(UnknownFileError):
            ReplicaCatalog().lookup("gfn://missing")

    def test_unknown_replicas_raises(self):
        with pytest.raises(UnknownFileError):
            ReplicaCatalog().replicas("gfn://missing")

    def test_size_conflict_rejected(self):
        catalog = ReplicaCatalog()
        se = StorageElement("se0", site="s0")
        catalog.register(LogicalFile("gfn://a", size=100), se)
        with pytest.raises(ValueError):
            catalog.register(LogicalFile("gfn://a", size=200), se)

    def test_multiple_replicas(self):
        catalog = ReplicaCatalog()
        se0 = StorageElement("se0", site="s0")
        se1 = StorageElement("se1", site="s1")
        file = LogicalFile("gfn://a")
        catalog.register(file, se0)
        catalog.register(file, se1)
        assert {se.name for se in catalog.replicas("gfn://a")} == {"se0", "se1"}

    def test_duplicate_replica_not_doubled(self):
        catalog = ReplicaCatalog()
        se = StorageElement("se0", site="s0")
        file = LogicalFile("gfn://a")
        catalog.register(file, se)
        catalog.register(file, se)
        assert len(catalog.replicas("gfn://a")) == 1

    def test_closest_replica_prefers_same_site(self):
        catalog = ReplicaCatalog()
        remote = StorageElement("se-remote", site="far")
        local = StorageElement("se-local", site="here")
        file = LogicalFile("gfn://a")
        catalog.register(file, remote)
        catalog.register(file, local)
        assert catalog.closest_replica("gfn://a", "here") is local

    def test_closest_replica_deterministic_when_all_remote(self):
        catalog = ReplicaCatalog()
        se_b = StorageElement("se-b", site="s1")
        se_a = StorageElement("se-a", site="s2")
        file = LogicalFile("gfn://a")
        catalog.register(file, se_b)
        catalog.register(file, se_a)
        assert catalog.closest_replica("gfn://a", "elsewhere").name == "se-a"

    def test_gfns_sorted(self):
        catalog = ReplicaCatalog()
        se = StorageElement("se0", site="s0")
        catalog.register(LogicalFile("gfn://b"), se)
        catalog.register(LogicalFile("gfn://a"), se)
        assert list(catalog.gfns()) == ["gfn://a", "gfn://b"]
        assert len(catalog) == 2


class TestSizeInterning:
    def test_float_size_interned_to_int(self):
        file = LogicalFile("gfn://x", size=7864320.0)
        assert isinstance(file.size, int)
        assert file.size == 7864320

    def test_fractional_size_rounds(self):
        assert LogicalFile("gfn://x", size=10.6).size == 11

    def test_int_size_untouched(self):
        assert LogicalFile("gfn://x", size=42).size == 42


class TestReplicaSelection:
    def test_closest_replica_unknown_file(self):
        with pytest.raises(UnknownFileError):
            ReplicaCatalog().closest_replica("gfn://missing", "anywhere")

    def test_unknown_file_error_is_a_key_error(self):
        # callers using dict-style handling keep working
        with pytest.raises(KeyError):
            ReplicaCatalog().lookup("gfn://missing")

    def test_same_site_beats_lexicographically_smaller_remote(self):
        catalog = ReplicaCatalog()
        remote = StorageElement("se-aaa", site="far")
        local = StorageElement("se-zzz", site="here")
        file = LogicalFile("gfn://a")
        catalog.register(file, remote)
        catalog.register(file, local)
        assert catalog.closest_replica("gfn://a", "here") is local


class TestCatalogObservers:
    def test_observers_fire_on_register(self):
        catalog = ReplicaCatalog()
        se = StorageElement("se0", site="s0")
        seen = []
        catalog.add_observer(lambda file, element: seen.append((file.gfn, element.name)))
        catalog.register(LogicalFile("gfn://a"), se)
        assert seen == [("gfn://a", "se0")]
