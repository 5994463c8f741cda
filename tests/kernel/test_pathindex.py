"""PathIndex and PathCache: bounded, path-indexed caches.

Every path-keyed cache (fast path, dcache, decision cache) used to
scan its whole table on ``invalidate_prefix``; the index keeps a
path -> keys map plus a parent -> children tree so invalidation visits
only the subtree it destroys. :class:`PathCache` is the bounded FIFO
table all three hold, with its index kept in step.
"""

from repro.kernel.pathindex import PathCache, PathIndex


def test_collect_returns_exact_and_subtree_keys():
    index = PathIndex()
    index.add("/a/b", ("k1", "/a/b"))
    index.add("/a/b/c", ("k2", "/a/b/c"))
    index.add("/a/b/c/d", ("k3", "/a/b/c/d"))
    index.add("/a/x", ("k4", "/a/x"))
    got = set(index.collect("/a/b"))
    assert got == {("k1", "/a/b"), ("k2", "/a/b/c"), ("k3", "/a/b/c/d")}
    # The sibling survives, and the collected subtree is gone.
    assert set(index.collect("/a/b")) == set()
    assert set(index.collect("/a/x")) == {("k4", "/a/x")}


def test_collect_normalizes_trailing_slash():
    index = PathIndex()
    index.add("/a/b", ("k", "/a/b"))
    assert set(index.collect("/a/b/")) == {("k", "/a/b")}


def test_multiple_keys_per_path():
    index = PathIndex()
    index.add("/p", ("stat", "/p"))
    index.add("/p", ("open", "/p"))
    assert set(index.collect("/p")) == {("stat", "/p"), ("open", "/p")}


def test_discard_removes_single_key():
    index = PathIndex()
    index.add("/p/q", ("a",))
    index.add("/p/q", ("b",))
    index.discard("/p/q", ("a",))
    assert set(index.collect("/p")) == {("b",)}
    # Discarding a key that is not there is a no-op.
    index.discard("/nowhere", ("c",))


def test_non_slash_objects_are_exact_match_only():
    """Objects that aren't paths (capability keys, ports) have no
    parent chain: a prefix collect on an unrelated root must not see
    them, an exact collect must."""
    index = PathIndex()
    index.add("cap:net_admin", ("k",))
    assert set(index.collect("/")) == set()
    assert set(index.collect("cap:net_admin")) == {("k",)}


def test_root_collect_drains_everything():
    index = PathIndex()
    for i in range(10):
        index.add(f"/d{i % 3}/f{i}", (i,))
    assert set(index.collect("/")) == {(i,) for i in range(10)}
    assert len(index) == 0


def test_clear_and_len():
    index = PathIndex()
    index.add("/a", (1,))
    index.add("/a/b", (2,))
    assert len(index) == 2
    index.clear()
    assert len(index) == 0
    assert set(index.collect("/a")) == set()


def test_interior_node_without_keys_still_links_children():
    index = PathIndex()
    index.add("/top/mid/leaf", ("k",))
    # /top/mid has no keys of its own but must still be traversable.
    assert set(index.collect("/top/mid")) == {("k",)}


def test_collect_unlinks_from_parent():
    index = PathIndex()
    index.add("/r/a/1", ("a1",))
    index.add("/r/b/1", ("b1",))
    index.collect("/r/a")
    # Collecting the parent afterwards must not revisit the dead
    # subtree, and must still find the live one.
    assert set(index.collect("/r")) == {("b1",)}


def _index_keys(cache):
    return {key for group in cache.index._keys.values() for key in group}


def test_path_cache_evicts_in_fifo_order_at_capacity():
    cache = PathCache(3)
    keys = [("op", f"/f{i}") for i in range(5)]
    for i, key in enumerate(keys[:3]):
        cache.put(key, i)
    # A hit does not reorder: the first insert is still the oldest.
    assert cache.get(keys[0]) == 0
    cache.put(keys[3], 3)
    assert list(cache) == keys[1:4]
    cache.put(keys[4], 4)
    assert list(cache) == keys[2:5]


def test_path_cache_eviction_leaves_no_key_in_the_index():
    cache = PathCache(2)
    for i in range(6):
        cache.put(("op", f"/d/f{i}"), i)
        assert _index_keys(cache) == set(cache)
    assert cache.invalidate_prefix("/d") == 2
    assert len(cache) == 0 and len(cache.index) == 0


def test_path_cache_reput_of_a_held_key_evicts_nothing():
    cache = PathCache(2)
    cache.put(("op", "/a"), 1)
    cache.put(("op", "/b"), 2)
    cache.put(("op", "/a"), 3)
    assert list(cache.items()) == [(("op", "/a"), 3), (("op", "/b"), 2)]
    assert _index_keys(cache) == set(cache)


def test_path_cache_invalidate_prefix_returns_the_dropped_count():
    cache = PathCache(8)
    assert cache.invalidate_prefix("/") == 0  # empty table: no-op
    cache.put(("stat", "/a/b"), 1)
    cache.put(("open", "/a/b"), 2)
    cache.put(("stat", "/a/b/c"), 3)
    cache.put(("stat", "/a/x"), 4)
    cache.put(("capable", "cap:CAP_CHOWN"), 5)
    assert cache.invalidate_prefix("/a/b") == 3
    assert list(cache) == [("stat", "/a/x"), ("capable", "cap:CAP_CHOWN")]
    assert cache.invalidate_prefix("/a/b") == 0
    assert _index_keys(cache) == set(cache)


def test_path_cache_clear_empties_table_and_index():
    cache = PathCache(4)
    cache.put(("op", "/a"), 1)
    cache.clear()
    assert len(cache) == 0 and len(cache.index) == 0
    assert cache.invalidate_prefix("/a") == 0
