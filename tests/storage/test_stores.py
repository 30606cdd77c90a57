"""Tests for the in-memory and SQLite record stores."""

import pytest

from repro.consensus.messages import ClientRequest
from repro.core.config import SystemConfig
from repro.core.host import execution_charge
from repro.storage import STORAGE_COSTS, InMemoryKVStore, SqliteKVStore
from repro.workloads import Operation, OpType, Transaction


@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    if request.param == "memory":
        yield InMemoryKVStore()
    else:
        sql_store = SqliteKVStore()
        yield sql_store
        sql_store.close()


def test_read_missing_returns_none(store):
    assert store.read("nope") is None
    # a miss still costs the execute-thread a probe on this backend
    read_ns, _ = STORAGE_COSTS.op_costs(store.name)
    assert read_ns > 0


def test_write_then_read(store):
    assert store.write("user1", "alice") is None
    assert store.read("user1") == "alice"


def test_overwrite(store):
    store.write("k", "v1")
    store.write("k", "v2")
    assert store.read("k") == "v2"
    assert store.size() == 1


def test_preload_and_size(store):
    store.preload({f"key{i}": f"value{i}" for i in range(100)})
    assert store.size() == 100
    assert store.read("key42") == "value42"


def test_access_counters(store):
    store.write("a", "1")
    store.read("a")
    store.read("b")
    assert store.writes == 1
    assert store.reads == 2


def test_cost_gap_reproduces_off_memory_penalty():
    """The Fig. 14 premise: SQLite access is orders of magnitude dearer,
    and the execute-thread's charge carries the whole gap."""
    memory_read, memory_write = STORAGE_COSTS.op_costs("memory")
    sqlite_read, sqlite_write = STORAGE_COSTS.op_costs("sqlite")
    assert sqlite_read > 100 * memory_read
    assert sqlite_write > 100 * memory_write
    request = ClientRequest("c", 0, (Transaction("c", (
        Operation(OpType.WRITE, "k", "v"), Operation(OpType.READ, "k"),
    )),))
    memory_ns, _ = execution_charge(SystemConfig(num_replicas=4), [request])
    sqlite_ns, _ = execution_charge(
        SystemConfig(num_replicas=4, storage_backend="sqlite"), [request]
    )
    assert sqlite_ns - memory_ns == (
        (sqlite_read - memory_read) + (sqlite_write - memory_write)
    )


def test_sqlite_persists_to_disk(tmp_path):
    path = str(tmp_path / "chain.db")
    store = SqliteKVStore(path=path)
    store.write("durable", "yes")
    store.close()
    reopened = SqliteKVStore(path=path)
    try:
        assert reopened.read("durable") == "yes"
    finally:
        reopened.close()


# ----------------------------------------------------------------------
# copy-on-write in-memory store
# ----------------------------------------------------------------------
BASE = {f"user{i}": f"v0:{i}" for i in range(10)}


def _store_on(base):
    store = InMemoryKVStore()
    store.preload(base)
    return store


def test_stores_sharing_a_base_never_see_each_others_writes():
    left, right = _store_on(BASE), _store_on(BASE)
    left.write("user1", "left")
    right.write("new", "right")
    assert left.read("user1") == "left"
    assert right.read("user1") == "v0:1"
    assert left.read("new") is None
    assert right.read("new") == "right"
    assert BASE["user1"] == "v0:1" and "new" not in BASE


def test_size_counts_each_new_key_once():
    store = _store_on(BASE)
    store.write("user3", "overwritten")  # shadows a base key
    store.write("fresh", "a")
    store.write("fresh", "b")
    assert store.size() == len(BASE) + 1


def test_preload_needs_an_empty_store():
    store = _store_on(BASE)
    with pytest.raises(ValueError):
        store.preload(BASE)


def test_snapshot_restore_round_trips_without_aliasing():
    peer = _store_on(BASE)
    peer.write("user2", "peer")
    peer.write("extra", "x")
    snapshot = peer.snapshot()
    peer.write("user4", "after-snapshot")  # later writes stay out of it

    recovered = InMemoryKVStore()
    recovered.write("stale", "gone")
    recovered.restore(snapshot)
    assert recovered.read("user2") == "peer"
    assert recovered.read("extra") == "x"
    assert recovered.read("user4") == "v0:4"
    assert recovered.read("stale") is None
    assert recovered.size() == len(BASE) + 1

    recovered.write("user5", "mine")
    assert peer.read("user5") == "v0:5"
    assert recovered.differing_keys(peer) == {"user4", "user5"}
    second = InMemoryKVStore()
    second.restore(snapshot)  # one snapshot can seed several stores
    assert second.read("user5") == "v0:5"


def test_differing_keys_catches_a_one_key_divergence():
    left, right = _store_on(BASE), _store_on(BASE)
    for store in (left, right):
        store.write("user1", "same")
        store.write("new", "same")
    assert left.differing_keys(right) == set()
    right.write("user7", "diverged")
    assert left.differing_keys(right) == {"user7"}
    assert right.differing_keys(left) == {"user7"}


def test_writing_the_base_value_back_is_not_a_divergence():
    left, right = _store_on(BASE), _store_on(BASE)
    left.write("user6", BASE["user6"])
    assert left.differing_keys(right) == set()


def test_differing_keys_across_distinct_bases():
    left = _store_on(BASE)
    right = _store_on(dict(BASE))  # equal contents, another object
    assert left.differing_keys(right) == set()
    other = dict(BASE, user9="other")
    assert left.differing_keys(_store_on(other)) == {"user9"}


def test_sqlite_store_ships_no_snapshot():
    store = SqliteKVStore()
    try:
        store.preload(BASE)
        assert store.snapshot() is None
        assert store.size() == len(BASE)
    finally:
        store.close()
