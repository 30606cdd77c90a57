"""Tests for the YCSB workload, Zipfian keys and transactions."""

import copy
import pickle

import pytest

from repro.sim.rng import DeterministicRNG
from repro.workloads import (
    Operation,
    OpType,
    Transaction,
    UniformGenerator,
    YCSBWorkload,
    ZipfianGenerator,
)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def test_zipfian_keys_in_range():
    generator = ZipfianGenerator(1000, DeterministicRNG(1))
    keys = [generator.next_key() for _ in range(5000)]
    assert all(0 <= key < 1000 for key in keys)


def test_zipfian_is_skewed_toward_low_keys():
    generator = ZipfianGenerator(10_000, DeterministicRNG(2), theta=0.99)
    keys = [generator.next_key() for _ in range(20_000)]
    hot = sum(1 for key in keys if key < 100)  # 1% of the keyspace
    assert hot > 0.3 * len(keys)  # gets far more than 1% of accesses


def test_zipfian_low_theta_flattens():
    skewed = ZipfianGenerator(10_000, DeterministicRNG(3), theta=0.99)
    flat = ZipfianGenerator(10_000, DeterministicRNG(3), theta=0.1)
    hot_skewed = sum(1 for _ in range(10_000) if skewed.next_key() < 100)
    hot_flat = sum(1 for _ in range(10_000) if flat.next_key() < 100)
    assert hot_skewed > 2 * hot_flat


def test_uniform_covers_keyspace():
    generator = UniformGenerator(100, DeterministicRNG(4))
    keys = {generator.next_key() for _ in range(5000)}
    assert len(keys) > 90


def test_generator_validation():
    rng = DeterministicRNG(0)
    with pytest.raises(ValueError):
        ZipfianGenerator(0, rng)
    with pytest.raises(ValueError):
        ZipfianGenerator(10, rng, theta=1.5)
    with pytest.raises(ValueError):
        UniformGenerator(0, rng)


def test_zeta_is_exactly_rounded():
    """The 600K-record constant is the same on every Python version (plain
    float ``sum()`` changed to compensated summation in 3.12)."""
    assert ZipfianGenerator._zeta(600_000, 0.99) == 14.806839298716685


def test_generators_deterministic():
    first = ZipfianGenerator(1000, DeterministicRNG(7))
    second = ZipfianGenerator(1000, DeterministicRNG(7))
    assert [first.next_key() for _ in range(100)] == [
        second.next_key() for _ in range(100)
    ]


# ----------------------------------------------------------------------
# transactions
# ----------------------------------------------------------------------
def test_transaction_requires_ops():
    with pytest.raises(ValueError):
        Transaction(client_id="c", ops=())


def test_write_requires_value():
    with pytest.raises(ValueError):
        Operation(OpType.WRITE, "key")


def test_wire_bytes_accounts_ops_and_padding():
    txn = Transaction(
        client_id="c",
        ops=(Operation(OpType.WRITE, "key1", "value1"),),
        padding_bytes=500,
    )
    bare = Transaction(
        client_id="c", ops=(Operation(OpType.WRITE, "key1", "value1"),)
    )
    assert txn.wire_bytes() == bare.wire_bytes() + 500


def test_operation_is_a_frozen_hashable_value_record():
    op = Operation(OpType.WRITE, "k", "v")
    same = Operation(OpType.WRITE, "k", "v")
    assert op == same and hash(op) == hash(same)
    assert op != Operation(OpType.WRITE, "k", "w")
    assert len({op, same, Operation(OpType.READ, "k")}) == 2
    assert not hasattr(op, "__dict__")
    with pytest.raises(AttributeError):
        op.key = "other"
    with pytest.raises(AttributeError):
        del op.value
    assert repr(op) == (
        "Operation(op_type=<OpType.WRITE: 'write'>, key='k', value='v')"
    )
    assert copy.copy(op) == op
    assert pickle.loads(pickle.dumps(op)) == op


def test_transaction_is_a_mutable_value_record():
    ops = (Operation(OpType.READ, "k"),)
    txn = Transaction("c", ops, padding_bytes=8)
    assert txn == Transaction("c", ops, 8)
    assert txn != Transaction("c", ops)
    assert not hasattr(txn, "__dict__")
    with pytest.raises(TypeError):
        hash(txn)
    with pytest.raises(AttributeError):
        txn.txn_id = 1  # no per-transaction id: its batch's sequence names it
    assert repr(txn) == f"Transaction(client_id='c', ops={ops!r}, padding_bytes=8)"
    assert pickle.loads(pickle.dumps(txn)) == txn


def test_canonical_bytes_distinguish_content():
    one = Transaction("c", (Operation(OpType.WRITE, "k", "v1"),))
    two = Transaction("c", (Operation(OpType.WRITE, "k", "v2"),))
    assert one.canonical_bytes() != two.canonical_bytes()


# ----------------------------------------------------------------------
# YCSB workload
# ----------------------------------------------------------------------
def test_initial_table_size_and_shape():
    workload = YCSBWorkload(DeterministicRNG(1), record_count=100)
    table = workload.initial_table()
    assert len(table) == 100
    assert "user0" in table and "user99" in table
    assert all(len(value) >= 100 for value in table.values())


def test_lazy_table_matches_eager_dict():
    workload = YCSBWorkload(DeterministicRNG(1), record_count=50, value_bytes=24)
    table = workload.initial_table()
    eager = {workload.key_name(i): workload._initial_value(i) for i in range(50)}
    assert table == eager
    assert list(table) == list(eager)
    assert list(table.items()) == list(eager.items())
    for key in eager:
        assert table[key] == eager[key] and key in table
    misses = [
        "user50", "user007", "user-1", "user+7", "user 7", "user1_0", "user",
        "user600000", "usr1", "", "user٣", 3, None, b"user3",
    ]
    for key in misses:
        assert table.get(key) is None and eager.get(key) is None
        assert key not in table
        with pytest.raises(KeyError):
            table[key]


def test_write_only_by_default():
    workload = YCSBWorkload(DeterministicRNG(1), record_count=100, ops_per_txn=3)
    txn = workload.next_transaction("client0")
    assert txn.op_count == 3
    assert all(op.op_type is OpType.WRITE for op in txn.ops)


def test_read_fraction_respected():
    workload = YCSBWorkload(
        DeterministicRNG(1), record_count=100, write_fraction=0.0
    )
    txn = workload.next_transaction("client0")
    assert all(op.op_type is OpType.READ for op in txn.ops)


def test_keys_reference_table():
    workload = YCSBWorkload(DeterministicRNG(1), record_count=50)
    table = workload.initial_table()
    for _ in range(100):
        txn = workload.next_transaction("client0")
        for op in txn.ops:
            assert op.key in table


def test_padding_propagates():
    workload = YCSBWorkload(DeterministicRNG(1), record_count=10, padding_bytes=640)
    txn = workload.next_transaction("client0")
    assert txn.padding_bytes == 640


def test_workload_validation():
    rng = DeterministicRNG(0)
    with pytest.raises(ValueError):
        YCSBWorkload(rng, record_count=0)
    with pytest.raises(ValueError):
        YCSBWorkload(rng, ops_per_txn=0)
    with pytest.raises(ValueError):
        YCSBWorkload(rng, write_fraction=1.5)
