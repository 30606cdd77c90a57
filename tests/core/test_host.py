"""The replica's host rules, driven with plain requests and no simulator.

:class:`~repro.core.host.HostRules` decides what happens to a client
request's key — admit, undo, sequence, forward, execute, clear, adopt —
so these tests need no deployment.  The last tests pin the layout that
keeps it that way.
"""

import ast
import pathlib

from repro.consensus.base import QuorumConfig
from repro.consensus.messages import ClientRequest, RequestBatch
from repro.consensus.pbft import PbftReplica
from repro.core.dedup import RequestKeySet
from repro.core.host import (
    DUPLICATE,
    HostRules,
    apply_operations,
    execution_charge,
)
from repro.core.config import WORK_COSTS, SystemConfig
from repro.flow import AdmissionController
from repro.storage.base import STORAGE_COSTS
from repro.storage.memstore import InMemoryKVStore
from repro.workloads import Operation, OpType, Transaction

CORE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
NUM_CLIENTS = 16


def request(sender="client0", request_id=0, ops=1):
    txn = Transaction(
        sender,
        tuple(Operation(OpType.WRITE, f"k{request_id}.{i}", "v") for i in range(ops)),
    )
    return ClientRequest(sender, request_id, (txn,))


def rules(**limits) -> HostRules:
    return HostRules(AdmissionController(**limits), 4 * NUM_CLIENTS)


# ----------------------------------------------------------------------
# admission and its one undo path
# ----------------------------------------------------------------------
def test_a_retransmission_is_a_duplicate_until_undone():
    host = rules()
    assert host.admit(request(request_id=7)) is None
    assert host.admit(request(request_id=7)) is DUPLICATE
    # other ids and other senders are unaffected
    assert host.admit(request(request_id=8)) is None
    assert host.admit(request("client1", request_id=7)) is None
    host.undo(request(request_id=7))
    assert host.admit(request(request_id=7)) is None


def test_a_refusal_records_nothing_and_undo_frees_the_budget():
    host = rules(max_per_client=1)
    assert host.admit(request(request_id=0)) is None
    assert host.admit(request(request_id=1)) == "client"
    assert not host.was_admitted("client0", 1)
    # undoing request 0 gives back its key and its budget
    host.undo(request(request_id=0))
    assert host.admit(request(request_id=1)) is None


def test_sequenced_keys_are_tracked_for_the_shed_tripwire():
    host = rules()
    batch = [request(request_id=i) for i in range(3)]
    host.mark_sequenced(batch[:2])
    assert [host.was_sequenced("client0", i) for i in range(3)] == [
        True, True, False,
    ]


# ----------------------------------------------------------------------
# clearing on a stable checkpoint
# ----------------------------------------------------------------------
def test_dedup_state_clears_above_four_keys_per_client():
    host = rules()
    limit = host.dedup_limit
    senders = [f"client{i}" for i in range(4)]
    for request_id in range(limit):
        message = request(senders[request_id % len(senders)], request_id)
        assert host.admit(message) is None
        host.mark_sequenced([message])
    host.gc()
    # exactly at the limit: nothing is cleared yet
    assert host.admit(request("client0", 0)) is DUPLICATE
    assert host.was_sequenced("client0", 0)

    # one key more trips the clear, for both sets
    extra = request("client0", limit)
    assert host.admit(extra) is None
    host.mark_sequenced([extra])
    host.gc()
    assert not host.was_sequenced("client0", 0)
    assert not host.was_sequenced("client0", limit)
    # a cleared key is admitted again, as with the old set
    assert host.admit(request("client0", 0)) is None


def test_discarded_keys_do_not_count_towards_the_clear():
    host = rules()
    limit = host.dedup_limit
    for request_id in range(limit + 1):
        assert host.admit(request(request_id=request_id)) is None
    host.undo(request(request_id=0))
    host.gc()
    assert host.was_admitted("client0", limit)


def test_gc_empties_the_forwarded_cache():
    host = rules()
    host.remember_forwarded(request(request_id=1))
    host.gc()
    assert host.forwarded_keys() == []


# ----------------------------------------------------------------------
# forwarding, execution and view-entry carry-over
# ----------------------------------------------------------------------
def test_executed_returns_the_fresh_requests_and_drops_them_from_the_cache():
    host = rules()
    first, second = request(request_id=1), request(request_id=2)
    for message in (first, second, first):  # a retransmission, forwarded again
        host.remember_forwarded(message)
    assert host.forwarded_keys() == [("client0", 1), ("client0", 2)]
    batch = (first,)
    assert host.executed(batch) is batch
    assert host.executed((first, second)) == [second]
    assert host.was_executed("client0", 1) and host.was_executed("client0", 2)
    assert host.forwarded_keys() == []


def test_carry_over_skips_executed_and_held_requests():
    host = rules()
    executed, held, fresh, elsewhere = (
        ClientRequest("client0", i, ()) for i in range(4)
    )
    for message in (executed, held, fresh, elsewhere):
        host.remember_forwarded(message)
    host.executed([executed])
    # r1 leads view 1 of a sans-I/O PBFT engine and holds a batch in it
    engine = PbftReplica("r1", ("r0", "r1", "r2", "r3"), QuorumConfig(n=4, f=1))
    engine.view = 1
    batch = RequestBatch((held,))
    batch.digest = "d-held"
    engine.make_preprepare(1, batch.digest, batch)

    def leader_of(sender, request_id):
        return "r2" if request_id == 3 else engine.forward_target(sender, request_id)

    candidates = host.carry_over_candidates(leader_of, "r1", engine.open_batches())
    assert candidates == [fresh]


def test_adopting_a_state_installs_its_executed_keys():
    host = rules()
    host.remember_forwarded(request(request_id=4))
    transferred = RequestKeySet()
    transferred.add("client3", 9)
    host.adopt(transferred)
    assert host.was_executed("client3", 9)
    assert host.forwarded_keys() == []
    # a response without keys keeps the replica's own
    host.adopt(None)
    assert host.was_executed("client3", 9)


# ----------------------------------------------------------------------
# the execute-thread's pure halves
# ----------------------------------------------------------------------
def test_execution_charge_prices_each_op_by_kind():
    config = SystemConfig(num_replicas=4, num_clients=NUM_CLIENTS)
    read_ns, write_ns = STORAGE_COSTS.op_costs(config.storage_backend)
    op_ns = WORK_COSTS.execute_op_ns
    mixed = ClientRequest("c", 0, (Transaction("c", (
        Operation(OpType.WRITE, "a", "1"), Operation(OpType.READ, "a"),
    )),))
    assert execution_charge(config, (mixed, request(ops=2))) == (
        4 * op_ns + 3 * write_ns + read_ns, 4,
    )
    assert execution_charge(config, ()) == (0, 0)


def test_apply_operations_writes_in_order():
    store = InMemoryKVStore()
    first = ClientRequest("c", 0, (Transaction("c", (
        Operation(OpType.WRITE, "a", "1"), Operation(OpType.READ, "a"),
    )),))
    second = ClientRequest("c", 1, (Transaction("c", (
        Operation(OpType.WRITE, "a", "2"),
    )),))
    apply_operations(store, (first, second))
    assert store.read("a") == "2"


# ----------------------------------------------------------------------
# layout: small core modules, and host rules that never see the clock
# ----------------------------------------------------------------------
def test_no_core_module_is_over_500_lines():
    sizes = {
        path.name: len(path.read_text(encoding="utf-8").splitlines())
        for path in CORE.glob("*.py")
    }
    assert {name: n for name, n in sizes.items() if n > 500} == {}


def test_the_host_rules_import_nothing_from_the_simulator():
    imported = set()
    for name in ("host.py", "ledger.py"):
        tree = ast.parse((CORE / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
    assert imported and not {
        name for name in imported
        if name == "repro.sim" or name.startswith("repro.sim.")
    }
