"""Protocol name -> consensus engine and client rules.

The one list of protocols: :class:`~repro.core.config.SystemConfig`
validation, the CLI's ``--protocol`` choices and the fuzz generator all
derive from :data:`ENGINES`, and the deployment reads only its
:class:`Engine` records, so adding a protocol is one entry here.
"""

from typing import Callable, NamedTuple, Type

from repro.consensus.base import ConsensusEngine
from repro.consensus.pbft import PbftReplica
from repro.consensus.poe import PoeReplica
from repro.consensus.zyzzyva import ZyzzyvaReplica
from repro.consensus.zyzzyva_client import ZyzzyvaClientGroup
from repro.core.clientmgr import ClientGroup
from repro.multi.client import RccClientGroup
from repro.multi.coordinator import InstanceCoordinator


class Engine(NamedTuple):
    """One protocol's registry entry."""

    #: ``(replica_id, replica_ids, quorum, num_primaries)`` -> the engine
    #: a replica's pipeline drives (a ``ConsensusEngine``)
    replica: Callable[..., ConsensusEngine]
    #: the client rules, built as ``client(system, index, logical_clients)``
    client: Type[ClientGroup] = ClientGroup
    #: True if ``num_primaries > 1`` runs concurrent lanes
    multi_primary: bool = False
    #: True if replicas execute before agreement completes: their logs may
    #: legitimately diverge under an equivocating primary (client
    #: certificates / view change repair it), so only client-visible
    #: replies carry the safety guarantee
    speculative: bool = False


#: insertion order is part of the contract: the fuzz generator draws
#: protocols by index, so reordering would change every campaign
ENGINES = {
    "pbft": Engine(lambda rid, ids, quorum, _m: PbftReplica(rid, ids, quorum)),
    "zyzzyva": Engine(
        lambda rid, ids, quorum, _m: ZyzzyvaReplica(rid, ids, quorum),
        ZyzzyvaClientGroup,
        speculative=True,
    ),
    "poe": Engine(
        lambda rid, ids, quorum, _m: PoeReplica(rid, ids, quorum),
        speculative=True,
    ),
    "rcc": Engine(InstanceCoordinator, RccClientGroup, multi_primary=True),
}

PROTOCOLS = tuple(ENGINES)
