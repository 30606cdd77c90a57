"""Protocol name -> consensus engine factory.

The one list of protocols: :class:`~repro.core.config.SystemConfig`
validation, the CLI's ``--protocol`` choices and the fuzz generator all
derive from :data:`ENGINES`.  Each factory takes ``(replica_id,
replica_ids, quorum, num_primaries)`` and returns an engine implementing
:class:`~repro.consensus.base.ConsensusEngine`.
"""

from repro.consensus.pbft import PbftReplica
from repro.consensus.poe import PoeReplica
from repro.consensus.zyzzyva import ZyzzyvaReplica
from repro.multi.coordinator import InstanceCoordinator

#: insertion order is part of the contract: the fuzz generator draws
#: protocols by index, so reordering would change every campaign
ENGINES = {
    "pbft": lambda rid, ids, quorum, _m: PbftReplica(rid, ids, quorum),
    "zyzzyva": lambda rid, ids, quorum, _m: ZyzzyvaReplica(rid, ids, quorum),
    "poe": lambda rid, ids, quorum, _m: PoeReplica(rid, ids, quorum),
    "rcc": InstanceCoordinator,
}

PROTOCOLS = tuple(ENGINES)
