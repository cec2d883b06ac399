"""``repro.state`` — the two-tier state architecture of §4.

A cluster has one :class:`GlobalStateStore` (the authoritative global tier,
standing in for the paper's Redis deployment; its stripes are its
partitions, resized by ``reshard``). Each host owns a
:class:`LocalTier` of replicas held in Faaslet shared memory regions, a
metered :class:`StateClient` connection to the global tier, and a
:class:`StateAPI` exposing the Tab. 2 state operations. Distributed data
objects (:mod:`repro.state.ddo`) sit on top.

Example::

    from repro.state import GlobalStateStore, LocalTier, StateAPI, StateClient

    store = GlobalStateStore()
    api = StateAPI(LocalTier("host-1", StateClient(store)))
    api.set_state("weights", b"\\x00" * 64)
    api.push_state("weights")
"""

from .api import StateAPI
from .ddo import (
    DistributedCounter,
    DistributedDict,
    DistributedList,
    DistributedObject,
    ImmutableValue,
    MatrixReadOnly,
    SparseMatrixReadOnly,
    VectorAsync,
)
from .kv import (
    GlobalStateStore,
    StateClient,
    StateKeyError,
    StateUnavailableError,
    TransferMeter,
)
from .local import LocalTier, Replica
from .rwlock import RWLock

__all__ = [
    "DistributedCounter",
    "DistributedDict",
    "DistributedList",
    "DistributedObject",
    "GlobalStateStore",
    "ImmutableValue",
    "LocalTier",
    "MatrixReadOnly",
    "RWLock",
    "Replica",
    "SparseMatrixReadOnly",
    "StateAPI",
    "StateClient",
    "StateKeyError",
    "StateUnavailableError",
    "TransferMeter",
    "VectorAsync",
]
