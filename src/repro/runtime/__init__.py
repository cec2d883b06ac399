"""``repro.runtime`` — the FAASM serverless runtime (§5).

Compose a cluster, upload functions, invoke them::

    from repro.runtime import FaasmCluster

    cluster = FaasmCluster(n_hosts=2)
    cluster.upload("hello", '''
        extern void write_call_output(int buf, int len);
        export int main() {
            int[] msg = new int[2];
            storeb(ptr(msg), 104); storeb(ptr(msg) + 1, 105);
            write_call_output(ptr(msg), 2);
            return 0;
        }
    ''')
    code, output = cluster.invoke("hello")
"""

from .bus import ExecuteBatch, MessageBus, Shutdown
from .calls import (
    AttemptRecord,
    CallRecord,
    CallStatus,
    InvocationRegistry,
)
from .cluster import DrainTimeout, FaasmCluster
from .instance import (
    DEFAULT_CAPACITY,
    FaasmRuntimeInstance,
    HostCrashed,
    RuntimeEnvironment,
)
from .monitor import InvocationMonitor, RetryPolicy
from .pyguest import PythonCallContext
from .registry import FunctionRegistry, PythonFunctionDefinition
from .scheduler import LocalScheduler, SchedulingDecision, WarmSetRegistry

__all__ = [
    "AttemptRecord",
    "CallRecord",
    "CallStatus",
    "DEFAULT_CAPACITY",
    "DrainTimeout",
    "ExecuteBatch",
    "FaasmCluster",
    "HostCrashed",
    "InvocationMonitor",
    "InvocationRegistry",
    "MessageBus",
    "RetryPolicy",
    "Shutdown",
    "FaasmRuntimeInstance",
    "FunctionRegistry",
    "LocalScheduler",
    "PythonCallContext",
    "PythonFunctionDefinition",
    "RuntimeEnvironment",
    "SchedulingDecision",
    "WarmSetRegistry",
]
