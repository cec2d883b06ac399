"""Tab. 2 conformance: every host-interface function the paper lists is
importable by guests, under the expected name and arity."""

import pytest

from repro.faaslet import Faaslet, FunctionDefinition
from repro.host import StandaloneEnvironment, build_host_imports
from repro.minilang import build
from repro.minilang.stdlib import PRELUDE

#: (name, n_params, n_results) for the full Tab. 2 surface as our guests
#: import it ("env" module). Byte arrays are (ptr, len) pairs.
TABLE2_SURFACE = [
    # Standard calls
    ("input_size", 0, 1),
    ("read_call_input", 2, 1),
    ("write_call_output", 2, 0),
    ("chain_call", 4, 1),
    ("await_call", 1, 1),
    ("get_call_output_size", 1, 1),
    ("get_call_output", 3, 1),
    # State
    ("get_state", 3, 1),
    ("get_state_offset", 4, 1),
    ("set_state", 4, 0),
    ("set_state_offset", 5, 0),
    ("push_state", 2, 0),
    ("push_state_offset", 4, 0),
    ("pull_state", 2, 0),
    ("pull_state_offset", 4, 0),
    ("append_state", 4, 0),
    ("state_size", 2, 1),
    ("lock_state_read", 2, 0),
    ("unlock_state_read", 2, 0),
    ("lock_state_write", 2, 0),
    ("unlock_state_write", 2, 0),
    ("lock_state_global_read", 2, 0),
    ("unlock_state_global_read", 2, 0),
    ("lock_state_global_write", 2, 0),
    ("unlock_state_global_write", 2, 0),
    # Dynamic linking
    ("dlopen", 2, 1),
    ("dlsym", 3, 1),
    ("dlclose", 1, 1),
    # Memory
    ("sbrk", 1, 1),
    ("brk", 1, 1),
    ("mmap", 1, 1),
    ("munmap", 2, 1),
    # Networking
    ("socket", 2, 1),
    ("connect", 4, 1),
    ("bind", 4, 1),
    ("nsend", 3, 1),
    ("nrecv", 3, 1),
    ("nclose", 1, 1),
    # File I/O
    ("open", 3, 1),
    ("close", 1, 1),
    ("dup", 1, 1),
    ("read", 3, 1),
    ("write", 3, 1),
    ("seek", 3, 1),
    ("fstat_size", 2, 1),
    # Guest threads (intra-Faaslet fork-join parallelism)
    ("thread_spawn", 2, 1),
    ("thread_join", 1, 1),
    # Misc
    ("gettime", 0, 1),
    ("getrandom", 2, 1),
]


@pytest.fixture(scope="module")
def imports():
    env = StandaloneEnvironment()
    definition = FunctionDefinition.build(
        "probe", build("export int main() { return 0; }")
    )
    faaslet = Faaslet(definition, env)
    return build_host_imports(faaslet)


@pytest.mark.parametrize("name,n_params,n_results", TABLE2_SURFACE)
def test_interface_function_present_with_arity(imports, name, n_params, n_results):
    key = ("env", name)
    assert key in imports, f"Tab. 2 function {name!r} missing from the host interface"
    host_fn = imports[key]
    assert len(host_fn.type.params) == n_params, name
    assert len(host_fn.type.results) == n_results, name


def test_no_undeclared_interface_functions(imports):
    """Everything the interface exports is accounted for in the table."""
    declared = {name for name, _, _ in TABLE2_SURFACE}
    exported = {name for (_mod, name) in imports}
    assert exported == declared


def test_stdlib_prelude_matches_interface(imports):
    """The guest stdlib declares exactly the functions the host provides
    (so any guest linking the prelude will always link successfully)."""
    import re

    declared = set(re.findall(r"extern\s+\w+\s+(\w+)\(", PRELUDE))
    exported = {name for (_mod, name) in imports}
    assert declared <= exported
    missing_from_prelude = exported - declared
    # The prelude intentionally omits nothing.
    assert not missing_from_prelude
