"""hexsync's Sim makes exactly what the exact twin in tests/reference_sim.py makes.

The twin runs every scheme with one queue entry per event, on Fraction
time, from the definitions; Sim runs windows on integer time.
tests/differential.py runs the two side by side and compares what each
has recorded after every run_until. Here the scenarios span all three
schemes, in sample and setpoint runs; each window's own test (the sampler
in test_sampler, resync flags in test_resync_flags, the relay in
test_relay, keep-alives in test_keepalive, phases in
test_phase_window) draws the scenarios that reach
it and holds its @examples. A new window adds such a test and examples,
not a reference of its own. The twin imports only hexsync's input types,
enums and gait table, which test_the_twin_imports_only_inputs_from_hexsync
checks.
"""

import ast
from pathlib import Path

from differential import check, scenarios
from hypothesis import given, settings

HEXSYNC_INPUTS = {"SchemeId", "Verb", "SchemeParams", "LinkModel", "GaitConfig", "TimeRef",
                  "Controller", "GAIT_TABLE"}


@given(scenario=scenarios())
@settings(max_examples=100, deadline=None)
def test_sim_matches_the_exact_twin(scenario):
    check(*scenario)


def test_the_twin_imports_only_inputs_from_hexsync():
    tree = ast.parse((Path(__file__).parent / "reference_sim.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "hexsync" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "hexsync"):
            imported.update(alias.name for alias in node.names)
    assert imported and imported <= HEXSYNC_INPUTS
