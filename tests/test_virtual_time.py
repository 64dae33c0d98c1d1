"""Virtual time is an integer on every path, up to the schedule bound.

A :class:`~repro.sim.stimulus.Stimulus` keeps ``num_cycles x period``
at or below ``T_END // 2``.  Inside that bound every engine must commit
the sequential oracle's final values and DFF captures, and the same
number of events, whatever the clock period and the optimism window:
the virtual kernel, and the process backend on both wires.  With a
float GVT, ``gvt + window`` rounds back to GVT once times pass ~2**59
(float spacing >= 128), and a windowed process node processed nothing
until the run timed out.

The conservative kernel joins only at periods up to 2**10: its null
messages grow with the period (~6 x period on s27 at 4 cycles), which
is a property of null messages, not of the sentinel.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit import GeneratorSpec, generate_circuit
from repro.circuit.netlists import load_s27
from repro.errors import SimulationError
from repro.harness.regression import check_engines
from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus
from repro.sim.event import T_END
from repro.warped import VirtualMachine

CYCLES = 4
#: Largest period the conservative kernel is asked to run.
CONSERVATIVE_MAX_PERIOD = 2**10


@functools.lru_cache(maxsize=None)
def _circuit(name: str):
    if name == "s27":
        return load_s27()
    return generate_circuit(GeneratorSpec(
        name="gen", num_inputs=4, num_outputs=4, num_gates=40,
        num_dffs=5, depth=5, seed=61,
    ))


def _assert_engines_match_oracle(name, num_cycles, period, window, *, cmb):
    circuit = _circuit(name)
    stimulus = RandomStimulus(
        circuit, num_cycles=num_cycles, period=period, seed=7
    )
    assignment = get_partitioner("Multilevel", seed=3).partition(circuit, 2)
    machine = VirtualMachine(num_nodes=2, optimism_window=window)
    engines = ("timewarp", "process", "process-shm")
    if cmb:
        engines += ("conservative",)
    assert check_engines(
        circuit, assignment, stimulus, machine, engines, timeout=20
    ) == [], f"period {period}"


#: Log-uniform over 2..2**60: a bit length, then a value of that length.
periods = st.integers(1, 60).flatmap(
    lambda bits: st.integers(max(2, 1 << (bits - 1)), 1 << bits)
)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(["s27", "gen"]),
    period=periods,
    window=st.sampled_from([None, 1, 100]),
)
@example(name="s27", period=2**59, window=100)  # stalled on a float GVT
def test_every_engine_matches_the_oracle_at_any_period(name, period, window):
    num_cycles = min(CYCLES, T_END // 2 // period)
    _assert_engines_match_oracle(
        name, num_cycles, period, window,
        cmb=period <= CONSERVATIVE_MAX_PERIOD,
    )


@pytest.mark.parametrize("name", ["s27", "gen"])
def test_one_cycle_at_a_period_past_the_old_sentinels(name):
    """2**61 is past the conservative kernel's old ``1 << 60`` bound."""
    _assert_engines_match_oracle(name, 1, 2**61, 100, cmb=True)


def test_schedule_past_half_of_t_end_is_refused():
    circuit = _circuit("s27")
    RandomStimulus(circuit, num_cycles=2, period=T_END // 4)
    with pytest.raises(SimulationError, match="num_cycles x period"):
        RandomStimulus(circuit, num_cycles=2, period=T_END // 4 + 1)
