"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import strategies as st

from repro.hw.machine import k6_2_plus, machine0, machine1, machine2
from repro.model.task import Task, TaskSet, example_taskset
from repro.sim.trace import ExecutionTrace


@pytest.fixture
def m0():
    return machine0()


@pytest.fixture
def m1():
    return machine1()


@pytest.fixture
def m2():
    return machine2()


@pytest.fixture
def k6():
    return k6_2_plus()


@pytest.fixture
def example_ts():
    return example_taskset()


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

def _build_taskset(periods, weights, utilization):
    """Scale raw (period, weight) draws to the target total utilization."""
    raw_utilization = sum(w / p for w, p in zip(weights, periods))
    scale = utilization / raw_utilization
    tasks = []
    for w, p in zip(weights, periods):
        wcet = min(w * scale, p)  # clamp pathological single-task draws
        tasks.append(Task(wcet=wcet, period=p))
    return TaskSet(tasks)


#: Periods on a coarse grid (multiples of 0.25 in [1, 64]) keep event times
#: well-conditioned while still exercising non-harmonic interactions.
period_values = st.integers(min_value=4, max_value=256).map(lambda k: k / 4.0)

#: Strategy for EDF-schedulable task sets (total utilization <= ~0.98).
tasksets = st.builds(
    _build_taskset,
    periods=st.lists(period_values, min_size=1, max_size=6),
    weights=st.lists(st.floats(min_value=0.05, max_value=1.0,
                               allow_nan=False, allow_infinity=False),
                     min_size=6, max_size=6),
    utilization=st.floats(min_value=0.05, max_value=0.98),
).filter(lambda ts: ts.utilization <= 0.99)

#: Demand fractions for ConstantFractionDemand.
fractions = st.floats(min_value=0.05, max_value=1.0,
                      allow_nan=False, allow_infinity=False)


def segment_list(timeline) -> ExecutionTrace:
    """The reference :class:`ExecutionTrace` of a run's recorded
    timeline: the same maximal segments, held as one object each."""
    trace = ExecutionTrace()
    trace._segments.extend(timeline)
    return trace
