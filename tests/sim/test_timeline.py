"""Tests for the columnar :class:`~repro.sim.timeline.SimTimeline`.

Three properties anchor the columnar timeline:

* the binary codec is lossless — ``from_bytes(to_bytes(t)) == t``
  bit-for-bit, for arbitrary recorded slice streams;
* the lazy ``Segment`` view equals what the reference segment list
  (:class:`~repro.sim.trace.ExecutionTrace`) records eagerly from the same
  ``record()`` stream, on real runs of all three engines;
* recording never changes a simulation — ``SimResult`` energy, switches,
  jobs and misses are bit-identical with and without a trace, and sweep
  curves stay bit-identical across worker counts and cache states.
"""

import sys
import tempfile
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sweep import SweepConfig, utilization_sweep
from repro.core.cycle_conserving import CycleConservingEDF
from repro.errors import SimulationError
from repro.hw.machine import machine0
from repro.hw.operating_point import OperatingPoint
from repro.model.generator import TaskSetGenerator
from repro.sim import engine as engine_module, ticksim as ticksim_module
from repro.sim.baseline import BaselineSimulator
from repro.sim.engine import Simulator
from repro.sim.ticksim import TickSimulator
from repro.sim.timeline import SimTimeline, make_trace
from repro.sim.trace import ExecutionTrace

MACHINE = machine0()
POINTS = MACHINE.points
TASKS = (None, "t1", "t2", "t3")
KIND_NAMES = ("run", "idle", "switch")


# ---------------------------------------------------------------------------
# codec round trip
# ---------------------------------------------------------------------------

def slice_streams():
    """Arbitrary recorded streams: contiguous or gapped, merge-prone."""
    piece = st.tuples(
        st.floats(min_value=1e-6, max_value=50.0),   # duration
        st.sampled_from([0.0, 0.0, 0.5]),            # gap (0 favors merges)
        st.sampled_from(range(len(TASKS))),
        st.sampled_from(range(len(POINTS))),
        st.floats(min_value=0.0, max_value=1e6),     # cycles
        st.floats(min_value=0.0, max_value=1e3),     # energy
        st.sampled_from(range(len(KIND_NAMES))))
    return st.lists(piece, max_size=40)


def record_stream(trace, stream):
    clock = 0.0
    for duration, gap, task_i, point_i, cycles, energy, kind_i in stream:
        start = clock + gap
        trace.record(start, start + duration, TASKS[task_i],
                     POINTS[point_i], cycles, energy, KIND_NAMES[kind_i])
        clock = start + duration
    return trace


class TestCodecRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(stream=slice_streams())
    def test_lossless(self, stream):
        timeline = record_stream(SimTimeline(), stream)
        back = SimTimeline.from_bytes(timeline.to_bytes())
        assert back == timeline          # bit-exact columns + interning
        assert back.segments == timeline.segments
        # The rebuilt timeline keeps recording with identical merge
        # behaviour (the last-row mirror survives the round trip).
        timeline.record(1e9, 1e9 + 1.0, "t1", POINTS[0], 5.0, 1.0)
        back.record(1e9, 1e9 + 1.0, "t1", POINTS[0], 5.0, 1.0)
        assert back == timeline

    def test_empty(self):
        assert SimTimeline.from_bytes(SimTimeline().to_bytes()) \
            == SimTimeline()

    def test_bad_magic(self):
        with pytest.raises(SimulationError):
            SimTimeline.from_bytes(b"NOPE" + b"\x00" * 32)

    def test_truncated_columns(self):
        timeline = record_stream(SimTimeline(),
                                 [(1.0, 0.0, 1, 0, 10.0, 1.0, 0)])
        with pytest.raises(SimulationError):
            SimTimeline.from_bytes(timeline.to_bytes()[:-4])

    def test_cross_endian_blob(self):
        timeline = record_stream(
            SimTimeline(), [(1.0, 0.0, 1, 0, 10.0, 1.0, 0),
                            (2.0, 0.5, 2, 1, 20.0, 2.0, 1)])
        blob = timeline.to_bytes()
        head_len = int.from_bytes(blob[4:8], "little")
        head = blob[8:8 + head_len]
        other = b"big" if sys.byteorder == "little" else b"little"
        body = blob[8 + head_len:]
        swapped = bytearray()
        offset = 0
        for typecode in ("d", "d", "d", "d", "i", "i", "b"):
            col = array(typecode)
            remaining = len(body) - offset
            count = remaining // col.itemsize if typecode == "b" \
                else timeline._n
            col.frombytes(body[offset:offset + count * col.itemsize])
            col.byteswap()
            swapped += col.tobytes()
            offset += count * col.itemsize
        new_head = head.replace(sys.byteorder.encode(), other)
        foreign = (blob[:4] + len(new_head).to_bytes(4, "little")
                   + new_head + bytes(swapped))
        assert SimTimeline.from_bytes(foreign) == timeline


# ---------------------------------------------------------------------------
# lazy view vs eager segment list
# ---------------------------------------------------------------------------

class TeeTimeline(SimTimeline):
    """A timeline that also feeds every ``record()`` call, unchanged, to
    an eager :class:`ExecutionTrace` — one stream, two recorders."""

    __slots__ = ("mirror",)

    def __init__(self):
        super().__init__()
        self.mirror = ExecutionTrace()

    def record(self, *args, **kwargs):
        self.mirror.record(*args, **kwargs)
        SimTimeline.record(self, *args, **kwargs)


def _run(engine, record_trace=True):
    """One run of ``engine``; a recorded trace is a :class:`TeeTimeline`."""
    taskset = TaskSetGenerator(n_tasks=8, utilization=0.7,
                               seed=42).generate()
    module = ticksim_module if engine is TickSimulator else engine_module
    tee = mock.patch.object(
        module, "make_trace",
        lambda record: TeeTimeline() if record else None)
    with tee:
        if engine is TickSimulator:
            sim = TickSimulator(taskset, MACHINE, CycleConservingEDF(),
                                demand=0.8, duration=200.0, tick=0.05,
                                record_trace=record_trace)
        else:
            sim = engine(taskset, MACHINE, CycleConservingEDF(),
                         demand=0.8, duration=200.0, on_miss="drop",
                         record_trace=record_trace)
        return sim.run()


ENGINES = (Simulator, BaselineSimulator, TickSimulator)


class TestLazyViewMatchesEagerList:
    @pytest.mark.parametrize("engine", ENGINES,
                             ids=lambda e: e.__name__)
    def test_segments_identical(self, engine):
        lazy = _run(engine).trace
        eager = lazy.mirror
        assert isinstance(lazy, TeeTimeline)
        assert len(eager) == len(lazy) > 0
        for a, b in zip(eager, lazy):
            assert a == b  # frozen dataclass: every field bit-equal

    def test_view_is_cached_until_the_next_append(self):
        timeline = record_stream(SimTimeline(),
                                 [(1.0, 0.0, 1, 0, 10.0, 1.0, 0)])
        first = timeline.segments
        assert timeline.segments is first
        timeline.record(5.0, 6.0, "t2", POINTS[0], 1.0, 0.5)
        assert timeline.segments is not first
        assert len(timeline.segments) == 2


# ---------------------------------------------------------------------------
# recording never changes the simulation
# ---------------------------------------------------------------------------

class TestBackendBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES,
                             ids=lambda e: e.__name__)
    def test_simresult_identical(self, engine):
        a, b = _run(engine, record_trace=False), _run(engine)
        if engine is TickSimulator:
            assert a.energy == b.energy
            assert len(a.jobs) == len(b.jobs)
            assert len(a.missed) == len(b.missed)
        else:
            assert a.total_energy == b.total_energy
            assert a.switches == b.switches
            assert len(a.misses) == len(b.misses)
            assert len(a.jobs) == len(b.jobs)
        for ja, jb in zip(a.jobs, b.jobs):
            assert ja.release_time == jb.release_time
            assert ja.executed == jb.executed
            assert ja.completion_time == jb.completion_time


class TestExecutorDifferential:
    def test_rows_identical_across_workers_and_cache_states(self):
        """Serial, parallel, cold-cache and warm-cache sweeps must all
        produce bit-identical curves — the columnar transport and the
        schema-3 binary cache both preserve exact float patterns."""
        base = dict(n_tasks=5, n_sets=2, utilizations=(0.4, 0.8),
                    duration=150.0, seed=7, cache_dir=None)
        serial = utilization_sweep(SweepConfig(**base, workers=1))
        parallel = utilization_sweep(SweepConfig(**base, workers=2))
        assert serial.raw.rows() == parallel.raw.rows()
        with tempfile.TemporaryDirectory() as tmp:
            cached = dict(base, cache_dir=tmp)
            cold = utilization_sweep(SweepConfig(**cached, workers=2))
            warm = utilization_sweep(SweepConfig(**cached, workers=1))
        assert cold.simulated_cells > 0
        assert warm.simulated_cells == 0       # every cell from the cache
        assert cold.raw.rows() == serial.raw.rows()
        assert warm.raw.rows() == serial.raw.rows()


# ---------------------------------------------------------------------------
# make_trace dispatch
# ---------------------------------------------------------------------------

class TestMakeTrace:
    def test_backends(self):
        assert make_trace(False) is None
        assert type(make_trace(True)) is SimTimeline
