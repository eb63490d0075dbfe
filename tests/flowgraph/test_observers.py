"""The unified campaign-observer protocol and its flow-graph integration."""

from __future__ import annotations

from repro.flowgraph.core import Flow, FlowContext, Node, NodeEvent
from repro.observers import CampaignObserver
from repro.trace.collect import TracingWaveObserver
from repro.trace.spans import Tracer


class Recorder(CampaignObserver):
    """Records every callback as (method, args) tuples."""

    def __init__(self):
        self.calls = []

    def wave_started(self, wave_index, job_count):
        self.calls.append(("wave_started", wave_index, job_count))

    def wave_finished(self, outcome):
        self.calls.append(("wave_finished", outcome))

    def base_evaluated(self, key, evaluation, source, feasible):
        self.calls.append(("base_evaluated", key, evaluation, source, feasible))

    def node_finished(self, event):
        self.calls.append(("node_finished", event))


def event(node="double", routed=False):
    return NodeEvent(
        flow="toy", node=node, output="out", key="k", hit=False, seconds=0.0, routed=routed
    )


# ----------------------------------------------------------------------
# Base protocol
# ----------------------------------------------------------------------
def test_base_observer_is_a_no_op():
    observer = CampaignObserver()
    observer.wave_started(0, 3)
    observer.wave_finished(object())
    observer.base_evaluated("key", object(), "computed", True)
    observer.node_finished(event())


# ----------------------------------------------------------------------
# Flow runtime emission
# ----------------------------------------------------------------------
def test_flow_run_emits_node_events_to_a_composed_observer():
    flow = Flow(
        [
            Node("double", lambda ctx: ctx["x"] * 2, inputs=("x",), output="doubled"),
            Node("square", lambda ctx: ctx["doubled"] ** 2, inputs=("doubled",), output="squared"),
        ],
        "double >> square",
        name="toy",
        inputs=("x",),
    )
    recorder = Recorder()
    flow.run(context=FlowContext({"x": 3}, keys={"x": "3"}), observer=recorder)
    events = [args[0] for name, *args in recorder.calls if name == "node_finished"]
    assert [e.node for e in events] == ["double", "square"]
    assert all(e.flow == "toy" and not e.hit for e in events)


# ----------------------------------------------------------------------
# TracingWaveObserver: routing counters
# ----------------------------------------------------------------------
def test_tracing_observer_counts_routed_nodes_only():
    tracer = Tracer()
    observer = TracingWaveObserver(tracer, suite="paper")
    observer.node_finished(event(node="rearrange", routed=True))
    observer.node_finished(event(node="rearrange", routed=True))
    observer.node_finished(event(node="base_schedule", routed=False))
    batch = tracer.drain()
    assert batch.counters == {"flow.routed.rearrange": 2.0}


def test_tracing_observer_speaks_the_unified_protocol():
    assert isinstance(TracingWaveObserver(Tracer(), suite="s"), CampaignObserver)


# ----------------------------------------------------------------------
# The engine's observer base
# ----------------------------------------------------------------------
def test_executor_wave_observer_is_the_unified_base():
    from repro.engine.executor import WaveObserver

    assert issubclass(WaveObserver, CampaignObserver)
    # The subclass adds no behaviour of its own: one protocol, one base.
    assert WaveObserver().wave_started.__func__ is CampaignObserver.wave_started
