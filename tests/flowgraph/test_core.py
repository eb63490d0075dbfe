"""Flow runtime: validation diagnostics, routing, racing, retry, caching."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.engine.artifacts import ArtifactStore
from repro.flowgraph import core
from repro.errors import (
    FlowExecutionError,
    FlowRoutingError,
    FlowValidationError,
)
from repro.flowgraph.core import (
    Flow,
    FlowContext,
    Node,
    RetryPolicy,
    Selector,
    stage_key,
)
from repro.flowgraph.stats import PipelineStats


class CountingFn:
    """A compute callable that counts invocations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, ctx):
        self.calls += 1
        return self.fn(ctx)


def seeded_context(**values):
    """A context whose seeds are pre-keyed by repr (toy fingerprints)."""
    return FlowContext(values, keys={name: repr(value) for name, value in values.items()})


def linear_flow(double, square):
    return Flow(
        [
            Node("double", double, inputs=("x",), output="doubled"),
            Node("square", square, inputs=("doubled",), output="squared"),
        ],
        "double >> square",
        name="toy",
        inputs=("x",),
    )


# ----------------------------------------------------------------------
# Execution + memoisation
# ----------------------------------------------------------------------
def test_linear_flow_resolves_and_memoises():
    double = CountingFn(lambda ctx: ctx["x"] * 2)
    square = CountingFn(lambda ctx: ctx["doubled"] ** 2)
    flow = linear_flow(double, square)
    store = ArtifactStore(None)
    stats = PipelineStats()

    ctx = flow.run(context=seeded_context(x=3), store=store, stats=stats)
    assert ctx["squared"] == 36
    assert ctx.executed == ["double", "square"]
    assert stats.timing("double").misses == 1
    assert stats.timing("square").misses == 1

    # Same store, fresh context: the terminal output is a store hit and
    # the upstream node is never touched (key-first lazy resolution).
    warm = flow.run(context=seeded_context(x=3), store=store, stats=stats)
    assert warm["squared"] == 36
    assert (double.calls, square.calls) == (1, 1)
    assert stats.timing("double").lookups == 1  # the cold miss only
    assert stats.timing("square").hits == 1


def test_node_seconds_are_self_times(monkeypatch):
    """Computing ``square`` lazily materialises ``double``; each node records
    its own time only, so the stage seconds add up to the run's time."""
    clock = SimpleNamespace(now=0.0)
    monkeypatch.setattr(core, "time", SimpleNamespace(perf_counter=lambda: clock.now))

    def double(ctx):
        clock.now += 2.0
        return ctx["x"] * 2

    def square(ctx):
        doubled = ctx["doubled"]  # materialises "double" inside this call
        clock.now += 3.0
        return doubled ** 2

    stats = PipelineStats()
    ctx = linear_flow(double, square).run(
        context=seeded_context(x=3), store=ArtifactStore(None), stats=stats
    )
    assert ctx["squared"] == 36
    assert stats.timing("double").seconds == 2.0
    assert stats.timing("square").seconds == 3.0
    assert stats.total_seconds == clock.now
    assert ctx.artifact("squared").seconds == 3.0


def test_keys_derive_from_upstream_keys_not_values():
    """A warm store serves a downstream node without materialising its inputs."""
    double = CountingFn(lambda ctx: ctx["x"] * 2)
    square = CountingFn(lambda ctx: ctx["doubled"] ** 2)
    flow = linear_flow(double, square)
    store = ArtifactStore(None)
    flow.run(context=seeded_context(x=3), store=store)

    double.calls = square.calls = 0
    ctx = seeded_context(x=3)
    artifact = flow.resolve("squared", context=ctx, store=store)
    assert artifact.value == 36
    assert artifact.from_store
    assert double.calls == 0 and square.calls == 0
    # The upstream value was never materialised — key-first resolution.
    assert "doubled" not in ctx.values


def test_keys_match_stage_key_formula():
    double = CountingFn(lambda ctx: ctx["x"] * 2)
    square = CountingFn(lambda ctx: ctx["doubled"] ** 2)
    flow = linear_flow(double, square)
    ctx = flow.run(context=seeded_context(x=3))
    doubled_key = stage_key("double", x=repr(3))
    assert ctx.key_of("doubled") == doubled_key
    assert ctx.key_of("squared") == stage_key("square", doubled=doubled_key)


def test_unseeded_flow_input_errors():
    flow = linear_flow(lambda ctx: ctx["x"] * 2, lambda ctx: ctx["doubled"] ** 2)
    # Key derivation comes first, so a missing key is diagnosed even when
    # the value is present...
    with pytest.raises(FlowValidationError, match="seed FlowContext.keys"):
        flow.run(context=FlowContext(values={"x": 3}))
    # ...and a keyed-but-valueless seed fails at materialisation time.
    with pytest.raises(KeyError, match="flow input 'x' was not provided"):
        flow.run(context=FlowContext(keys={"x": "3"}))


def test_non_persistent_nodes_stay_out_of_the_backend(tmp_path):
    flow = Flow(
        [Node("scratch", lambda ctx: 41, output="answer", persistent=False)],
        name="np",
    )
    store = ArtifactStore(tmp_path)
    flow.run(store=store)
    assert list(tmp_path.rglob("*.json")) == []


def test_output_type_is_enforced():
    flow = Flow(
        [Node("bad", lambda ctx: "nope", output="n", output_type=int)],
        name="typed",
    )
    with pytest.raises(FlowExecutionError, match="produced str, expected int"):
        flow.run()


# ----------------------------------------------------------------------
# Conditional routing
# ----------------------------------------------------------------------
def routed_flow(flag):
    return Flow(
        [
            Node("seed", lambda ctx: 1, output="value"),
            Node(
                "left",
                lambda ctx: ctx["value"] + 10,
                inputs=("value",),
                output="out",
                when=lambda ctx: flag["left"],
                when_label="left_on",
            ),
            Node(
                "right",
                lambda ctx: ctx["value"] + 20,
                inputs=("value",),
                output="out",
                when=lambda ctx: flag["right"],
                when_label="right_on",
            ),
        ],
        "seed >> (left | right)",
        name="routed",
    )


def test_conditional_routing_picks_the_eligible_branch():
    flow = routed_flow({"left": False, "right": True})
    ctx = flow.run()
    assert ctx["out"] == 21
    assert ctx.routes == {"out": "right"}
    assert "left" not in ctx.executed


def test_routing_error_names_candidates_and_conditions():
    flow = routed_flow({"left": False, "right": False})
    with pytest.raises(FlowRoutingError) as excinfo:
        flow.run()
    message = str(excinfo.value)
    assert "no branch matched for output 'out'" in message
    assert "left [when left_on]" in message
    assert "right [when right_on]" in message


def test_virtual_node_passes_the_upstream_key_through():
    flow = Flow(
        [
            Node("make", lambda ctx: 5, output="a"),
            Node(
                "alias",
                inputs=("a",),
                output="b",
                virtual=True,
                key_from="a",
            ),
        ],
        "make >> alias",
        name="virtual",
    )
    ctx = flow.run()
    assert ctx["b"] == 5
    assert ctx.key_of("b") == ctx.key_of("a")
    # Virtual nodes do not touch stats or the store.
    stats = PipelineStats()
    flow.run(stats=stats)
    assert "alias" not in stats.stages


# ----------------------------------------------------------------------
# Racing
# ----------------------------------------------------------------------
def racing_flow(select):
    return Flow(
        [
            Node("seed", lambda ctx: 0, output="value"),
            Node("fast", lambda ctx: {"cost": 3}, inputs=("value",), output="out"),
            Node("slow", lambda ctx: {"cost": 7}, inputs=("value",), output="out"),
        ],
        "seed >> (fast | slow)",
        name="race",
        select=select,
    )


def test_race_keeps_the_selector_winner():
    class Result:
        def __init__(self, cost):
            self.cost = cost

    flow = Flow(
        [
            Node("a", lambda ctx: Result(7), output="out"),
            Node("b", lambda ctx: Result(3), output="out"),
        ],
        "(a | b)",
        name="race",
        select={"out": Selector(metric="cost", mode="min")},
    )
    ctx = flow.run()
    assert ctx["out"].cost == 3
    assert ctx.routes == {"out": "b"}
    assert ctx.raced == {"out": {"a": 7, "b": 3}}
    assert set(ctx.executed) >= {"a", "b"}


def test_race_without_selector_is_a_routing_error():
    flow = racing_flow(select=None)
    with pytest.raises(FlowRoutingError, match="declares no selector"):
        flow.run()


def test_callable_selector_must_choose_a_raced_branch():
    flow = racing_flow(select={"out": lambda candidates, ctx: "nobody"})
    with pytest.raises(FlowRoutingError, match="not one of the raced branches"):
        flow.run()


# ----------------------------------------------------------------------
# Retry
# ----------------------------------------------------------------------
def test_single_attempt_raises_the_raw_exception():
    flow = Flow(
        [Node("boom", lambda ctx: 1 / 0, output="n")],
        name="raw",
    )
    with pytest.raises(ZeroDivisionError):
        flow.run()


def test_retry_recovers_from_transient_failures():
    attempts = {"count": 0}

    def flaky(ctx):
        attempts["count"] += 1
        if attempts["count"] < 3:
            raise RuntimeError("transient")
        return 42

    flow = Flow(
        [Node("flaky", flaky, output="n", retry=RetryPolicy(max_attempts=3))],
        name="retry",
    )
    assert flow.run()["n"] == 42
    assert attempts["count"] == 3


def test_retry_exhaustion_names_the_node():
    flow = Flow(
        [
            Node(
                "doomed",
                lambda ctx: (_ for _ in ()).throw(RuntimeError("nope")),
                output="n",
                retry=RetryPolicy(max_attempts=2),
            )
        ],
        name="retry",
    )
    with pytest.raises(FlowExecutionError, match="node 'doomed' failed after 2 attempts"):
        flow.run()


def test_retry_policy_validates_itself():
    with pytest.raises(FlowValidationError, match="max_attempts >= 1"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(FlowValidationError, match="non-negative backoff_s"):
        RetryPolicy(backoff_s=-1.0)
    with pytest.raises(FlowValidationError, match="'min' or 'max'"):
        Selector(metric="cost", mode="median")


# ----------------------------------------------------------------------
# Validation diagnostics
# ----------------------------------------------------------------------
def test_duplicate_node_names_are_rejected():
    with pytest.raises(FlowValidationError, match="declares node 'twin' twice"):
        Flow(
            [
                Node("twin", lambda ctx: 1, output="a"),
                Node("twin", lambda ctx: 2, output="b"),
            ],
            name="dup",
        )


def test_unknown_edge_name_cites_the_expression():
    with pytest.raises(FlowValidationError) as excinfo:
        Flow(
            [Node("a", lambda ctx: 1, output="x")],
            "a >> ghost",
            name="bad",
        )
    message = str(excinfo.value)
    assert "no node named 'ghost'" in message
    assert "'a >> ghost'" in message


def test_duplicate_output_without_group_suggests_alternative_syntax():
    with pytest.raises(FlowValidationError) as excinfo:
        Flow(
            [
                Node("a", lambda ctx: 1, output="x"),
                Node("b", lambda ctx: 2, output="x"),
            ],
            "a >> b",
            name="bad",
        )
    message = str(excinfo.value)
    assert "all produce output 'x'" in message
    assert "(a | b)" in message


def test_group_members_must_share_one_output():
    with pytest.raises(FlowValidationError, match="mixes outputs"):
        Flow(
            [
                Node("a", lambda ctx: 1, output="x"),
                Node("b", lambda ctx: 2, output="y"),
            ],
            "(a | b)",
            name="bad",
        )


def test_undeclared_input_names_node_and_flow_inputs():
    with pytest.raises(FlowValidationError) as excinfo:
        Flow(
            [Node("a", lambda ctx: ctx["mystery"], inputs=("mystery",), output="x")],
            "a",
            name="bad",
            inputs=("kernel",),
        )
    message = str(excinfo.value)
    assert "node 'a' consumes 'mystery'" in message
    assert "['kernel']" in message


def test_cycle_diagnostic_shows_the_path_and_expression():
    with pytest.raises(FlowValidationError) as excinfo:
        Flow(
            [
                Node("a", lambda ctx: ctx["y"], inputs=("y",), output="x"),
                Node("b", lambda ctx: ctx["x"], inputs=("x",), output="y"),
            ],
            "a >> b >> a",
            name="loop",
        )
    message = str(excinfo.value)
    assert "has a cycle" in message
    assert " -> " in message
    assert "'a >> b >> a'" in message


def test_type_mismatch_names_producer_and_consumer():
    with pytest.raises(FlowValidationError) as excinfo:
        Flow(
            [
                Node("ints", lambda ctx: 1, output="x", output_type=int),
                Node(
                    "wants_str",
                    lambda ctx: ctx["x"],
                    inputs=("x",),
                    output="y",
                    input_types={"x": str},
                ),
            ],
            "ints >> wants_str",
            name="typed",
        )
    message = str(excinfo.value)
    assert "node 'wants_str' expects 'x' to be str" in message
    assert "node 'ints' produces int" in message


def test_selector_for_unknown_output_is_rejected():
    with pytest.raises(FlowValidationError, match="selector for 'ghost'"):
        Flow(
            [Node("a", lambda ctx: 1, output="x")],
            name="bad",
            select={"ghost": Selector(metric="cost")},
        )


def test_node_constructor_validation():
    with pytest.raises(FlowValidationError, match="not a valid identifier"):
        Node("no spaces", lambda ctx: 1, output="x")
    with pytest.raises(FlowValidationError, match="needs a compute callable"):
        Node("empty", output="x")
    with pytest.raises(FlowValidationError, match="not among its inputs"):
        Node("keyed", lambda ctx: 1, inputs=("a",), output="x", key_inputs={"k": "b"})
    with pytest.raises(FlowValidationError, match="passes the key of"):
        Node("virt", inputs=("a",), output="x", virtual=True, key_from="b")


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------
def test_outputs_are_terminal_values():
    flow = linear_flow(lambda ctx: 0, lambda ctx: 0)
    assert flow.outputs == ("squared",)
