"""The flow-graph runtime: validated DAGs of content-hashed nodes.

A :class:`Node` declares the *value names* it consumes and produces plus a
compute callable; a :class:`Flow` assembles nodes with an edge-expression
(:mod:`repro.flowgraph.dsl`) into a validated DAG.  Execution is
demand-driven and key-first, mirroring the mapping pipeline's memoisation
discipline exactly:

1. The *key* of a value is derived from upstream artifact **keys** (never
   their values) through :func:`~repro.mapping.pipeline.stage_key`-style
   content hashing, so a warm :class:`~repro.engine.artifacts.ArtifactStore`
   serves any node's output without materialising its inputs.
2. Only on a store miss does the node's compute callable run, lazily
   pulling the inputs it actually touches through the shared
   :class:`FlowContext`.

Outputs with several candidate producers form an *alternative group*
(declared ``(a | b)`` in the DSL).  At resolution time the members'
``when`` predicates are evaluated: exactly one eligible branch routes,
several eligible branches race (each runs, a :class:`Selector` keeps the
winner), and zero raises :class:`~repro.errors.FlowRoutingError`.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import (
    FlowExecutionError,
    FlowRoutingError,
    FlowValidationError,
)
from repro.flowgraph.dsl import EdgeGraph, parse_edges
from repro.flowgraph.stats import Artifact, PipelineStats
from repro.utils.serialization import content_hash


def stage_key(stage: str, **inputs: object) -> str:
    """Memoisation key of one node invocation: ``hash(stage + input hashes)``.

    This is the exact formula the mapping pipeline has always used
    (re-exported from :mod:`repro.mapping.pipeline` for compatibility), so
    flow-produced artifacts are interchangeable with legacy ones.
    """
    return content_hash({"stage": stage, "inputs": inputs})


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Retry behaviour of one node's compute callable.

    With the default single attempt, compute exceptions propagate
    unchanged (the legacy pipeline contract).  With ``max_attempts > 1``
    the callable is re-invoked on the listed exception types, sleeping
    ``backoff_s * attempt`` between tries, and exhaustion raises
    :class:`~repro.errors.FlowExecutionError` naming the node.
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    retry_on: Tuple[type, ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FlowValidationError("retry policy needs max_attempts >= 1")
        if self.backoff_s < 0:
            raise FlowValidationError("retry policy needs a non-negative backoff_s")


@dataclass(frozen=True)
class Selector:
    """Picks the winner of a raced alternative group.

    ``metric`` is a dotted attribute path into each candidate's output
    value (e.g. ``"summary.cycles"``); ``mode`` keeps the minimum or
    maximum.  Ties keep the earlier branch in declaration order.
    """

    metric: str
    mode: str = "min"

    def __post_init__(self) -> None:
        if self.mode not in ("min", "max"):
            raise FlowValidationError(
                f"selector mode must be 'min' or 'max', not {self.mode!r}"
            )

    def score(self, value: Any) -> Any:
        current = value
        for attribute in self.metric.split("."):
            current = getattr(current, attribute)
        return current

    def choose(self, candidates: "Dict[str, Any]") -> Tuple[str, Dict[str, Any]]:
        scores = {name: self.score(value) for name, value in candidates.items()}
        ordered = list(scores)
        best = (min if self.mode == "min" else max)(ordered, key=lambda name: scores[name])
        return best, scores


# ----------------------------------------------------------------------
# Nodes
# ----------------------------------------------------------------------
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class Node:
    """One step of a flow: typed inputs, one output, a compute callable.

    Parameters
    ----------
    name:
        Node name — also the artifact namespace in the store and the
        stage name in the per-node stats.
    fn:
        ``fn(ctx) -> value``; runs only on a store miss.  Inputs are read
        from the :class:`FlowContext` (``ctx["dfg"]`` …), which resolves
        them lazily.  Virtual nodes may omit ``fn`` to pass their
        ``key_from`` input through unchanged.
    inputs / output:
        Value names consumed / produced.  Dataflow edges follow from
        these declarations.
    key_inputs:
        Mapping of key-parameter name to consumed value name; the node's
        artifact key is ``stage_key(name, **{param: key_of(value)})``.
        Defaults to ``{input: input}`` over ``inputs``.  Seeds referenced
        here must be pre-keyed in ``FlowContext.keys``.
    persistent:
        Whether outputs are written through to the store's disk layer.
    virtual:
        Bookkeeping-only node: no store lookup, no stats, and its output
        key is the key of its ``key_from`` input (the content chain skips
        it entirely) — e.g. the canonical flow's ``passthrough`` branch.
    key_from:
        For virtual nodes, the input whose key passes through (defaults
        to the first input).
    resolver:
        ``resolver(ctx) -> Artifact`` — full override of the
        fetch/compute path for nodes whose key is derived from their
        *output* (the ``build_dfg`` pattern).  The resolver handles its
        own memoisation and stats.
    when:
        Eligibility predicate ``when(ctx) -> bool`` consulted when this
        node is a member of an alternative group; ``when_label`` names it
        in routing diagnostics and reports.
    retry:
        The node's :class:`RetryPolicy`.
    adapt:
        ``adapt(value, ctx) -> value`` applied after fetch *and* compute —
        the hook behind structural-alias restamping (store keys by
        structure, results carry the caller's names).
    output_type:
        Optional type pinned on the output value; checked at
        materialisation, and against consumers' ``input_types`` when the
        flow validates.
    input_types:
        Optional ``{value name: type}`` the node requires of its inputs.
    """

    def __init__(
        self,
        name: str,
        fn: Optional[Callable[["FlowContext"], Any]] = None,
        *,
        inputs: Sequence[str] = (),
        output: str,
        key_inputs: Optional[Mapping[str, str]] = None,
        persistent: bool = True,
        virtual: bool = False,
        key_from: Optional[str] = None,
        resolver: Optional[Callable[["FlowContext"], Artifact]] = None,
        when: Optional[Callable[["FlowContext"], bool]] = None,
        when_label: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        adapt: Optional[Callable[[Any, "FlowContext"], Any]] = None,
        output_type: Optional[type] = None,
        input_types: Optional[Mapping[str, type]] = None,
        doc: str = "",
    ) -> None:
        if not _NAME.match(name):
            raise FlowValidationError(f"node name {name!r} is not a valid identifier")
        if not output:
            raise FlowValidationError(f"node '{name}' must declare an output value name")
        self.name = name
        self.fn = fn
        self.inputs = tuple(inputs)
        self.output = output
        self.persistent = persistent
        self.virtual = virtual
        self.resolver = resolver
        self.when = when
        self.when_label = when_label
        self.retry = retry or RetryPolicy()
        self.adapt = adapt
        self.output_type = output_type
        self.input_types = dict(input_types or {})
        self.doc = doc
        if virtual:
            if key_from is None:
                if not self.inputs:
                    raise FlowValidationError(
                        f"virtual node '{name}' needs an input to pass its key through"
                    )
                key_from = self.inputs[0]
            if key_from not in self.inputs:
                raise FlowValidationError(
                    f"virtual node '{name}' passes the key of {key_from!r}, "
                    f"which is not among its inputs {self.inputs!r}"
                )
        self.key_from = key_from
        if key_inputs is None:
            key_inputs = {value: value for value in self.inputs}
        self.key_inputs = dict(key_inputs)
        for parameter, value in self.key_inputs.items():
            if value not in self.inputs:
                raise FlowValidationError(
                    f"node '{name}' keys parameter {parameter!r} from value "
                    f"{value!r}, which is not among its inputs {self.inputs!r}"
                )
        if fn is None and resolver is None and not virtual:
            raise FlowValidationError(
                f"node '{name}' needs a compute callable (only virtual nodes may omit it)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.name!r}, inputs={self.inputs!r}, output={self.output!r})"


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------
class FlowContext:
    """Shared state of one flow execution.

    Carries seed values (and their content keys, for seeds referenced in
    ``key_inputs``), resolved values/keys/artifacts, the routing record
    (which branch produced each routed output, race scores), and the
    executed-node log.  Reading ``ctx[name]`` inside a compute callable or
    ``when`` predicate resolves the value on demand through the active
    run.
    """

    def __init__(
        self,
        values: Optional[Mapping[str, Any]] = None,
        keys: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.values: Dict[str, Any] = dict(values or {})
        self.keys: Dict[str, str] = dict(keys or {})
        self.artifacts: Dict[str, Artifact] = {}
        #: Routed outputs: value name -> winning node name.
        self.routes: Dict[str, str] = {}
        #: Raced outputs: value name -> {node name: selector score}.
        self.raced: Dict[str, Dict[str, Any]] = {}
        #: Names of materialised nodes, in execution order.
        self.executed: List[str] = []
        self._runtime: Optional["_Runtime"] = None

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def __getitem__(self, name: str) -> Any:
        if name in self.values:
            return self.values[name]
        if self._runtime is not None:
            return self._runtime.resolve_value(name)
        raise KeyError(name)

    def get(self, name: str, default: Any = None) -> Any:
        try:
            return self[name]
        except KeyError:
            return default

    def key_of(self, name: str) -> str:
        """The content key of ``name``, resolving it if necessary."""
        if name in self.keys:
            return self.keys[name]
        if self._runtime is not None:
            return self._runtime.resolve_key(name)
        raise KeyError(name)

    def artifact(self, name: str) -> Artifact:
        """The materialised artifact of ``name``, resolving it if necessary."""
        if name not in self.artifacts:
            self[name]
        return self.artifacts[name]


# ----------------------------------------------------------------------
# Runtime
# ----------------------------------------------------------------------
class _Runtime:
    """One execution of a flow: resolution engine bound to a context."""

    def __init__(
        self,
        flow: "Flow",
        ctx: FlowContext,
        store: Any,
        stats: PipelineStats,
    ) -> None:
        self.flow = flow
        self.ctx = ctx
        self.store = store
        self.stats = stats
        #: Seconds spent materialising nodes nested inside the node being
        #: materialised now; subtracted so each node records its self-time.
        self._nested = 0.0

    # -- routing -------------------------------------------------------
    def _eligible(self, output: str) -> Tuple[List[Node], bool]:
        """Eligible producers of ``output`` and whether routing happened."""
        producers = self.flow.producers.get(output)
        if not producers:
            raise FlowValidationError(
                f"flow '{self.flow.name}' produces no value named {output!r} "
                f"(outputs: {sorted(self.flow.producers)})"
            )
        routed = len(producers) > 1 or any(node.when is not None for node in producers)
        eligible = [
            node for node in producers if node.when is None or node.when(self.ctx)
        ]
        if not eligible:
            conditions = ", ".join(
                f"{node.name} [when {node.when_label or 'predicate'}]"
                for node in producers
            )
            raise FlowRoutingError(
                f"no branch matched for output {output!r}: "
                f"every candidate's condition was false ({conditions})"
            )
        return eligible, routed

    # -- key resolution ------------------------------------------------
    def node_key(self, node: Node) -> str:
        return stage_key(
            node.name,
            **{
                parameter: self.resolve_key(value)
                for parameter, value in node.key_inputs.items()
            },
        )

    def resolve_key(self, name: str) -> str:
        if name in self.ctx.keys:
            return self.ctx.keys[name]
        if name in self.flow.inputs:
            raise FlowValidationError(
                f"flow input {name!r} is referenced in a key derivation but has "
                f"no content key; seed FlowContext.keys[{name!r}] when building "
                "the context"
            )
        eligible, routed = self._eligible(name)
        if len(eligible) > 1:
            self.resolve_value(name)
            return self.ctx.keys[name]
        node = eligible[0]
        if routed:
            self.ctx.routes.setdefault(name, node.name)
        if node.virtual:
            key = self.resolve_key(node.key_from)
        elif node.resolver is not None:
            key = self.materialise(node).key
        else:
            key = self.node_key(node)
        self.ctx.keys[name] = key
        return key

    # -- value resolution ----------------------------------------------
    def resolve_value(self, name: str) -> Any:
        if name in self.ctx.values:
            return self.ctx.values[name]
        if name in self.flow.inputs:
            raise KeyError(f"flow input {name!r} was not provided")
        eligible, routed = self._eligible(name)
        if len(eligible) > 1:
            return self._race(name, eligible)
        node = eligible[0]
        if routed:
            self.ctx.routes[name] = node.name
        artifact = self.materialise(node)
        self._adopt(name, artifact)
        return artifact.value

    def _race(self, name: str, eligible: List[Node]) -> Any:
        selector = self.flow.select.get(name)
        if selector is None:
            raise FlowRoutingError(
                f"output {name!r} raced {len(eligible)} branches "
                f"({', '.join(node.name for node in eligible)}) but the flow "
                "declares no selector for it"
            )
        artifacts = {node.name: self.materialise(node) for node in eligible}
        candidates = {node_name: artifact.value for node_name, artifact in artifacts.items()}
        if isinstance(selector, Selector):
            winner, scores = selector.choose(candidates)
        else:
            winner = selector(candidates, self.ctx)
            scores = {}
            if winner not in artifacts:
                raise FlowRoutingError(
                    f"selector for output {name!r} chose {winner!r}, which is "
                    f"not one of the raced branches {sorted(artifacts)}"
                )
        self.ctx.routes[name] = winner
        self.ctx.raced[name] = scores or {node.name: None for node in eligible}
        self._adopt(name, artifacts[winner])
        return artifacts[winner].value

    def _adopt(self, name: str, artifact: Artifact) -> None:
        self.ctx.values[name] = artifact.value
        self.ctx.keys[name] = artifact.key
        self.ctx.artifacts[name] = artifact

    # -- materialisation ------------------------------------------------
    def materialise(self, node: Node) -> Artifact:
        """Obtain ``node``'s artifact: fetch from the store or compute.

        Mirrors the legacy pipeline's ``_memoise`` byte for byte: one
        timed fetch, stats recorded through the single
        :meth:`~repro.flowgraph.stats.PipelineStats.record` choke point,
        misses written back with the node's persistence flag.  The time
        recorded is the node's self-time: computing a node lazily
        materialises its upstream nodes, and they record their own time.
        """
        ctx = self.ctx
        if node.virtual:
            key = self.resolve_key(node.key_from)
            value = node.fn(ctx) if node.fn is not None else ctx[node.key_from]
            ctx.executed.append(node.name)
            return Artifact(stage=node.name, key=key, value=value)
        if node.resolver is not None:
            started = time.perf_counter()
            artifact = node.resolver(ctx)
            self._nested += time.perf_counter() - started
            ctx.keys.setdefault(node.output, artifact.key)
            ctx.executed.append(node.name)
            return artifact
        key = self.node_key(node)
        outer_nested, self._nested = self._nested, 0.0
        started = time.perf_counter()
        try:
            hit, value = self.store.fetch(node.name, key)
            if not hit:
                value = self._compute(node)
                self.store.put(node.name, key, value, persist=node.persistent)
        finally:
            inclusive = time.perf_counter() - started
            nested, self._nested = self._nested, outer_nested + inclusive
        elapsed = inclusive - nested
        self.stats.record(node.name, hit=hit, seconds=elapsed)
        artifact = Artifact(
            stage=node.name, key=key, value=value, from_store=hit, seconds=elapsed
        )
        if node.output_type is not None and not isinstance(artifact.value, node.output_type):
            raise FlowExecutionError(
                f"node '{node.name}' produced {type(artifact.value).__name__}, "
                f"expected {node.output_type.__name__}"
            )
        if node.adapt is not None:
            artifact.value = node.adapt(artifact.value, ctx)
        ctx.executed.append(node.name)
        return artifact

    def _compute(self, node: Node) -> Any:
        policy = node.retry
        attempt = 1
        while True:
            try:
                return node.fn(self.ctx)
            except policy.retry_on as error:
                if attempt >= policy.max_attempts:
                    if policy.max_attempts > 1:
                        raise FlowExecutionError(
                            f"node '{node.name}' failed after {attempt} attempts: "
                            f"{error}"
                        ) from error
                    raise
                if policy.backoff_s:
                    time.sleep(policy.backoff_s * attempt)
                attempt += 1


# ----------------------------------------------------------------------
# The flow
# ----------------------------------------------------------------------
class Flow:
    """A validated DAG of nodes with routed/raced alternative groups.

    Parameters
    ----------
    nodes:
        The node set.  Output names must be unique except across the
        members of one alternative group.
    edges:
        Edge expression(s) (DSL text or a pre-parsed
        :class:`~repro.flowgraph.dsl.EdgeGraph`).  Dataflow edges already
        follow from node declarations; the expression adds alternative
        groups and any extra ordering constraints, and every node it
        names must exist.  Optional when no output has multiple
        producers.
    inputs:
        Seed value names callers may provide (``ctx["kernel"]`` …).
        Consuming a value that is neither an input nor some node's output
        is a validation error.
    select:
        ``{output name: Selector}`` (or a callable
        ``(candidates, ctx) -> node name``) for raced groups.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        edges: Union[str, Sequence[str], EdgeGraph, None] = None,
        *,
        name: str = "flow",
        inputs: Sequence[str] = (),
        select: Optional[Mapping[str, Any]] = None,
        description: str = "",
    ) -> None:
        self.name = name
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        self.inputs = tuple(inputs)
        self.select = dict(select or {})
        self.description = description
        if edges is None:
            self.edge_graph = EdgeGraph(nodes=[node.name for node in self.nodes])
        elif isinstance(edges, EdgeGraph):
            self.edge_graph = edges
        else:
            self.edge_graph = parse_edges(edges)
        self.by_name: Dict[str, Node] = {}
        self.producers: Dict[str, List[Node]] = {}
        self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _expression_naming(self, node_name: str) -> str:
        """The edge expression(s) mentioning ``node_name`` (diagnostics)."""
        pattern = re.compile(rf"\b{re.escape(node_name)}\b")
        mentions = [text for text in self.edge_graph.expressions if pattern.search(text)]
        if not mentions:
            return "no edge expression mentions it"
        return "edge expression " + "; ".join(repr(text) for text in mentions)

    def validate(self) -> None:
        """Check the DAG, raising :class:`FlowValidationError` on problems.

        Every message names the offending node and — when one applies —
        the edge expression it came from.
        """
        self.by_name = {}
        for node in self.nodes:
            if node.name in self.by_name:
                raise FlowValidationError(
                    f"flow '{self.name}' declares node '{node.name}' twice"
                )
            self.by_name[node.name] = node

        for referenced in self.edge_graph.nodes:
            if referenced not in self.by_name:
                raise FlowValidationError(
                    f"flow '{self.name}' has no node named '{referenced}' "
                    f"({self._expression_naming(referenced)})"
                )

        # Producers, honouring alternative-group membership and order.
        grouped: Dict[str, Tuple[str, ...]] = {}
        for group in self.edge_graph.groups:
            outputs = {self.by_name[member].output for member in group}
            if len(outputs) != 1:
                detail = ", ".join(
                    f"{member} -> {self.by_name[member].output!r}" for member in group
                )
                raise FlowValidationError(
                    f"alternative group ({' | '.join(group)}) mixes outputs "
                    f"({detail}); every branch of a group must produce the "
                    "same value"
                )
            output = outputs.pop()
            if output in grouped and grouped[output] != group:
                raise FlowValidationError(
                    f"output {output!r} appears in two different alternative "
                    f"groups: ({' | '.join(grouped[output])}) and "
                    f"({' | '.join(group)})"
                )
            grouped[output] = group

        self.producers = {}
        for node in self.nodes:
            self.producers.setdefault(node.output, []).append(node)
        for output, producers in self.producers.items():
            if len(producers) == 1:
                continue
            group = grouped.get(output)
            names = [node.name for node in producers]
            if group is None or set(group) != set(names):
                raise FlowValidationError(
                    f"nodes {names} all produce output {output!r} without "
                    "forming one alternative group; declare them as "
                    f"({' | '.join(names)}) in an edge expression"
                )
            # Group declaration order is routing order.
            self.producers[output] = [self.by_name[member] for member in group]

        # Every consumed value must be producible or a declared input.
        for node in self.nodes:
            for value in dict.fromkeys(node.inputs):
                if value in self.producers or value in self.inputs:
                    continue
                raise FlowValidationError(
                    f"node '{node.name}' consumes {value!r}, which no node "
                    f"produces and which is not a declared flow input "
                    f"(inputs: {list(self.inputs)}; "
                    f"{self._expression_naming(node.name)})"
                )

        # Type agreement along dataflow edges.
        for node in self.nodes:
            for value, expected in node.input_types.items():
                for producer in self.producers.get(value, ()):  # seeds unchecked
                    produced = producer.output_type
                    if produced is not None and not issubclass(produced, expected):
                        raise FlowValidationError(
                            f"node '{node.name}' expects {value!r} to be "
                            f"{expected.__name__}, but node '{producer.name}' "
                            f"produces {produced.__name__}"
                        )

        # Selector sanity.
        for output in self.select:
            if output not in self.producers:
                raise FlowValidationError(
                    f"flow '{self.name}' declares a selector for {output!r}, "
                    "which no node produces"
                )

        self._check_acyclic()

    def _check_acyclic(self) -> None:
        successors: Dict[str, List[str]] = {node.name: [] for node in self.nodes}
        for node in self.nodes:
            for value in node.inputs:
                for producer in self.producers.get(value, ()):
                    successors[producer.name].append(node.name)
        for upstream, downstream in self.edge_graph.edges:
            if downstream not in successors[upstream]:
                successors[upstream].append(downstream)

        WHITE, GRAY, BLACK = 0, 1, 2
        colour = {name: WHITE for name in successors}
        stack: List[str] = []

        def visit(name: str) -> None:
            colour[name] = GRAY
            stack.append(name)
            for successor in successors[name]:
                if colour[successor] == GRAY:
                    start = stack.index(successor)
                    cycle = stack[start:] + [successor]
                    raise FlowValidationError(
                        f"flow '{self.name}' has a cycle: "
                        f"{' -> '.join(cycle)} "
                        f"({self._expression_naming(successor)})"
                    )
                if colour[successor] == WHITE:
                    visit(successor)
            stack.pop()
            colour[name] = BLACK

        for name in colour:
            if colour[name] == WHITE:
                visit(name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def outputs(self) -> Tuple[str, ...]:
        """Terminal value names: produced but consumed by no node."""
        consumed = {value for node in self.nodes for value in node.inputs}
        return tuple(output for output in self.producers if output not in consumed)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _store(self, store: Any) -> Any:
        if store is not None:
            return store
        # Imported lazily: repro.engine imports repro.mapping, which in
        # turn imports this module.
        from repro.engine.artifacts import ArtifactStore

        return ArtifactStore(None)

    def run(
        self,
        values: Optional[Mapping[str, Any]] = None,
        outputs: Optional[Sequence[str]] = None,
        *,
        context: Optional[FlowContext] = None,
        keys: Optional[Mapping[str, str]] = None,
        store: Any = None,
        stats: Optional[PipelineStats] = None,
    ) -> FlowContext:
        """Resolve ``outputs`` (default: every terminal output) and return
        the context holding values, keys, artifacts and the routing record."""
        ctx = context if context is not None else FlowContext(values, keys)
        runtime = _Runtime(self, ctx, self._store(store), stats or PipelineStats())
        ctx._runtime = runtime
        for output in outputs if outputs is not None else self.outputs:
            runtime.resolve_value(output)
        return ctx

    def resolve(
        self,
        output: str,
        values: Optional[Mapping[str, Any]] = None,
        **kwargs: Any,
    ) -> Artifact:
        """Resolve one output and return its :class:`Artifact`."""
        ctx = self.run(values, outputs=(output,), **kwargs)
        return ctx.artifact(output)
