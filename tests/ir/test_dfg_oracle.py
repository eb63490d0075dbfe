"""The DFG's adjacency dicts against networkx, the graph library it replaced.

networkx is a development dependency only: this module is its one user.
Every order the mapping stages read from a DFG (topological order, edges,
predecessors, successors) must equal what a ``networkx.DiGraph`` built by
the same insertion sequence gives, because those orders feed priorities,
schedules, ``to_dict()`` and with it every DFG fingerprint and artifact key.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.jobs import SUITE_NAMES, suite_kernels
from repro.errors import DFGValidationError
from repro.ir import DFG, Operation, OpType


@st.composite
def random_graph(draw, acyclic: bool = True):
    """(node insertion order, edges in insertion order with their ports).

    Acyclic graphs only draw edges that go forward in a hidden random
    ranking of the nodes, so neither insertion order nor name order is a
    topological order.
    """
    size = draw(st.integers(min_value=0, max_value=12))
    nodes = draw(st.permutations([f"n{index}" for index in range(size)]))
    rank = {node: position for position, node in enumerate(draw(st.permutations(nodes)))}
    pairs = [
        (producer, consumer)
        for producer in nodes
        for consumer in nodes
        if producer != consumer and (not acyclic or rank[producer] < rank[consumer])
    ]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    ports = draw(
        st.lists(
            st.sampled_from([None, 0, 1]), min_size=len(chosen), max_size=len(chosen)
        )
    )
    return nodes, [(u, v, port) for (u, v), port in zip(chosen, ports)]


def build_both(nodes, edges):
    """The same insertion sequence applied to a DFG and a networkx graph."""
    dfg = DFG("random")
    graph = nx.DiGraph()
    for node in nodes:
        dfg.add_operation(Operation(node, OpType.ADD))
        graph.add_node(node)
    for producer, consumer, port in edges:
        dfg.add_dependence(producer, consumer, port=port)
        graph.add_edge(producer, consumer, port=port)
    return dfg, graph


def networkx_graph(dfg: DFG) -> nx.DiGraph:
    """A networkx graph with the DFG's node order and per-node edge order."""
    graph = nx.DiGraph()
    graph.add_nodes_from(dfg)
    for producer, consumer in dfg.edges():
        graph.add_edge(producer, consumer, port=dfg.port(producer, consumer))
    return graph


@given(random_graph())
@settings(max_examples=200, deadline=None)
def test_orders_match_networkx_on_random_dags(drawn):
    nodes, edges = drawn
    dfg, graph = build_both(nodes, edges)
    assert dfg.topological_order() == list(nx.topological_sort(graph))
    assert dfg.is_acyclic()
    assert list(dfg) == nodes
    assert dfg.edges() == list(graph.edges())
    assert dfg.number_of_edges() == graph.number_of_edges() == len(edges)
    for node in nodes:
        assert dfg.predecessors(node) == [u for u, v, _ in edges if v == node]
        assert dfg.successors(node) == [v for u, v, _ in edges if u == node]
        assert dfg.predecessors(node) == list(graph.predecessors(node))
        assert dfg.successors(node) == list(graph.successors(node))
    for producer, consumer, port in edges:
        assert dfg.port(producer, consumer) == port


@given(random_graph(acyclic=False))
@settings(max_examples=200, deadline=None)
def test_is_acyclic_matches_networkx_on_random_digraphs(drawn):
    dfg, graph = build_both(*drawn)
    acyclic = nx.is_directed_acyclic_graph(graph)
    assert dfg.is_acyclic() == acyclic
    if acyclic:
        assert dfg.topological_order() == list(nx.topological_sort(graph))
    else:
        with pytest.raises(DFGValidationError):
            dfg.topological_order()


@pytest.mark.parametrize(
    "suite, kernel",
    [(suite, kernel) for suite in SUITE_NAMES for kernel in suite_kernels(suite)],
    ids=lambda value: value if isinstance(value, str) else value.name,
)
def test_suite_kernels_match_networkx(suite, kernel):
    dfg = kernel.build()
    graph = networkx_graph(dfg)
    assert dfg.topological_order() == list(nx.topological_sort(graph))
    assert dfg.is_acyclic()
    for name in dfg:
        assert dfg.successors(name) == list(graph.successors(name))
        assert set(dfg.predecessors(name)) == set(graph.predecessors(name))
