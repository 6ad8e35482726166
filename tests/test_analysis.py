"""Unit tests for II-parametric graph analysis."""

import pytest

from repro.errors import GraphError
from repro.ir.analysis import (
    analyze,
    effective_length,
    max_edge_slack,
    rec_mii,
    strongly_connected_components,
)
from repro.ir.builder import LoopBuilder
from repro.ir.ddg import DataDependenceGraph
from repro.ir.opcodes import FADD, FMUL, LOAD


def chain_graph(lengths=(2, 3, 3)):
    ddg = DataDependenceGraph("chain")
    prev = None
    for i, lat in enumerate(lengths):
        op = ddg.add_operation(FADD if lat == 3 else LOAD, f"n{i}")
        if prev is not None:
            ddg.add_dependence(prev, op)
        prev = op
    return ddg


class TestRecMII:
    def test_acyclic_graph_has_rec_mii_one(self):
        assert rec_mii(chain_graph()) == 1

    def test_self_loop_rec_mii_equals_latency(self):
        ddg = DataDependenceGraph()
        acc = ddg.add_operation(FADD, "acc")
        ddg.add_dependence(acc, acc, distance=1)
        assert rec_mii(ddg) == FADD.latency

    def test_two_node_cycle(self):
        ddg = DataDependenceGraph()
        a = ddg.add_operation(FMUL, "a")
        b = ddg.add_operation(FADD, "b")
        ddg.add_dependence(a, b)
        ddg.add_dependence(b, a, distance=1)
        assert rec_mii(ddg) == FMUL.latency + FADD.latency

    def test_distance_two_halves_the_bound(self):
        ddg = DataDependenceGraph()
        a = ddg.add_operation(FMUL, "a")
        b = ddg.add_operation(FADD, "b")
        ddg.add_dependence(a, b)
        ddg.add_dependence(b, a, distance=2)
        assert rec_mii(ddg) == 3  # ceil(6 / 2)

    def test_empty_graph(self):
        assert rec_mii(DataDependenceGraph()) == 1


class TestSCC:
    def test_chain_has_singleton_components(self):
        comps = strongly_connected_components(chain_graph())
        assert all(len(c) == 1 for c in comps)
        assert len(comps) == 3

    def test_cycle_collapses_to_one_component(self):
        ddg = DataDependenceGraph()
        a = ddg.add_operation(FADD, "a")
        b = ddg.add_operation(FADD, "b")
        c = ddg.add_operation(FADD, "c")
        ddg.add_dependence(a, b)
        ddg.add_dependence(b, a, distance=1)
        ddg.add_dependence(b, c)
        comps = strongly_connected_components(ddg)
        assert [a.uid, b.uid] in comps
        assert [c.uid] in comps

    def test_deterministic_output(self):
        ddg = chain_graph()
        assert strongly_connected_components(ddg) == strongly_connected_components(ddg)


class TestAnalyze:
    def test_asap_follows_latencies(self):
        ddg = chain_graph((2, 3, 3))
        analysis = analyze(ddg, ii=1)
        assert analysis.asap[0] == 0
        assert analysis.asap[1] == 2
        assert analysis.asap[2] == 5

    def test_makespan_is_critical_path(self):
        ddg = chain_graph((2, 3, 3))
        analysis = analyze(ddg, ii=1)
        assert analysis.makespan == 8

    def test_alap_of_sink_equals_asap(self):
        ddg = chain_graph()
        analysis = analyze(ddg, ii=1)
        assert analysis.alap[2] == analysis.asap[2]

    def test_mobility_zero_on_critical_path(self):
        ddg = chain_graph()
        analysis = analyze(ddg, ii=1)
        assert all(analysis.mobility(uid) == 0 for uid in ddg.uids())

    def test_off_critical_node_has_slack(self):
        b = LoopBuilder("diamond")
        x = b.load("x")
        slow = b.op("fdiv", x)      # latency 6
        fast = b.op("fadd", x)      # latency 3
        b.op("fadd", slow, fast)
        analysis = analyze(b.ddg, ii=1)
        fast_uid = fast.uid
        assert analysis.mobility(fast_uid) == 3

    def test_edge_slack_nonnegative_on_feasible_ii(self):
        ddg = chain_graph()
        analysis = analyze(ddg, ii=2)
        assert all(analysis.edge_slack(dep) >= 0 for dep in ddg.edges())

    def test_carried_edges_relax_with_ii(self):
        ddg = DataDependenceGraph()
        a = ddg.add_operation(FMUL, "a")
        b = ddg.add_operation(FADD, "b")
        ddg.add_dependence(a, b)
        ddg.add_dependence(b, a, distance=1)
        tight = analyze(ddg, ii=6)
        loose = analyze(ddg, ii=9)
        back = [d for d in ddg.edges() if d.distance == 1][0]
        assert loose.edge_slack(back) > tight.edge_slack(back)

    def test_ii_below_rec_mii_raises(self):
        ddg = DataDependenceGraph()
        acc = ddg.add_operation(FADD, "acc")
        ddg.add_dependence(acc, acc, distance=1)
        with pytest.raises(GraphError):
            analyze(ddg, ii=1)

    def test_extra_edge_latency_stretches_path(self):
        ddg = chain_graph((2, 3, 3))
        dep = list(ddg.edges())[0]
        base = analyze(ddg, ii=1)
        longer = analyze(ddg, ii=1, extra_edge_latency=(dep, 4))
        assert longer.makespan == base.makespan + 4

    def test_height_plus_depth_bounded_by_makespan(self):
        ddg = chain_graph()
        analysis = analyze(ddg, ii=1)
        for uid in ddg.uids():
            assert analysis.depth(uid) + analysis.height(uid) <= analysis.makespan


class TestHelpers:
    def test_effective_length(self):
        ddg = DataDependenceGraph()
        a = ddg.add_operation(FADD, "a")
        b = ddg.add_operation(FADD, "b")
        dep = ddg.add_dependence(a, b, distance=2)
        assert effective_length(dep, ii=4) == 3 - 8

    def test_max_edge_slack_zero_for_pure_chain(self):
        ddg = chain_graph()
        assert max_edge_slack(ddg, analyze(ddg, ii=1)) == 0
