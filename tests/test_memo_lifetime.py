"""Memoized analyses live exactly as long as the loop they describe.

``ir.analysis``, ``schedule.ordering`` and ``service.requests`` memoize
per-graph results in module-level ``WeakKeyDictionary`` memos.  A weak
key lets an entry die with its graph only while no cached value
references that graph: one back-reference keeps the key, its entry and
every other memo's entry for the graph alive for the life of the
process.  These tests schedule fresh loops through the service façade,
drop everything but weak references to their graphs, and check that
the graphs and their memo entries are gone — by reference counting
alone, so a long-lived process neither grows nor makes the cyclic
collector re-walk every loop it ever scheduled.

Every entry also records the graph's ``revision``, so a graph mutated
after its first analysis never gets a stale value back.
"""

import gc
import weakref

import pytest

from repro.errors import GraphError
from repro.ir import analysis
from repro.ir.opcodes import opcode
from repro.schedule import ordering
from repro.service import EvaluationRequest, ReproService, ScheduleRequest
from repro.service import requests
from repro.workloads.kernels import daxpy
from repro.workloads.spec import Benchmark, make_benchmark


def memo_sizes():
    return {
        "rec_mii": len(analysis._REC_MII_CACHE),
        "analyze": len(analysis._ANALYZE_CACHE),
        "order": len(ordering._ORDER_CACHE),
        "ddg_digests": len(requests._DDG_DIGESTS),
    }


def schedule_fresh_loops(scheduler):
    """Schedule two fresh paper loops and evaluate a fresh two-loop
    suite on 4x32; return weak references to every DDG involved and
    the memo sizes while they were alive."""
    scheduled = make_benchmark("tomcatv").loops[:2]
    evaluated = Benchmark(name="swim", loops=make_benchmark("swim").loops[:2])
    with ReproService() as service:
        for loop in scheduled:
            response = service.schedule(
                ScheduleRequest(machine="4x32", scheduler=scheduler, loop=loop)
            )
            assert response.outcome.is_modulo
        response = service.evaluate(
            EvaluationRequest(
                scheduler=scheduler, machine="4x32", suite=(evaluated,)
            )
        )
        assert response.result.average_ipc > 0
    refs = [weakref.ref(loop.ddg) for loop in scheduled + evaluated.loops]
    return refs, memo_sizes()


@pytest.mark.parametrize("scheduler", ["uracam", "fixed-partition", "gp"])
def test_graphs_and_memo_entries_die_with_their_loops(scheduler):
    gc.collect()
    before = memo_sizes()
    gc.disable()
    try:
        refs, during = schedule_fresh_loops(scheduler)
        assert all(during[memo] > before[memo] for memo in before)
        alive = [ref() for ref in refs if ref() is not None]
        assert not alive, "reference counting left scheduled DDGs alive"
    finally:
        gc.enable()
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert memo_sizes() == before


def _with_self_recurrence(loop):
    """Close a latency-9, distance-1 recurrence on ``a*x+y`` (RecMII 9)."""
    fadd = loop.ddg.operation(3)
    loop.ddg.add_dependence(fadd, fadd, latency=9, distance=1)
    return loop


def test_mutating_a_graph_invalidates_every_memo():
    loop = daxpy()
    ddg = loop.ddg

    def fingerprint(of):
        return ScheduleRequest(
            machine="4x32", scheduler="uracam", loop=of
        ).fingerprint()

    assert analysis.rec_mii(ddg) == 1
    assert analysis.analyze(ddg, 1).makespan > 0
    stale_order = list(ordering.sms_order(ddg))
    stale_fingerprint = fingerprint(loop)
    assert all(ddg in memo for memo in (
        analysis._REC_MII_CACHE, analysis._ANALYZE_CACHE,
        ordering._ORDER_CACHE, requests._DDG_DIGESTS,
    ))

    _with_self_recurrence(loop)
    fresh = _with_self_recurrence(daxpy())
    assert analysis.rec_mii(ddg) == analysis.rec_mii(fresh.ddg) == 9
    with pytest.raises(GraphError):
        analysis.analyze(ddg, 1)
    assert ordering.sms_order(ddg) == ordering.sms_order(fresh.ddg)
    assert ordering.sms_order(ddg) != stale_order
    assert fingerprint(loop) == fingerprint(fresh) != stale_fingerprint

    # A new operation invalidates them too.
    added = ddg.add_operation(opcode("fadd"))
    assert added.uid in analysis.analyze(ddg, 9).asap
    assert added.uid in ordering.sms_order(ddg)
    assert fingerprint(loop) != fingerprint(fresh)
