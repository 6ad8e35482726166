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
"""

import gc
import weakref

import pytest

from repro.ir import analysis
from repro.schedule import ordering
from repro.service import EvaluationRequest, ReproService, ScheduleRequest
from repro.service import requests
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
