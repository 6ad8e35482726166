"""Data dependence graphs (DDGs) for loop bodies.

A DDG node is an :class:`~repro.ir.operation.Operation`; an edge is a
:class:`Dependence` annotated with a *latency* (minimum cycle separation
between the producer's issue and the consumer's issue) and a *distance*
(number of loop iterations the dependence spans; ``0`` for intra-iteration
dependences, ``>= 1`` for loop-carried ones).

A modulo schedule with initiation interval ``II`` must satisfy, for every
dependence ``u -> v``::

    cycle(v) >= cycle(u) + latency - II * distance

Only ``DATA`` dependences transfer a register value and therefore require an
inter-cluster communication when the endpoints live in different clusters;
``MEM`` and ``SERIAL`` edges merely order operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..errors import GraphError
from .opcodes import Opcode
from .operation import Operation


class DepKind(enum.Enum):
    """Kind of a dependence edge."""

    DATA = "data"      #: register flow dependence (value must be communicated)
    MEM = "mem"        #: memory ordering dependence (no value transfer)
    SERIAL = "serial"  #: other ordering constraints (control, anti, output)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Dependence:
    """A dependence edge ``src -> dst``.

    Attributes:
        src: Producer operation uid.
        dst: Consumer operation uid.
        latency: Minimum issue-cycle separation (usually the producer latency).
        distance: Iteration distance (0 = same iteration).
        kind: Edge kind; only DATA edges carry register values.
    """

    src: int
    dst: int
    latency: int
    distance: int = 0
    kind: DepKind = DepKind.DATA

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise GraphError(f"dependence {self.src}->{self.dst}: negative latency")
        if self.distance < 0:
            raise GraphError(f"dependence {self.src}->{self.dst}: negative distance")

    @property
    def is_loop_carried(self) -> bool:
        """True if the dependence spans at least one iteration."""
        return self.distance > 0

    @property
    def carries_value(self) -> bool:
        """True if a register value flows along this edge."""
        return self.kind is DepKind.DATA


class DataDependenceGraph:
    """A multigraph of operations and dependences for one loop body.

    The graph may contain cycles, but every cycle must include at least one
    loop-carried edge (``distance >= 1``); :meth:`validate` checks this.
    Parallel edges between the same pair of nodes are allowed (e.g. a DATA
    edge and a MEM ordering edge).
    """

    def __init__(self, name: str = "loop") -> None:
        self.name = name
        self._ops: Dict[int, Operation] = {}
        self._succ: Dict[int, List[Dependence]] = {}
        self._pred: Dict[int, List[Dependence]] = {}
        self._next_uid = 0
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_operation(self, opcode: Opcode, name: str = "") -> Operation:
        """Create a new operation node and return it."""
        op = Operation(self._next_uid, opcode, name)
        self._ops[op.uid] = op
        self._succ[op.uid] = []
        self._pred[op.uid] = []
        self._next_uid += 1
        return op

    def add_dependence(
        self,
        src: Operation,
        dst: Operation,
        latency: Optional[int] = None,
        distance: int = 0,
        kind: DepKind = DepKind.DATA,
    ) -> Dependence:
        """Add a dependence edge; latency defaults to the producer's latency.

        Raises:
            GraphError: if either endpoint is not a node of this graph, or a
                zero-distance self-edge is requested.
        """
        for op in (src, dst):
            if op.uid not in self._ops or self._ops[op.uid] is not op:
                raise GraphError(f"operation {op!r} does not belong to graph {self.name!r}")
        if src.uid == dst.uid and distance == 0:
            raise GraphError(f"zero-distance self dependence on op {src.uid}")
        if kind is DepKind.DATA and src.is_store:
            raise GraphError(f"store op {src.uid} cannot produce a DATA value")
        dep = Dependence(
            src.uid,
            dst.uid,
            latency=src.latency if latency is None else latency,
            distance=distance,
            kind=kind,
        )
        self._succ[src.uid].append(dep)
        self._pred[dst.uid].append(dep)
        self._num_edges += 1
        return dep

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def operation(self, uid: int) -> Operation:
        """Return the operation with the given uid."""
        try:
            return self._ops[uid]
        except KeyError:
            raise GraphError(f"no operation with uid {uid} in graph {self.name!r}") from None

    @property
    def op_table(self) -> Mapping[int, Operation]:
        """The uid -> operation table itself, for hot loops that index it
        directly instead of calling :meth:`operation` per uid.  Read-only
        by contract: build graphs through :meth:`add_operation`."""
        return self._ops

    def operations(self) -> List[Operation]:
        """All operations, in creation (uid) order."""
        return [self._ops[uid] for uid in sorted(self._ops)]

    def uids(self) -> List[int]:
        """All operation uids, sorted."""
        return sorted(self._ops)

    def edges(self) -> Iterator[Dependence]:
        """Iterate over all dependence edges."""
        for uid in sorted(self._succ):
            yield from self._succ[uid]

    def edges_replayable(self) -> List[Dependence]:
        """Every edge once, in an order whose replay rebuilds this graph
        *exactly* — same ``out_edges`` and same ``in_edges`` orders.

        :meth:`edges` groups by producer and therefore loses the
        interleaving of each consumer's in-edge list; schedulers break
        ties by adjacency-list order, so a graph rebuilt from it can
        schedule differently despite being structurally equal.  This
        order is a deterministic merge of both projections: an edge is
        emitted only when it is next in *both* its producer's out-list
        and its consumer's in-list.  Such a merge always completes,
        because the original insertion order satisfies both projections.
        """
        succ_pos = {uid: 0 for uid in self._succ}
        pred_pos = {uid: 0 for uid in self._pred}
        ordered: List[Dependence] = []
        total = self.num_edges
        uids = sorted(self._succ)
        while len(ordered) < total:
            emitted = False
            for uid in uids:
                out = self._succ[uid]
                while succ_pos[uid] < len(out):
                    dep = out[succ_pos[uid]]
                    incoming = self._pred[dep.dst]
                    if incoming[pred_pos[dep.dst]] is not dep:
                        break
                    ordered.append(dep)
                    succ_pos[uid] += 1
                    pred_pos[dep.dst] += 1
                    emitted = True
            if not emitted:  # pragma: no cover - defensive
                raise GraphError(
                    f"graph {self.name!r} has inconsistent adjacency orders"
                )
        return ordered

    def out_edges(self, uid: int) -> List[Dependence]:
        """Dependences whose producer is ``uid``."""
        return list(self._succ[uid])

    def in_edges(self, uid: int) -> List[Dependence]:
        """Dependences whose consumer is ``uid``."""
        return list(self._pred[uid])

    def successors(self, uid: int) -> List[int]:
        """Distinct consumer uids of ``uid`` (stable order)."""
        seen, out = set(), []
        for dep in self._succ[uid]:
            if dep.dst not in seen:
                seen.add(dep.dst)
                out.append(dep.dst)
        return out

    def predecessors(self, uid: int) -> List[int]:
        """Distinct producer uids of ``uid`` (stable order)."""
        seen, out = set(), []
        for dep in self._pred[uid]:
            if dep.src not in seen:
                seen.add(dep.src)
                out.append(dep.src)
        return out

    def consumers_of_value(self, uid: int) -> List[Dependence]:
        """DATA out-edges of ``uid`` — the uses of the value it defines."""
        return [dep for dep in self._succ[uid] if dep.carries_value]

    @property
    def num_operations(self) -> int:
        return len(self._ops)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def revision(self) -> int:
        """Mutation count: each :meth:`add_operation`/:meth:`add_dependence`
        raises it by one (see :func:`memo_get`)."""
        return self._next_uid + self._num_edges

    def count_by_class(self) -> Dict[str, int]:
        """Number of operations per functional-unit class (by class value)."""
        counts: Dict[str, int] = {}
        for op in self._ops.values():
            key = op.op_class.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Validation and export
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants.

        Raises:
            GraphError: if any zero-distance cycle exists (the loop body must
                be acyclic once loop-carried edges are removed).
        """
        # Kahn's algorithm over zero-distance edges only.
        indeg = {uid: 0 for uid in self._ops}
        for dep in self.edges():
            if dep.distance == 0:
                indeg[dep.dst] += 1
        ready = [uid for uid, d in indeg.items() if d == 0]
        visited = 0
        while ready:
            uid = ready.pop()
            visited += 1
            for dep in self._succ[uid]:
                if dep.distance == 0:
                    indeg[dep.dst] -= 1
                    if indeg[dep.dst] == 0:
                        ready.append(dep.dst)
        if visited != len(self._ops):
            raise GraphError(
                f"graph {self.name!r} has a cycle with zero total iteration distance"
            )

    def topological_order(self) -> List[int]:
        """Topological order of uids ignoring loop-carried edges.

        Deterministic: ties broken by uid.  Assumes :meth:`validate` passes.
        """
        indeg = {uid: 0 for uid in self._ops}
        for dep in self.edges():
            if dep.distance == 0:
                indeg[dep.dst] += 1
        import heapq

        heap = [uid for uid, d in indeg.items() if d == 0]
        heapq.heapify(heap)
        order: List[int] = []
        while heap:
            uid = heapq.heappop(heap)
            order.append(uid)
            for dep in self._succ[uid]:
                if dep.distance == 0:
                    indeg[dep.dst] -= 1
                    if indeg[dep.dst] == 0:
                        heapq.heappush(heap, dep.dst)
        if len(order) != len(self._ops):
            raise GraphError(f"graph {self.name!r} is cyclic ignoring distances")
        return order

    def to_dot(self) -> str:
        """Render the graph in Graphviz DOT format (for debugging/examples)."""
        lines = [f'digraph "{self.name}" {{']
        for op in self.operations():
            lines.append(f'  n{op.uid} [label="{op.name}\\n{op.opcode.name}"];')
        for dep in self.edges():
            style = "solid" if dep.kind is DepKind.DATA else "dashed"
            label = f"{dep.latency}"
            if dep.distance:
                label += f",d{dep.distance}"
            lines.append(
                f'  n{dep.src} -> n{dep.dst} [label="{label}", style={style}];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DataDependenceGraph({self.name!r}, ops={self.num_operations}, "
            f"edges={self.num_edges})"
        )


def memo_get(
    memo: Mapping[DataDependenceGraph, Tuple[int, Any]], ddg: DataDependenceGraph
) -> Any:
    """``memo``'s value for ``ddg``, or None unless it was stored (as
    ``(ddg.revision, value)``) at the graph's current revision."""
    entry = memo.get(ddg)
    return entry[1] if entry is not None and entry[0] == ddg.revision else None
