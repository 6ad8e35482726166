"""Command-line interface: ``python -m repro <command>``.

Every command is a thin request builder over the typed service façade
(:mod:`repro.service`): arguments become
:class:`~repro.service.requests.ScheduleRequest` /
:class:`~repro.service.requests.EvaluationRequest` objects, names
resolve through the scheduler/machine registries, and one
:class:`~repro.service.session.ReproService` session per invocation
owns the worker pool (and the response cache every figure panel within
that invocation shares).

Commands:

* ``schedule`` — schedule one kernel (or a JSON loop file) on a machine
  with one algorithm; prints the kernel listing and the statistics.
* ``evaluate`` — run a figure panel of the paper's evaluation on the
  synthetic suite and print the table (optionally CSV/JSON).
* ``workloads`` — describe the synthetic suite's loop shapes.
* ``machines`` — list the built-in machine configurations.
* ``cache`` — inspect a content-addressed result store
  (``stats`` / ``verify`` / ``clear``).

``evaluate`` takes ``--store SPEC`` to attach a persistent
content-addressed result store (``disk``, ``disk:PATH`` or a bare
path): identical requests across invocations are replayed from
the store byte-identically instead of re-scheduled, and a cache
counters line goes to stderr so pipelines can assert replay rates
without disturbing stdout.  The store is the only cache that outlives
an invocation.

``evaluate`` takes ``--suite paper|extended`` to pick the
workload tier (the paper's 40 loops vs. the 220-loop production-scale
tier) and ``--jobs N`` to fan per-loop scheduling out over N worker
processes (``0`` = one per CPU; results are bit-identical to ``--jobs
1``).  The panel's four requests go to the session's
``evaluate_many`` as one batch, so they share one worker pool; chunk
size and worker start method are chosen automatically.
Every modulo schedule is validated from its raw placements and value
ledger, in the process that produced it.  ``evaluate --verify`` is the
slow paranoid mode: the engine also cross-checks its incremental state
against the reference recomputes at every commit, and its reservation
table against the structural sweeps at the end of each attempt.
``schedule`` always runs in that mode.

Runs fail fast: the schedulers are deterministic, so nothing is
retried.  A loop that fails to schedule or validate, or a worker that
dies, ends the run with exit code 1 and an ``error:`` line on stderr
naming the benchmark, loop and scheduler — the same at every ``--jobs``.
A ``schedule --loop-file`` that is missing, not JSON or lacks a field
ends the same way: exit 1, one ``error:`` line, nothing on stdout.

Examples::

    python -m repro schedule --kernel daxpy --machine 2x32 --algorithm gp
    python -m repro schedule --loop-file loop.json --machine 4x64
    python -m repro evaluate --clusters 4 --registers 32 --programs 3
    python -m repro evaluate --suite extended --jobs 0
    python -m repro workloads --program swim
    python -m repro machines
    python -m repro evaluate --store disk:~/.cache/repro/store
    python -m repro cache stats --store disk
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .errors import ReproError
from .ir.serialize import load as load_loop
from .ir.stats import describe
from .machine.presets import table1_configurations
from .schedule.expand import render_kernel
from .service import (
    MACHINES,
    SCHEDULERS,
    ReproService,
    RequestError,
    ScheduleRequest,
)
from .workloads.kernels import KERNELS
from .workloads.spec import (
    PROGRAM_NAMES,
    SUITE_TIERS,
    make_benchmark,
    make_extended_benchmark,
    suite_for_tier,
)


def _cmd_schedule(args: argparse.Namespace) -> int:
    if args.loop_file:
        request = ScheduleRequest(
            loop=load_loop(args.loop_file),
            machine=args.machine,
            scheduler=args.algorithm,
            # One interactive loop: the paranoid checks are nearly free
            # and keep this command's validation engine-independent.
            verify=True,
        )
    else:
        if args.kernel not in KERNELS:
            print(
                f"unknown kernel {args.kernel!r}; available: {sorted(KERNELS)}",
                file=sys.stderr,
            )
            return 2
        request = ScheduleRequest(
            kernel=args.kernel,
            machine=args.machine,
            scheduler=args.algorithm,
            verify=True,
        )
    with ReproService() as service:
        outcome = service.schedule(request).outcome
    print(describe(outcome.loop))
    print(f"machine: {outcome.machine.describe()}")
    print()
    if outcome.is_modulo:
        schedule = outcome.schedule
        print(render_kernel(schedule))
        print()
        stats = schedule.stats
        print(
            f"II={schedule.ii} stages={schedule.stage_count} "
            f"IPC={outcome.ipc():.3f} bus={stats.bus_transfers} "
            f"mem-comms={stats.mem_comms} spills={stats.spills} "
            f"attempts={stats.ii_attempts}"
        )
    else:
        print(
            f"modulo scheduling not profitable; list schedule of "
            f"{outcome.schedule.length} cycles/iteration, IPC={outcome.ipc():.3f}"
        )
    return 0


def _pick_suite(args: argparse.Namespace):
    # The CLI slices the tier itself (an explicit-suite request keeps
    # fingerprints and store keys stable), so it repeats the request's
    # own bound: a negative slice would silently drop programs.
    if args.programs < 0:
        raise RequestError(f"programs must be >= 0, got {args.programs}")
    suite = suite_for_tier(args.suite)
    return suite[: args.programs] if args.programs else suite


def _service_for(args: argparse.Namespace) -> ReproService:
    """The in-process session for one CLI run, from the suite options."""
    return ReproService(jobs=args.jobs, store=args.store)


def _cache_stats_line(service: ReproService) -> str:
    """The stderr cache/store counters line (stdout stays byte-clean).

    Session-level ``cache:`` counters first (a warm replay shows
    ``misses=0``), then the attached store's own counters.
    """
    return (
        f"cache: hits={service.cache_hits} misses={service.cache_misses}  "
        "store: backend={backend} entries={entries} bytes={bytes} "
        "hits={hits} misses={misses}".format(
            **service.store.stats()
        )
    )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .eval.export import figure_to_csv, figure_to_json
    from .eval.figures import figure2_panel, figure3_panel

    suite = _pick_suite(args)
    with _service_for(args) as service:
        if args.bus_latency == 2:
            panel = figure3_panel(
                args.registers, suite=suite, verify=args.verify,
                service=service,
            )
        else:
            panel = figure2_panel(
                args.clusters, args.registers, suite=suite,
                verify=args.verify, service=service,
            )
        stats_line = _cache_stats_line(service) if args.store else None
    if args.format == "csv":
        print(figure_to_csv(panel), end="")
    elif args.format == "json":
        print(figure_to_json(panel))
    else:
        print(panel.render())
        print()
        print(
            f"GP over URACAM: {panel.gain_percent('gp', 'uracam'):+.1f}%  "
            f"GP over Fixed: {panel.gain_percent('gp', 'fixed-partition'):+.1f}%"
        )
    if stats_line:
        print(stats_line, file=sys.stderr)
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    make = make_benchmark if args.suite == "paper" else make_extended_benchmark
    names = [args.program] if args.program else list(PROGRAM_NAMES)
    for name in names:
        benchmark = make(name)
        print(f"{name}: ({len(benchmark.loops)} loops)")
        for loop in benchmark.loops:
            print(f"  {describe(loop)}")
    return 0


def _check_entries(store):
    """Decode every entry and cross-check its content address.

    Returns ``(verified count, stale, corrupt)``; the last two list
    ``(fingerprint, reason)``.  An intact entry of another codec schema
    (written before a schema bump) is stale: no current request reads
    it, but nothing in it is damaged.
    """
    from .errors import CodecError, StaleSchemaError
    from .service.codec import loads_response

    ok = 0
    stale, corrupt = [], []
    for fingerprint in store.keys():
        try:
            text = store.get(fingerprint)
            if text is None:
                continue
            response = loads_response(text)
            if response.meta.fingerprint != fingerprint:
                raise CodecError(
                    f"entry {fingerprint[:12]} holds a response "
                    f"fingerprinted {response.meta.fingerprint[:12]}"
                )
        except StaleSchemaError as error:
            stale.append((fingerprint, str(error)))
        except CodecError as error:
            corrupt.append((fingerprint, str(error)))
        else:
            ok += 1
    return ok, stale, corrupt


def _entries(count: int, kind: str = "") -> str:
    """``"1 entry"``, ``"2 stale entries"`` …"""
    return f"{count} {kind + ' ' if kind else ''}entr{'y' if count == 1 else 'ies'}"


def _cmd_cache(args: argparse.Namespace) -> int:
    from .service.store import open_store

    store = open_store(args.store)
    try:
        if args.action == "stats":
            stats = store.stats()
            _ok, stale, _corrupt = _check_entries(store)
            print(f"backend:   {stats['backend']}")
            print(f"root:      {store.root}")
            print(f"entries:   {stats['entries']}")
            print(f"stale:     {len(stale)}")
            print(f"bytes:     {stats['bytes']}")
            return 0
        if args.action == "clear":
            removed = store.clear()
            print(f"removed {_entries(removed)}")
            return 0
        ok, stale, corrupt = _check_entries(store)
        print(f"verified {_entries(ok)}")
        hint = "" if args.purge else " (re-run with --purge to drop them)"
        for label, found in (("stale", stale), ("corrupt", corrupt)):
            for fingerprint, reason in found:
                if args.purge:
                    store.delete(fingerprint)
                action = "purged" if args.purge else label
                print(f"{action}: {fingerprint} ({reason})", file=sys.stderr)
            if found:
                print(_entries(len(found), label) + hint, file=sys.stderr)
        return 1 if corrupt and not args.purge else 0
    finally:
        store.close()


def _cmd_machines(args: argparse.Namespace) -> int:
    print("Table 1 configurations:")
    for config in table1_configurations():
        print(f"  {config.describe()}")
    print("DSP presets:")
    for name in MACHINES.names():
        print(f"  {name}: {MACHINES.resolve(name).describe()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph-partitioning based instruction scheduling "
        "for clustered processors (MICRO-34 2001 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="schedule one loop")
    p_sched.add_argument("--kernel", default="daxpy",
                         help=f"built-in kernel ({', '.join(sorted(KERNELS))})")
    p_sched.add_argument("--loop-file", default=None,
                         help="JSON loop file (overrides --kernel)")
    p_sched.add_argument("--machine", default="2x32",
                         help="NxR[xB[xL]] or c6x/lx/tigersharc")
    p_sched.add_argument("--algorithm", default="gp",
                         choices=SCHEDULERS.names())
    p_sched.set_defaults(func=_cmd_schedule)

    p_eval = sub.add_parser("evaluate", help="run a figure panel")
    p_eval.add_argument("--clusters", type=int, default=2, choices=(2, 4))
    p_eval.add_argument("--registers", type=int, default=32, choices=(32, 64))
    p_eval.add_argument("--bus-latency", type=int, default=1, choices=(1, 2))
    p_eval.add_argument("--verify", action="store_true",
                        help="paranoid mode: cross-check the engine's "
                        "incremental state and reservation table against "
                        "the reference recomputes (every schedule is "
                        "validated from scratch either way)")
    p_eval.add_argument("--suite", default="paper", choices=SUITE_TIERS,
                        help="workload tier: the paper's 40 loops or the "
                        "220-loop extended tier")
    p_eval.add_argument("--programs", type=int, default=0,
                        help="limit to the first N programs (0 = all)")
    p_eval.add_argument("--jobs", type=int, default=1,
                        help="worker processes for per-loop scheduling "
                        "(1 = sequential, 0 = one per CPU)")
    p_eval.add_argument("--store", default=None, metavar="SPEC",
                        help="content-addressed result store: 'disk' "
                        "(the default cache root), 'disk:PATH' or a bare "
                        "path; identical requests replay from the "
                        "store byte-identically across invocations")
    p_eval.add_argument("--format", default="table",
                        choices=("table", "csv", "json"))
    p_eval.set_defaults(func=_cmd_evaluate)

    p_cache = sub.add_parser(
        "cache",
        help="inspect a content-addressed result store",
    )
    p_cache.add_argument("action", choices=("stats", "verify", "clear"),
                         help="stats: counters and size; verify: decode "
                         "every entry and cross-check its content "
                         "address (entries of an older codec schema are "
                         "reported as stale and do not fail it); clear: "
                         "delete every entry")
    p_cache.add_argument("--store", default="disk", metavar="SPEC",
                         help="store spec: 'disk' (default), "
                         "'disk:PATH' or a bare path")
    p_cache.add_argument("--purge", action="store_true",
                         help="with verify: delete the stale and corrupt "
                         "entries found instead of just reporting them")
    p_cache.set_defaults(func=_cmd_cache)

    p_work = sub.add_parser("workloads", help="describe the synthetic suite")
    p_work.add_argument("--program", default=None, choices=PROGRAM_NAMES)
    p_work.add_argument("--suite", default="paper", choices=SUITE_TIERS)
    p_work.set_defaults(func=_cmd_workloads)

    p_mach = sub.add_parser("machines", help="list machine configurations")
    p_mach.set_defaults(func=_cmd_machines)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
