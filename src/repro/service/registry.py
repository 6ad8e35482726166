"""Pluggable scheduler and machine registries.

The research scripts looked schedulers up in a bare ``SCHEDULERS`` dict
and parsed machine specs with a CLI-private helper; the registries give
both lookups one typed home with a uniform contract:

* :class:`SchedulerRegistry` maps names to scheduler classes
  (``unified``/``uracam``/``fixed-partition``/``gp`` are pre-registered)
  and instantiates them against a machine;
* :class:`MachineRegistry` maps names to machine factories (the DSP
  presets are pre-registered) and falls back to the canonical
  ``NxR[xB[xL]]`` spec grammar
  (:func:`repro.machine.spec.parse_machine_spec`);
* both expose a ``@registry.register(name)`` decorator so new schedulers
  and machine presets plug in without touching library code;
* an unknown name raises :class:`RegistryError` — a structured error
  carrying the offending name, the registry kind and the sorted list of
  alternatives, so callers (and users reading the message) see what
  *is* available.

The module-level :data:`SCHEDULERS` and :data:`MACHINES` instances are
the defaults every :class:`~repro.service.session.ReproService` resolves
against; sessions can be handed private registries for isolation.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, List, Optional, TypeVar

from ..errors import ReproError
from ..machine.config import MachineConfig
from ..machine.dsp import DSP_PRESETS
from ..machine.spec import looks_like_machine_spec, parse_machine_spec
from ..schedule.drivers import BaseScheduler
from ..schedule.drivers import SCHEDULERS as _DRIVER_CLASSES

T = TypeVar("T")


class RegistryError(ReproError, KeyError):
    """An unknown name was looked up in a registry.

    Structured: ``name`` is the offending key, ``kind`` the registry's
    entry kind (``"scheduler"`` or ``"machine"``) and ``alternatives``
    the sorted known names, so programmatic callers need not parse the
    message.  Also a ``KeyError``, so callers written against plain
    dict lookups keep catching what they always caught.
    """

    def __init__(self, kind: str, name: str, alternatives: List[str]) -> None:
        self.kind = kind
        self.name = name
        self.alternatives = alternatives
        super().__init__(
            f"unknown {kind} {name!r}; available: {', '.join(alternatives)}"
        )

    def __str__(self) -> str:
        # KeyError.__str__ repr-quotes its argument; keep the message plain.
        return self.args[0]


class Registry(Generic[T]):
    """A name -> entry mapping with a ``@register`` decorator."""

    #: Entry kind used in error messages ("scheduler", "machine").
    kind = "entry"

    def __init__(self) -> None:
        self._entries: Dict[str, T] = {}

    def register(
        self, name: Optional[str] = None
    ) -> Callable[[T], T]:
        """Decorator registering an entry, optionally under ``name``.

        Without an explicit name the entry's ``name`` attribute (the
        scheduler convention) or ``__name__`` is used.  Registering an
        existing name replaces it — tests swap entries in scratch
        registries that way.
        """

        def deco(entry: T) -> T:
            key = name or getattr(entry, "name", None) or entry.__name__
            self._entries[str(key)] = entry
            return entry

        return deco

    def names(self) -> List[str]:
        """Sorted registered names."""
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def _lookup(self, name: str) -> T:
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(self.kind, name, self.names()) from None


class SchedulerRegistry(Registry[type]):
    """Scheduler classes by name, instantiated via :meth:`create`."""

    kind = "scheduler"

    def create(
        self,
        name: str,
        machine: MachineConfig,
        **kwargs,
    ) -> BaseScheduler:
        """Instantiate the named scheduler on ``machine``.

        Keyword arguments are forwarded to the scheduler's constructor
        (``verify``, or a custom ``partitioner`` for the
        partition-guided schedulers).

        Raises:
            RegistryError: for an unknown scheduler name.
        """
        return self._lookup(name)(machine, **kwargs)

    @classmethod
    def with_defaults(cls) -> "SchedulerRegistry":
        """A registry pre-populated with the paper's four schedulers."""
        registry = cls()
        for scheduler_cls in _DRIVER_CLASSES.values():
            registry.register()(scheduler_cls)
        return registry


class MachineRegistry(Registry[Callable[[], MachineConfig]]):
    """Machine factories by name, plus the canonical spec grammar.

    :meth:`resolve` first tries the registered names, then the
    ``NxR[xB[xL]]`` spec grammar, so every string the CLI historically
    accepted resolves here — and unknown names fail with a
    :class:`RegistryError` that names both the alternatives and the
    grammar.
    """

    kind = "machine"

    def resolve(self, spec: str) -> MachineConfig:
        """Resolve a registered preset name or an ``NxR[xB[xL]]`` spec.

        Raises:
            RegistryError: if ``spec`` is neither a registered name nor
                a well-formed machine spec.
            ConfigError: if ``spec`` is a well-formed spec describing an
                invalid machine (e.g. ``2x33``: registers that do not
                divide among the clusters) — the parser's own diagnostic
                is more useful than "unknown machine".
        """
        if spec in self._entries:
            return self._entries[spec]()
        if looks_like_machine_spec(spec):
            return parse_machine_spec(spec)
        raise RegistryError(
            self.kind,
            spec,
            self.names() + ["NxR[xB[xL]] (e.g. 2x32, 4x64x2x2)"],
        )

    @classmethod
    def with_defaults(cls) -> "MachineRegistry":
        """A registry pre-populated with the DSP presets."""
        registry = cls()
        for name, factory in DSP_PRESETS.items():
            registry.register(name)(factory)
        return registry


#: The default registries every :class:`ReproService` resolves against.
SCHEDULERS: SchedulerRegistry = SchedulerRegistry.with_defaults()
MACHINES: MachineRegistry = MachineRegistry.with_defaults()
