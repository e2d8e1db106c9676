"""Typed backend construction options (the former ad-hoc ``**kwargs``).

Backend-specific knobs — look-ahead depths, ``depth_source``, the
resctl allocator, process start methods, stage timeouts — historically
travelled as untyped keyword arguments: a misspelled knob surfaced as a
``TypeError`` deep inside ``__init__``, and nothing checked that a
backend's declared knobs matched its constructor until the first call.
This module collapses that split:

* each :class:`~repro.runtime.backends.base.ExecutionBackend` subclass
  declares its knob set as a frozen dataclass (``options_cls``), every
  field defaulting to ``None`` = "use the backend's built-in default";
* :func:`repro.runtime.backends.register_backend` validates the
  declaration **at registration time**: ``options_cls`` must be a
  frozen :class:`BackendOptions` dataclass and every field must be a
  keyword the backend's ``__init__`` actually accepts — a drifted knob
  fails when the backend registers, not when a user first passes it;
* :func:`resolve_options` turns user kwargs (or an options instance)
  into a validated options object, and an unknown knob raises a
  :class:`~repro.errors.ConfigError` **naming the backend** and
  listing its known options;
* :func:`build_backend` is the one-stop constructor the conformance
  kit and the benches use: ``build_backend(name, session, **knobs)``.

Direct construction (``PipelinedBackend(session, max_depth=4)``) keeps
working — the options layer is the validated front door, not a new
obligation.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ...errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resctl import NodeAllocator


@dataclass(frozen=True)
class BackendOptions:
    """Base options type: a backend with no construction knobs.

    Every field of a subclass must default to ``None`` ("use the
    backend's built-in default"): :meth:`to_kwargs` forwards only the
    knobs a caller actually set, so defaults live in exactly one place
    — the backend constructor.
    """

    def to_kwargs(self) -> dict:
        """The explicitly-set knobs as constructor kwargs."""
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)
                if getattr(self, f.name) is not None}

    @classmethod
    def known_options(cls) -> tuple[str, ...]:
        return tuple(sorted(f.name for f in dataclasses.fields(cls)))


@dataclass(frozen=True)
class LiveOptions(BackendOptions):
    """Knobs every live (non-virtual) plane shares."""

    #: Watchdog on blocking stage handoffs / worker round trips.
    timeout_s: float | None = None


@dataclass(frozen=True)
class ThreadedOptions(LiveOptions):
    """The threaded plane's knobs."""

    #: Producer look-ahead of the Listing-1 prefetch buffer.
    prefetch_depth: int | None = None


@dataclass(frozen=True)
class ProcessOptions(LiveOptions):
    """Knobs of the lock-step process planes."""

    #: Multiprocessing start method (``"fork"``/``"spawn"``); ``None``
    #: picks fork where available.
    mp_context: str | None = None


@dataclass(frozen=True)
class ShardedOptions(ProcessOptions):
    """The sharded (partition-mapped) plane's knobs."""

    #: ``"hash"`` (random assignment) or ``"bfs"`` (locality-aware).
    partitioner: str | None = None
    #: Seed of the partitioner's RNG.
    partition_seed: int | None = None
    #: Per-worker remote-feature-cache capacity in rows (0 = off).
    remote_cache_rows: int | None = None


@dataclass(frozen=True)
class OverlapOptions(LiveOptions):
    """Knobs of the overlapped (adaptive look-ahead) planes."""

    #: Look-ahead every stage buffer starts with.
    initial_depth: int | None = None
    #: Hard cap the adaptive policy can never exceed.
    max_depth: int | None = None
    #: ``"realized"`` (calibrated) or ``"model"`` (analytic) depth
    #: steering — see :class:`~.pipelined.LookaheadControl`.
    depth_source: str | None = None
    #: Node-level depth arbitration across concurrent sessions.
    allocator: "NodeAllocator | None" = None


@dataclass(frozen=True)
class ProcessOverlapOptions(OverlapOptions):
    """The fused process plane: overlap knobs + process knobs."""

    mp_context: str | None = None


def validate_options_cls(backend_cls) -> None:
    """Registration-time check that a backend's declared options match
    its constructor (called by ``register_backend``)."""
    opts_cls = getattr(backend_cls, "options_cls", None)
    name = getattr(backend_cls, "name", backend_cls.__name__)
    if opts_cls is None:
        raise ConfigError(
            f"backend {name!r} declares no options_cls; use "
            f"BackendOptions for a knob-free backend")
    if not (isinstance(opts_cls, type)
            and issubclass(opts_cls, BackendOptions)
            and dataclasses.is_dataclass(opts_cls)):
        raise ConfigError(
            f"backend {name!r}: options_cls must be a BackendOptions "
            f"dataclass, got {opts_cls!r}")
    params = inspect.signature(backend_cls.__init__).parameters
    accepts_var_kw = any(p.kind is inspect.Parameter.VAR_KEYWORD
                         for p in params.values())
    for field in dataclasses.fields(opts_cls):
        if field.default is not None:
            raise ConfigError(
                f"backend {name!r}: option {field.name!r} must default "
                f"to None (constructor owns the real default)")
        if field.name not in params and not accepts_var_kw:
            raise ConfigError(
                f"backend {name!r} declares option {field.name!r} its "
                f"constructor does not accept")


def resolve_options(name: str, options: BackendOptions | None = None,
                    **kwargs) -> BackendOptions:
    """A validated options object for backend ``name``.

    ``options`` (an instance of the backend's ``options_cls``) and/or
    bare kwargs; kwargs layer on top of the instance. Unknown knobs
    raise a :class:`~repro.errors.ConfigError` naming the backend and
    listing what it understands.
    """
    from . import get_backend
    cls = get_backend(name)
    opts_cls: type[BackendOptions] = cls.options_cls
    if options is None:
        options = opts_cls()
    if not isinstance(options, opts_cls):
        raise ConfigError(
            f"backend {name!r} takes {opts_cls.__name__} options, got "
            f"{type(options).__name__} (known options: "
            f"{list(opts_cls.known_options())})")
    known = set(opts_cls.known_options())
    unknown = sorted(set(kwargs) - known)
    if unknown:
        raise ConfigError(
            f"unknown option(s) {unknown} for backend {name!r}; known "
            f"options: {sorted(known)}")
    if kwargs:
        options = dataclasses.replace(options, **kwargs)
    return options


def build_backend(name: str, session,
                  options: BackendOptions | None = None, **kwargs):
    """Construct backend ``name`` over ``session`` with validated,
    typed options — the single front door the conformance kit and the
    benches use (misspelled knobs fail with the backend's name and its
    option list, not a bare ``TypeError``)."""
    from . import get_backend
    cls = get_backend(name)
    opts = resolve_options(name, options, **kwargs)
    return cls(session, **opts.to_kwargs())
