"""One plugin registry for every named extension point.

Workloads, atomic-memory variants, telemetry probes and campaign
samplers are all open sets: built-ins and user code register entries
under a name with a class decorator and the rest of the codebase looks
them up by that name.  :class:`Registry` is the single implementation
behind all four — the name check, the ``replace=True`` shadowing escape
hatch, unregistration, and the unknown-name error that lists what *is*
registered.  Each family module binds its public ``register_*`` /
``unregister_*`` / ``get_*`` / ``list_*`` names to one instance.

Two storage styles exist.  Stateless plugins (workloads, variants) are
instantiated once at registration (``instantiate=True``); plugins that
accumulate per-run state (probes, samplers) are stored as classes and
:meth:`Registry.create` builds a fresh instance per use.
"""

from __future__ import annotations

from typing import Callable, Optional

from .engine.errors import ConfigError


class Registry:
    """Name -> plugin map for one family.

    ``family`` names the plugin kind in error messages (``"probe"``);
    ``title`` overrides it in the unknown-name message where a longer
    phrase reads better (``"atomic-memory variant"``).  ``error`` is the
    family's :class:`ConfigError` subclass raised by :meth:`get`.
    ``check(name, entry)`` runs on every new entry before it is stored
    and may raise :class:`ConfigError` to refuse it.
    """

    def __init__(self, family: str, error: type, *,
                 instantiate: bool = False,
                 check: Optional[Callable] = None,
                 title: Optional[str] = None) -> None:
        self.family = family
        self.title = title or family
        self.error = error
        self.instantiate = instantiate
        self.check = check
        self.entries: dict = {}

    def register(self, name: str, *, replace: bool = False):
        """Class decorator registering a plugin under ``name``.

        Re-registering an existing name raises unless ``replace=True``,
        which user code can use to shadow a built-in deliberately.
        The registry sets the entry's ``name`` attribute.
        """
        if not name or not isinstance(name, str):
            raise ConfigError(f"{self.family} name must be a non-empty "
                              f"string, got {name!r}")

        def decorator(cls):
            if name in self.entries and not replace:
                held = self.entries[name]
                holder = type(held) if self.instantiate else held
                raise ConfigError(
                    f"{self.family} {name!r} already registered "
                    f"({holder.__name__}); pass replace=True to shadow it")
            entry = cls() if self.instantiate else cls
            entry.name = name
            if self.check is not None:
                self.check(name, entry)
            self.entries[name] = entry
            return cls

        return decorator

    def unregister(self, name: str) -> None:
        """Remove a registration (mainly for tests tearing down fixtures)."""
        self.entries.pop(name, None)

    def get(self, name: str):
        """The registered entry, or the family's unknown-name error."""
        try:
            return self.entries[name]
        except KeyError:
            raise self.error(
                f"no {self.title} registered under {name!r}; registered: "
                f"{', '.join(sorted(self.entries)) or '(none)'}") from None

    def create(self, name: str, **options):
        """A fresh instance of a registered class; ``options`` go to its
        constructor, and a constructor that rejects them raises
        :class:`ConfigError`."""
        cls = self.get(name)
        try:
            return cls(**options)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.family} {name!r} rejected options "
                              f"{sorted(options)}: {exc}")

    def items(self) -> list:
        """``(name, entry)`` pairs, sorted by name."""
        return sorted(self.entries.items())
