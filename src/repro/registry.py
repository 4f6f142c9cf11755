"""One name -> implementation table for every plug-in point.

Sigma kernels, execution backends, CI-vector stores, eigensolver methods,
basis sets and the three fault-scenario families each keep one
:class:`Registry`.  A name is taken once: registering it again raises
instead of silently replacing the implementation for the whole process,
and looking up an unknown name raises a ``ValueError`` that lists what is
registered.
"""

from __future__ import annotations

__all__ = ["Registry"]


class Registry:
    """Names mapped to implementations, each name registered at most once.

    ``noun`` and ``plural`` word the errors:
    ``unknown sigma kernel 'x'; registered kernels: dgemm, moc``.
    """

    def __init__(self, noun: str, plural: str):
        self.noun = noun
        self.plural = plural
        self._entries: dict = {}

    def register(self, name: str, obj=None):
        """Register ``obj`` under ``name`` and return it; without ``obj``,
        return a decorator that does so."""
        if obj is None:
            return lambda o: self.register(name, o)
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.noun} name must be a non-empty string")
        if name in self._entries:
            raise ValueError(f"{self.noun} {name!r} is already registered")
        self._entries[name] = obj
        return obj

    def names(self) -> tuple[str, ...]:
        """The registered names, sorted."""
        return tuple(sorted(self._entries))

    def require(self, names) -> None:
        """Raise ``ValueError`` naming every entry of ``names`` not registered."""
        unknown = [n for n in names if n not in self._entries]
        if unknown:
            raise ValueError(
                f"unknown {self.noun} {', '.join(map(repr, unknown))}; "
                f"registered {self.plural}: {', '.join(self.names())}"
            )

    def __getitem__(self, name: str):
        self.require([name])
        return self._entries[name]

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self.names())
