"""Boolean events over named atoms, and the possible worlds they generate.

An event is a Boolean formula over atoms registered in an `AtomRegistry`.
A `Constituent` is one possible world: a truth assignment to every atom in
the registry.  Constituents are enumerated exhaustively (truth-table
semantics); the registry cap keeps that enumeration at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import CapExceeded, PreconditionFailed, UnknownAtom

DEFAULT_ATOM_CAP = 20


class Atom:
    """A named elementary event, bound to one registry."""

    __slots__ = ("name", "index", "registry")

    def __init__(self, name: str, index: int, registry: "AtomRegistry"):
        self.name = name
        self.index = index
        self.registry = registry

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


class AtomRegistry:
    """Ordered registry of atoms; owns the constituent enumeration.

    Atom names are unique and indices are contiguous from zero, and each
    atom has one `Event`, which `atom()` returns on every call, so its
    cached mask serves every formula built on it.  The registry freezes
    the first time its worlds are used: enumerating constituents or
    computing any truth bitmask (`atom_mask`, `full_mask`); each of these
    raises `CapExceeded`, on every call, while the registry holds more
    atoms than its cap, and so never freezes.
    Bitmasks are sized for the atoms present when they are computed and are
    kept, the full mask included, so once frozen `atom()` still returns
    existing atoms but raises `PreconditionFailed` for a new name.
    """

    def __init__(self, names: Iterable[str] = (), cap: int = DEFAULT_ATOM_CAP):
        self.cap = cap
        self._atoms: list[Atom] = []
        self._constituents: Optional[tuple["Constituent", ...]] = None
        self._events: dict[str, Event] = {}
        self._atom_masks: dict[int, int] = {}
        self._full_mask: Optional[int] = None
        self._frozen = False
        for name in names:
            self.atom(name)

    def atom(self, name: str) -> "Event":
        """Return the event for `name`, registering the atom if new."""
        event = self._events.get(name)
        if event is not None:
            return event
        if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
            raise ValueError(f"invalid atom name {name!r}")
        if self._frozen:
            raise PreconditionFailed(
                f"cannot add atom {name!r}: the registry is frozen once "
                "its constituents or truth masks have been computed"
            )
        atom = Atom(name, len(self._atoms), self)
        self._atoms.append(atom)
        event = self._events[name] = Event("atom", (atom,))
        return event

    def atoms(self, *names: str) -> tuple["Event", ...]:
        return tuple(self.atom(n) for n in names)

    @property
    def size(self) -> int:
        return len(self._atoms)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._atoms)

    def constituents(self) -> tuple["Constituent", ...]:
        """All 2^n possible worlds, in lexicographic bit order."""
        if self._constituents is None:
            n = self.size
            if n < 1:
                raise PreconditionFailed("registry has no atoms")
            self._freeze()
            worlds = []
            for k in range(1 << n):
                bits = tuple(bool((k >> (n - 1 - i)) & 1) for i in range(n))
                worlds.append(Constituent(self, k, bits))
            self._constituents = tuple(worlds)
        return self._constituents

    def atom_mask(self, index: int) -> int:
        """Bitmask over constituent indices where atom `index` is true."""
        cached = self._atom_masks.get(index)
        if cached is not None:
            return cached
        # World k has the atom true when bit n - 1 - index of k is set:
        # runs of `half` worlds alternate false and true.  The pattern of
        # the first true run doubles in length until it spans every world.
        worlds = self.full_mask().bit_length()
        half = 1 << (self.size - 1 - index)
        mask = ((1 << half) - 1) << half
        width = 2 * half
        while width < worlds:
            mask |= mask << width
            width *= 2
        self._atom_masks[index] = mask
        return mask

    def full_mask(self) -> int:
        """Bitmask with one bit set per constituent."""
        full = self._full_mask
        if full is None:
            self._freeze()
            full = self._full_mask = (1 << (1 << self.size)) - 1
        return full

    def _freeze(self) -> None:
        """Fix the atom set before its worlds are used; the cap bounds the
        2^n worlds that masks and constituents range over."""
        if self.size > self.cap:
            raise CapExceeded(
                f"{self.size} atoms exceed the constituent-enumeration cap of {self.cap}"
            )
        self._frozen = True

    def __repr__(self) -> str:
        return f"AtomRegistry({list(self.names)!r})"


@dataclass(frozen=True)
class Constituent:
    """One possible world: a truth assignment to every registered atom."""

    registry: AtomRegistry
    index: int
    bits: tuple[bool, ...]

    def truth(self, atom_name: str) -> bool:
        event = self.registry._events.get(atom_name)
        if event is None:
            raise UnknownAtom(f"atom {atom_name!r} is not registered")
        return self.bits[event.args[0].index]

    def label(self) -> str:
        """Compact rendering such as `A !B H`."""
        parts = []
        for atom, value in zip(self.registry._atoms, self.bits):
            parts.append(atom.name if value else f"!{atom.name}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<{self.label()}>"


class Event:
    """A Boolean formula: `true`, `false`, an atom, or not/and/or nodes.

    Events are immutable, combinable with `&`, `|` and `~`, and compared
    semantically: two events are equal when they evaluate identically at
    every constituent of their registry.
    """

    __slots__ = ("kind", "args", "_mask")

    def __init__(self, kind: str, args: tuple = ()):
        self.kind = kind
        self.args = args
        self._mask: Optional[tuple[AtomRegistry, int]] = None

    # -- construction -------------------------------------------------

    def __and__(self, other: "Event") -> "Event":
        return Event("and", (self, _as_event(other)))

    def __or__(self, other: "Event") -> "Event":
        return Event("or", (self, _as_event(other)))

    def __invert__(self) -> "Event":
        if self.kind == "not":
            return self.args[0]
        return Event("not", (self,))

    # -- semantics ----------------------------------------------------

    def mask(self, registry: AtomRegistry) -> int:
        """Truth bitmask over the registry's constituents (bit k = world k).

        The last mask is cached with the registry object it was computed
        for and reused only for that object.  It cannot go stale: a mask
        whose width depends on the atom count freezes the registry.  The
        shared constants `TRUE` and `FALSE` are not cached, so that they
        keep no registry alive.
        """
        if self.kind == "true":
            return registry.full_mask()
        if self.kind == "false":
            return 0
        cached = self._mask
        if cached is not None and cached[0] is registry:
            return cached[1]
        if self.kind == "atom":
            atom = self.args[0]
            if atom.registry is not registry:
                raise UnknownAtom(
                    f"atom {atom.name!r} belongs to a different registry"
                )
            m = registry.atom_mask(atom.index)
        elif self.kind == "not":
            m = registry.full_mask() & ~self.args[0].mask(registry)
        elif self.kind == "and":
            m = self.args[0].mask(registry) & self.args[1].mask(registry)
        else:  # or
            m = self.args[0].mask(registry) | self.args[1].mask(registry)
        self._mask = (registry, m)
        return m

    def registry(self) -> Optional[AtomRegistry]:
        """The registry referenced by this formula, None for constants."""
        if self.kind == "atom":
            return self.args[0].registry
        for sub in self.args:
            if isinstance(sub, Event):
                reg = sub.registry()
                if reg is not None:
                    return reg
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return equivalent(self, other)

    __hash__ = None  # semantic equality; events are not hashable

    def __repr__(self) -> str:
        return f"Event({self!s})"

    def __str__(self) -> str:
        return _format(self, 0)


TRUE = Event("true")
FALSE = Event("false")

_PRECEDENCE = {"or": 1, "and": 2, "not": 3, "atom": 4, "true": 4, "false": 4}


def _format(e: Event, parent_level: int) -> str:
    level = _PRECEDENCE[e.kind]
    if e.kind == "true":
        text = "TOP"
    elif e.kind == "false":
        text = "BOT"
    elif e.kind == "atom":
        text = e.args[0].name
    elif e.kind == "not":
        text = "!" + _format(e.args[0], level)
    else:
        op = " & " if e.kind == "and" else " | "
        text = op.join(_format(a, level) for a in e.args)
    if level < parent_level:
        return f"({text})"
    return text


def _as_event(value: object) -> Event:
    if isinstance(value, Event):
        return value
    raise TypeError(f"expected an Event, got {type(value).__name__}")


def _common_registry(*events: Event) -> Optional[AtomRegistry]:
    registry: Optional[AtomRegistry] = None
    for e in events:
        reg = e.registry()
        if reg is None:
            continue
        if registry is None:
            registry = reg
        elif registry is not reg:
            raise UnknownAtom("events reference different atom registries")
    return registry


def evaluate(event: Event, constituent: Constituent) -> bool:
    """Classical truth-functional evaluation at one possible world."""
    return bool(event.mask(constituent.registry) >> constituent.index & 1)


def implies(a: Event, b: Event, registry: Optional[AtomRegistry] = None) -> bool:
    """True iff `a & ~b` is false at every possible world."""
    reg = registry or _common_registry(a, b)
    if reg is None:
        # Constant formulas: a implies b unless a is true and b is false.
        return not (_const_value(a) and not _const_value(b))
    return a.mask(reg) & ~b.mask(reg) == 0


def is_impossible(event: Event, registry: Optional[AtomRegistry] = None) -> bool:
    """True iff the event evaluates false at every possible world."""
    reg = registry or _common_registry(event)
    if reg is None:
        return not _const_value(event)
    return event.mask(reg) == 0


def equivalent(a: Event, b: Event, registry: Optional[AtomRegistry] = None) -> bool:
    """Truth-table equality over the (shared) registry."""
    try:
        reg = registry or _common_registry(a, b)
    except UnknownAtom:
        return False
    if reg is None:
        return _const_value(a) == _const_value(b)
    return a.mask(reg) == b.mask(reg)


def _const_value(e: Event) -> bool:
    """Evaluate a formula containing no atoms."""
    if e.kind == "true":
        return True
    if e.kind == "false":
        return False
    if e.kind == "not":
        return not _const_value(e.args[0])
    if e.kind == "and":
        return _const_value(e.args[0]) and _const_value(e.args[1])
    if e.kind == "or":
        return _const_value(e.args[0]) or _const_value(e.args[1])
    raise UnknownAtom("atomic event has no constant value")
