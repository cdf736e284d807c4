"""Base shift spaces and their mixing-hierarchy deciders.

Two kinds of one-sided shift space are supported:

* finite-type shifts given by a finite set of forbidden words, presented
  on a forward-pruned De Bruijn graph, and
* gap-set (spacing) shifts of 0/1 sequences in which the distance
  between any two ones must belong to a declared gap set.

Points are indexed by positive integers starting at 1.  Words are digit
strings (one character per symbol), so alphabets are capped at ten
symbols.  All functions are pure; derived structures are cached per spec
value.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    HorizonExceeded,
    OutputGuardExceeded,
    PreconditionFailed,
    SpecError,
    UndecidableProperty,
)

__all__ = [
    "DEFAULT_HORIZON",
    "DeBruijnGraph",
    "ENUMERATION_GUARD",
    "PropertyVerdict",
    "PROPERTIES",
    "SftSpec",
    "ShiftSpec",
    "SpacingSpec",
    "WINDOW_GUARD",
    "alphabet_of",
    "blocks",
    "build_graph",
    "decide",
    "graph_dot",
    "least_word",
    "mixing_gap_index",
    "partial_extendable",
    "sft",
    "spacing",
    "spec_from_dict",
    "spec_to_dict",
    "word_admissible",
]

DEFAULT_HORIZON = 100_000

PROPERTIES = ("extensible", "transitive", "totally_transitive", "weakly_mixing", "mixing")

_DIGITS = "0123456789"
_ONE_HOT = {c: str.maketrans(_DIGITS, "".join("1" if d == c else "0" for d in _DIGITS)) for c in _DIGITS}


def _normalize_forbidden(words: Iterable[str]) -> tuple[str, ...]:
    """Drop forbidden words that contain another forbidden word.

    A word is compared only with the kept words shorter than it, a length
    at a time: two distinct words of one length never contain each other.
    """
    kept: list[str] = []
    for _, same in itertools.groupby(sorted(set(words), key=len), key=len):
        if kept:
            shorter = tuple(kept)
            same = [w for w in same if not any(f in w for f in shorter)]
        kept += same
    return tuple(sorted(kept))


@dataclass(frozen=True)
class SftSpec:
    """Finite-type shift over {0, ..., alphabet-1} given by forbidden words.

    The forbidden set is normalized on construction, before it is checked:
    a word that contains another forbidden word is dropped unread.
    """

    alphabet: int
    forbidden: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "forbidden", _normalize_forbidden(self.forbidden))
        if not 1 <= self.alphabet <= 10:
            raise SpecError(f"alphabet size must be in [1, 10], got {self.alphabet}")
        digits = _DIGITS[: self.alphabet]
        for w in self.forbidden:
            if not w:
                raise SpecError("forbidden words must be nonempty")
            if w.strip(digits):
                raise SpecError(f"symbol {w.lstrip(digits)[0]!r} out of range in forbidden word {w!r}")

    @property
    def memory(self) -> int:
        return max((len(w) for w in self.forbidden), default=0)


def sft(alphabet: int, forbidden: Iterable[str] = ()) -> SftSpec:
    """Build a finite-type spec; the spec normalizes the forbidden set."""
    return SftSpec(alphabet, forbidden)


@dataclass(frozen=True)
class SpacingSpec:
    """Gap-set shift: 0/1 sequences whose pairwise one-distances avoid ``complement``.

    ``complement`` lists the banned gaps (the gap set is its complement in
    the nonnegative integers), tabulated up to ``horizon``.  For the
    ``cofinite`` class the list is the entire complement; it is sorted and
    deduplicated on construction.  The declared class is trusted metadata:
    weak mixing of a gap-set shift is not decidable from a tabulated prefix.
    """

    declared_class: str
    complement: tuple[int, ...]
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self):
        object.__setattr__(self, "complement", tuple(sorted(set(self.complement))))
        if self.declared_class not in ("cofinite", "thick", "general"):
            raise SpecError(f"unknown gap-set class {self.declared_class!r}")
        if any(c < 1 for c in self.complement):
            raise SpecError("gap 0 is always allowed; complement entries must be >= 1")
        if self.horizon < 1:
            raise SpecError("horizon must be positive")

    @property
    def alphabet(self) -> int:
        return 2


def spacing(declared_class: str, complement: Iterable[int] = (), horizon: int = DEFAULT_HORIZON) -> SpacingSpec:
    """Build a gap-set spec; the spec sorts the banned-gap list."""
    return SpacingSpec(declared_class, complement, horizon)


ShiftSpec = Union[SftSpec, SpacingSpec]


def alphabet_of(spec: ShiftSpec) -> int:
    return spec.alphabet


def spec_to_dict(spec: ShiftSpec) -> dict:
    """Normalized JSON form of a spec (round-trips through spec_from_dict)."""
    if isinstance(spec, SftSpec):
        return {"kind": "sft", "alphabet": spec.alphabet, "forbidden": list(spec.forbidden)}
    return {
        "kind": "spacing",
        "class": spec.declared_class,
        "complement": list(spec.complement),
        "horizon": spec.horizon,
    }


def _typed(value, kind: type, what: str):
    """The value, if it is a ``kind`` (a bool is no int); SpecError otherwise, never a coercion."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SpecError(f"malformed {what}: expected {kind.__name__}, got {value!r}")
    return value


def spec_from_dict(data: dict) -> ShiftSpec:
    """Parse the JSON shift-spec format; forbidden sets are normalized."""
    if not isinstance(data, dict) or "kind" not in data:
        raise SpecError("shift spec must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "sft":
        if "alphabet" not in data:
            raise SpecError("malformed finite-type spec: missing 'alphabet'")
        alphabet = _typed(data["alphabet"], int, "finite-type spec: 'alphabet'")
        forbidden = [_typed(w, str, "forbidden word") for w in _typed(data.get("forbidden", []), list, "'forbidden'")]
        return sft(alphabet, forbidden)
    if kind == "spacing":
        if "class" not in data:
            raise SpecError("malformed gap-set spec: missing 'class'")
        cls = _typed(data["class"], str, "gap-set spec: 'class'")
        complement = [_typed(c, int, "banned gap") for c in _typed(data.get("complement", []), list, "'complement'")]
        horizon = _typed(data.get("horizon", DEFAULT_HORIZON), int, "gap-set spec: 'horizon'")
        return spacing(cls, complement, horizon)
    raise SpecError(f"unknown spec kind {kind!r}")


@dataclass(frozen=True)
class PropertyVerdict:
    """A decided property together with the evidence used to decide it."""

    name: str
    value: bool
    evidence: str


class DeBruijnGraph:
    """Forward-pruned window graph of a finite-type shift.

    Vertices are admissible windows of length max(memory - 1, 1); an edge
    appends one symbol and shifts the window.  After pruning, every
    vertex has an out-edge, so finite paths always extend to points and
    path labels of length >= window are exactly the admissible words.

    State sets are int bitmasks over vertex indices.  Vertices are in
    sorted window order, so the lowest set bit of a mask is the least
    window, and the successors of one vertex (which share all but their
    last symbol) order by appended symbol.
    """

    def __init__(self, window: int, vertices: Sequence[str], out, pruned: Sequence[str]):
        self.window = window
        self.vertices = tuple(vertices)
        self.out = tuple(tuple(sorted(edges)) for edges in out)  # per vertex: (symbol, dst)
        self.pruned = tuple(pruned)
        n = len(self.vertices)
        self.full = (1 << n) - 1
        # per vertex: mask of successors / predecessors
        self.succ = succ = [0] * n
        self.pred = pred = [0] * n
        for u, edges in enumerate(self.out):
            for _, d in edges:
                succ[u] |= 1 << d
                pred[d] |= 1 << u
        self.components: Optional[tuple[int, ...]] = None  # filled once by _components
        # per window position, per symbol: mask of windows carrying that symbol there, read off
        # the column of that position's symbols (last vertex first) as a binary numeral
        self.at: list[dict[int, int]] = [{} for _ in range(window)]
        for masks, column in zip(self.at, zip(*self.vertices)):
            column = "".join(reversed(column))
            for ch in sorted(set(column)):
                masks[int(ch)] = int(column.translate(_ONE_HOT[ch]), 2)

    def __len__(self) -> int:
        return len(self.vertices)


class _Ctx:
    """Memoized derived structures for one spec value."""

    __slots__ = (
        "spec",
        "graph",
        "_blocks",
        "_least",
        "_verdicts",
        "_gamma",
        "offsets",
        "orbits",
        "complement",
    )

    def __init__(self, spec: ShiftSpec):
        self.spec = spec
        self.graph = _build_graph(spec) if isinstance(spec, SftSpec) else None
        self.complement = frozenset(spec.complement) if isinstance(spec, SpacingSpec) else None
        self._blocks: dict[int, frozenset[str]] = {}
        self._least: dict[tuple, Optional[str]] = {}
        self._verdicts: dict[str, PropertyVerdict] = {}
        self._gamma: Optional[int] = None
        self.offsets = _OffsetTables()  # a single pin set is offset 0 of the table with no static pins
        self.offsets.ctx = self
        self.orbits: dict[tuple, _Orbit] = {}  # per static pin tuple: the orbit past the static pins


# specs whose derived structures stay cached; past this, the least recently used is dropped
_CACHED_SPECS = 64


@functools.lru_cache(maxsize=_CACHED_SPECS)
def _ctx(spec: ShiftSpec) -> _Ctx:
    return _Ctx(spec)


# ---------------------------------------------------------------------------
# graph construction

WINDOW_GUARD = 2**14  # clean words of one length a window graph may grow to; at the cap `props` peaks under 160 MB
ENUMERATION_GUARD = 2**20  # words of one length listed, or 20 * 2**20 symbols past 20 a word: each prints in 1 GiB


def _grow(words: list[str], steps: int, alphabet: int, keep: Callable[[str], bool], cap: int, what: str) -> list[str]:
    """Sorted words of one length grown ``steps`` symbols in order, keeping what ``keep`` accepts.

    Each length is counted against ``cap`` before the next grows: "<count> <what.format(length)> <cap>".
    A length holds at most ``cap + 1`` words at once; past that its words are counted, not stored.
    """
    for _ in range(steps):
        grown = (w for p in words for c in _DIGITS[:alphabet] for w in [p + c] if keep(w))
        words = list(itertools.islice(grown, cap + 1))
        if len(words) > cap:
            count = len(words) + sum(1 for _ in grown)
            raise OutputGuardExceeded(f"{count} {what.format(len(words[0]))} {cap}")
    return words


def _clean(spec: SftSpec) -> Callable[[str], bool]:
    """Whether a word with a clean prefix is clean: it can hold a forbidden word only as a suffix."""
    forbidden = frozenset(spec.forbidden)
    suffixes = [slice(-n, None) for n in sorted({len(w) for w in forbidden})]
    return lambda w: forbidden.isdisjoint(map(w.__getitem__, suffixes))


def _build_graph(spec: SftSpec) -> DeBruijnGraph:
    """Grow the clean windows, read edges off the clean words one longer, prune."""
    window = max(spec.memory - 1, 1)
    clean = _clean(spec)
    words = _grow([""], window, spec.alphabet, clean, WINDOW_GUARD, "clean words of length {} exceed the window cap")
    index = {w: i for i, w in enumerate(words)}
    edges: list[list[tuple[int, int]]] = [[] for _ in words]  # per window: (symbol, dst)
    preds = [0] * len(words)
    # at most alphabet edges per window, so the capped windows bound the edge level
    for e in _grow(words, 1, spec.alphabet, clean, spec.alphabet * WINDOW_GUARD, ""):
        u, d = index[e[:-1]], index[e[1:]]
        edges[u].append((int(e[-1]), d))
        preds[d] |= 1 << u
    # forward pruning: keep the windows with a successor among the kept ones, to the fixed point
    alive, kept = 0, (1 << len(words)) - 1
    while kept != alive:
        alive, kept = kept, kept & _advance(preds, kept)
    bits = format(alive, "b")[::-1].ljust(len(words), "0")
    renumber = {i: j for j, i in enumerate(i for i, bit in enumerate(bits) if bit == "1")}
    vertices = [words[i] for i in renumber]
    out = [[(s, renumber[d]) for s, d in edges[i] if d in renumber] for i in renumber]
    pruned = [w for w, bit in zip(words, bits) if bit == "0"]
    del index, preds, edges, words, renumber  # freed before the graph builds its masks
    return DeBruijnGraph(window, vertices, out, pruned)


def build_graph(spec: SftSpec) -> DeBruijnGraph:
    """Forward-pruned De Bruijn presentation of a finite-type spec."""
    if not isinstance(spec, SftSpec):
        raise TypeError("build_graph expects a finite-type spec")
    g = _ctx(spec).graph
    assert g is not None
    return g


def graph_dot(spec: SftSpec) -> str:
    """Render the window graph in DOT format (edge labels = appended symbol)."""
    g = build_graph(spec)
    lines = ["digraph shift {", "  rankdir=LR;"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for i, v in enumerate(g.vertices):
        for s, j in g.out[i]:
            lines.append(f'  "{v}" -> "{g.vertices[j]}" [label="{s}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# language queries


def blocks(spec: ShiftSpec, n: int) -> frozenset[str]:
    """All admissible words of length n (words occurring in points), capped as ENUMERATION_GUARD says."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    ctx = _ctx(spec)
    if n not in ctx._blocks:
        ctx._blocks[n] = frozenset(_words(ctx, n))
    return ctx._blocks[n]


def _words(ctx: _Ctx, n: int) -> list[str]:
    """The admissible words of length n in sorted order, repeated when n is below the window."""
    what, cap = "admissible words of length {} exceed the enumeration cap", ENUMERATION_GUARD * 20 // max(n, 20)
    g, spec = ctx.graph, ctx.spec
    if g is not None:
        if n <= g.window:  # a word inside a surviving window starts one: a shift of a point is a point
            return [v[:n] for v in g.vertices]
        # an edge of the pruned graph is a clean (window + 1)-word between two surviving windows
        edges = frozenset(v + str(s) for v, out in zip(g.vertices, g.out) for s, _ in out)
        path = lambda w: w[-g.window - 1 :] in edges
        return _grow(list(g.vertices), n - g.window, spec.alphabet, path, cap, what)
    if n > spec.horizon:
        raise HorizonExceeded(f"word length {n} exceeds horizon {spec.horizon}")
    comp, top = ctx.complement, max(spec.complement, default=0)

    def spaced(w: str) -> bool:
        """Whether a last 1 has no earlier 1 a banned gap back; none lies past the largest banned gap."""
        pos = back = len(w) - 1
        while w[pos] == "1" and (back := w.rfind("1", max(pos - top, 0), back)) >= 0:
            if pos - back in comp:
                return False
        return True

    return _grow([""], n, 2, spaced, cap, what)


def _constraint_map(constraints: Iterable[tuple[int, int]]) -> dict[int, int]:
    cmap: dict[int, int] = {}
    for pos, sym in constraints:
        if pos < 1:
            raise ValueError(f"positions start at 1, got {pos}")
        old = cmap.get(pos)
        if old is not None and old != sym:
            raise ValueError(f"contradictory constraints at position {pos}: {old} vs {sym}")
        cmap[pos] = sym
    return cmap


def partial_extendable(spec: ShiftSpec, constraints: Iterable[tuple[int, int]]) -> bool:
    """Whether some point of the space satisfies every (position, symbol) pin; validated, not cached."""
    return _extendable(_ctx(spec), _constraint_map(constraints))


def _extendable(ctx: _Ctx, cmap: Mapping[int, int]) -> bool:
    return _sft_extendable(ctx, cmap) if ctx.graph is not None else _spacing_extendable(ctx, cmap)


class _OffsetTable(dict):
    """What ``offset_table`` returns: a missing offset is decided on lookup and kept.

    On a finite-type space, an offset that puts every moving pin past
    P0 = max(window, static depths) is one AND: does S(P), the set of the
    static-only walk at P = offset + first moving depth - 1 (the static
    pins' orbit, kept in ``orbit``), meet ``fits``, the windows ending at
    first - 1 from which a walk meets every moving pin at its relative
    place (0 if two clash)?  The direct walk is unconstrained from P0 + 1
    to P, so this is exact.  ``fits`` is built on the first such miss,
    once per moving tuple, and kept by the table without static pins.
    Other offsets, and gap-set spaces, walk directly.
    """

    __slots__ = ("ctx", "static", "moving", "first", "cycle", "orbit", "fits")

    def periodicity(self) -> tuple[int, int]:
        """(start, period): from offset ``start`` on, ``self[r]`` repeats with period ``period``.

        For a finite-type table with moving pins.  The offsets r >= r0 =
        origin + 1 - first are read off the static orbit at step r - r0, as
        ``__missing__`` reads them, so they repeat with the orbit's period
        from max(0, r0 + preperiod) on.
        """
        orbit = self.orbit = self.orbit or _static_orbit(self.ctx, self.static)
        return max(0, orbit.origin + 1 - self.first + orbit.preperiod), orbit.period

    def bits(self, n: int) -> int:
        """The mask of the offsets r < n where ``self[r]`` holds, on a finite-type table with moving pins.

        The head before ``periodicity()``'s start and one period are each
        read once through lookups; any width is then the head and the
        period repeated.
        """
        if self.cycle is None:
            start, period = self.periodicity()
            head = sum(1 << r for r in range(start) if self[r])
            cycle = sum(1 << i for i in range(period) if self[start + i])
            self.cycle = head, cycle, start, period
        head, cycle, start, period = self.cycle
        if n > start:
            reps = -(-(n - start) // period)
            head |= cycle * (((1 << reps * period) - 1) // ((1 << period) - 1)) << start
        return head & ((1 << n) - 1)

    def __missing__(self, offset: int) -> bool:
        ctx = self.ctx
        if ctx.graph is not None and self.moving:
            orbit = self.orbit = self.orbit or _static_orbit(ctx, self.static)
            step = offset + self.first - 1 - orbit.origin
            if step >= 0:
                if self.fits is None:
                    free = ctx.offsets[(), self.moving]  # the pre-image depends on the moving pins only
                    if free.fits is None:
                        pins: dict[int, int] = {}
                        clash = any(pins.setdefault(pos, sym) != sym for pos, sym in self.moving)
                        free.fits = 0 if clash else _walk_back(ctx.graph, pins, self.first, max(pins))[0]
                    self.fits = free.fits
                if step >= len(orbit.states):
                    step = orbit.preperiod + (step - orbit.preperiod) % orbit.period
                ok = self[offset] = bool(orbit.states[step] & self.fits)
                return ok
        pins = dict(self.static)
        ok = all(pins.setdefault(offset + pos, sym) == sym for pos, sym in self.moving)
        ok = self[offset] = ok and _extendable(ctx, pins)
        return ok


class _OffsetTables(dict):
    """One spec's offset tables by (static, moving), each built on first lookup: the only pin-set cache."""

    __slots__ = ("ctx",)

    def __missing__(self, key: tuple) -> _OffsetTable:
        table = self[key] = _OffsetTable()
        table.ctx, (table.static, table.moving) = self.ctx, key
        table.first = min((pos for pos, _ in table.moving), default=0)
        table.cycle = table.orbit = table.fits = None
        return table


def offset_tables(spec: ShiftSpec) -> Mapping[tuple, Mapping[int, bool]]:
    """The spec's map (static, moving) -> ``offset_table(spec, static, moving)``, for callers serving one spec."""
    return _ctx(spec).offsets


def offset_table(spec: ShiftSpec, static: tuple, moving: tuple) -> Mapping[int, bool]:
    """``[r]``: whether the ``static`` pins and every ``moving`` pin (p + r, sym) fit one point.

    False where the two pin one position differently.  Kept per spec and shared by every caller.
    """
    return offset_tables(spec)[static, moving]


def _sft_extendable(ctx: _Ctx, cmap: Mapping[int, int]) -> bool:
    g = ctx.graph
    if not g.vertices:
        return False
    if not cmap:
        return True
    if any(sym >= ctx.spec.alphabet or sym < 0 for sym in cmap.values()):
        return False
    return bool(states_after(g, cmap, max(cmap)))


# ---------------------------------------------------------------------------
# state-set engine: every walk over sets of window states goes through _advance


def _advance(rows: Sequence[int], states: int) -> int:
    """One step of a state set along ``rows`` (a graph's succ or pred, or any per-vertex masks)."""
    out = 0
    while states:
        low = states & -states
        out |= rows[low.bit_length() - 1]
        states ^= low
    return out


def _pinned_windows(g: DeBruijnGraph, cmap: Mapping[int, int]) -> int:
    """Windows (as a mask) agreeing with every pin at positions 1..window."""
    states = g.full
    for p, pos_masks in enumerate(g.at, start=1):
        if p in cmap:
            states &= pos_masks.get(cmap[p], 0)
    return states


def _walk(g: DeBruijnGraph, states: int, pins: Mapping[int, int], first: int, last: int) -> int:
    """The set ``states`` (windows ending at ``first - 1``) stepped to end position ``last``, pinned by ``pins``."""
    ends = g.at[-1]
    for t in range(first, last + 1):
        if not states:
            break
        states = _advance(g.succ, states)
        if t in pins:  # an edge appends its head's last symbol: a pinned step keeps the heads ending in the pin
            states &= ends.get(pins[t], 0)
    return states


def _walk_back(g: DeBruijnGraph, pins: Mapping[int, int], first: int, last: int) -> list[int]:
    """``_walk`` backward: item t - first + 1 holds the windows ending at t (first - 1 <= t <= last) from
    which a walk meets the pins at max(t, first)..last, so ``_walk`` from S is nonempty iff S meets item 0."""
    ends, sets = g.at[-1], [g.full]
    for t in range(last, first - 1, -1):
        if t in pins:
            sets[-1] &= ends.get(pins[t], 0)
        sets.append(_advance(g.pred, sets[-1]))
    return sets[::-1]


def states_after(g: DeBruijnGraph, cmap: Mapping[int, int], through: int) -> int:
    """Window states (as a mask) at end position ``through`` of paths satisfying the pins."""
    return _walk(g, _pinned_windows(g, cmap), cmap, g.window + 1, through)


class _Orbit:
    """The unconstrained-step orbit of a state set, kept up to its first repeat.

    ``states[i]`` is the set i steps on; the list holds preperiod + period sets, and an offset
    table reads a later step i at preperiod + (i - preperiod) % period.  ``origin`` is the end
    position of ``states[0]`` in the walk it continues.
    """

    __slots__ = ("origin", "states", "preperiod", "period")

    def __init__(self, g: DeBruijnGraph, start: int, origin: int = 0):
        seen: dict[int, int] = {}
        states = self.states = []
        while start not in seen:
            seen[start] = len(states)
            states.append(start)
            start = _advance(g.succ, start)
        self.origin = origin
        self.preperiod = seen[start]
        self.period = len(states) - self.preperiod


def _static_orbit(ctx: _Ctx, static: tuple) -> _Orbit:
    orbit = ctx.orbits.get(static)
    if orbit is None:
        g, pins = ctx.graph, dict(static)
        origin = max([g.window, *pins])
        orbit = ctx.orbits[static] = _Orbit(g, states_after(g, pins, origin), origin)
    return orbit


def _spacing_extendable(ctx: _Ctx, cmap: Mapping[int, int]) -> bool:
    if not cmap:
        return True
    if max(cmap) > ctx.spec.horizon:
        raise HorizonExceeded(f"position {max(cmap)} exceeds horizon {ctx.spec.horizon}")
    if any(sym not in (0, 1) for sym in cmap.values()):
        return False
    comp = ctx.complement
    ones = sorted(p for p, sym in cmap.items() if sym == 1)
    for a in range(len(ones)):
        for b in range(a + 1, len(ones)):
            if ones[b] - ones[a] in comp:
                return False
    return True


def word_admissible(spec: ShiftSpec, word: str) -> bool:
    """Whether the word occurs in some point of the space."""
    return offset_table(spec, (), word_pins(word))[0]


def word_pins(word: str) -> tuple[tuple[int, int], ...]:
    """The word's symbols as (position, symbol) pins from position 1."""
    return tuple(enumerate(map(int, word), start=1))


def least_word(spec: ShiftSpec, length: int, constraints: Iterable[tuple[int, int]] = ()) -> Optional[str]:
    """Lexicographically least admissible word of the given length matching the pins.

    Returns None when no admissible word fits.  The unconstrained answer
    is the prefix of the lexicographically least point, so fills agree
    across lengths.
    """
    cmap = _constraint_map(constraints)
    if cmap and max(cmap) > length:
        raise ValueError("constraint beyond requested length")
    ctx = _ctx(spec)
    key = (length, tuple(sorted(cmap.items())))
    if key in ctx._least:
        return ctx._least[key]
    least = _sft_least_word if ctx.graph is not None else _spacing_least_word
    res = ctx._least[key] = least(ctx, length, cmap)
    return res


def _sft_least_word(ctx: _Ctx, length: int, cmap: Mapping[int, int]) -> Optional[str]:
    """The least pinned window, then the least successor each step among the pins' backward walk sets."""
    g = ctx.graph
    if not g.vertices:
        return None
    L = g.window
    feasible = _walk_back(g, cmap, L + 1, max(length, L))  # item t - L: windows ending at t
    states = feasible[0] & _pinned_windows(g, cmap)
    if not states:
        return None
    state = (states & -states).bit_length() - 1  # lowest bit: the least window
    word = [g.vertices[state][:length]]
    for t in range(L + 1, length + 1):
        states = g.succ[state] & feasible[t - L]
        state = (states & -states).bit_length() - 1  # least successor: least appended symbol
        word.append(g.vertices[state][-1])
    return "".join(word)


def _spacing_least_word(ctx: _Ctx, length: int, cmap: Mapping[int, int]) -> Optional[str]:
    if not _spacing_extendable(ctx, cmap):
        return None
    return "".join(str(cmap.get(p, 0)) for p in range(1, length + 1))


# ---------------------------------------------------------------------------
# graph structure: components, cycles, period and dead windows, as state sets


def _closure(rows: Sequence[int], states: int) -> int:
    """States reachable from ``states`` in zero or more steps along ``rows``."""
    seen = frontier = states
    while frontier:
        frontier = _advance(rows, frontier) & ~seen
        seen |= frontier
    return seen


def _components(g: DeBruijnGraph) -> tuple[int, ...]:
    """Strongly connected components as masks, by lowest vertex, once per graph.

    An iterative Tarjan walk over ``g.out``: time linear in the edges.
    """
    if g.components is None:
        n = len(g.vertices)
        index = [-1] * n  # visit order, -1 before the visit
        low = [0] * n  # least visit order reachable from the vertex through open vertices
        open_ = [False] * n  # on the stack: visited, component not yet closed
        stack: list[int] = []
        walk: list[tuple] = []  # the DFS path, each vertex with its unread edges
        comps, visits = [], 0

        def enter(v: int) -> None:
            nonlocal visits
            index[v] = low[v] = visits
            visits += 1
            stack.append(v)
            open_[v] = True
            walk.append((v, iter(g.out[v])))

        for root in range(n):
            if index[root] >= 0:
                continue
            enter(root)
            while walk:
                v, edges = walk[-1]
                for _, w in edges:
                    if index[w] < 0:
                        enter(w)
                        break
                    if open_[w] and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    walk.pop()
                    if walk and low[v] < low[walk[-1][0]]:
                        low[walk[-1][0]] = low[v]
                    if low[v] == index[v]:  # v roots a component: it is v and everything above it
                        comp = 0
                        while True:
                            w = stack.pop()
                            open_[w] = False
                            comp |= 1 << w
                            if w == v:
                                break
                        comps.append(comp)
        g.components = tuple(sorted(comps, key=lambda comp: comp & -comp))
    return g.components


def _cycle_vertices(g: DeBruijnGraph) -> int:
    """Vertices on a cycle (as a mask): the components that keep an edge inside."""
    return sum(comp for comp in _components(g) if _advance(g.succ, comp) & comp)


def _dead_windows(g: DeBruijnGraph) -> list[str]:
    """Windows, in order, that no cycle reaches: they occur only near the start of a point."""
    reach = _closure(g.succ, _cycle_vertices(g))
    return [v for i, v in enumerate(g.vertices) if not reach >> i & 1]


def _period(g: DeBruijnGraph) -> int:
    """Cycle-length gcd of a strongly connected graph: the period of one vertex's orbit."""
    return _Orbit(g, 1).period


def _primitivity_exponent(ctx: _Ctx) -> int:
    """Least t with every vertex pair joined by a length-t path."""
    if ctx._gamma is not None:
        return ctx._gamma
    g = ctx.graph
    n = len(g.vertices)
    power = g.succ  # power[u]: vertices at the end of a length-t path from u
    cap = (n - 1) * (n - 1) + 2
    for t in range(1, cap + 1):
        if all(r == g.full for r in power):
            ctx._gamma = t
            return t
        # a length-(t+1) path from u is an edge u -> d and a length-t path from d; every vertex
        # has a predecessor in a strongly connected graph, so a full row stays full, as g.full
        power = [g.full if r == g.full else _advance(power, heads) for r, heads in zip(power, g.succ)]
    raise PreconditionFailed("graph is not primitive")


# ---------------------------------------------------------------------------
# property decisions


def decide(spec: ShiftSpec, prop: str) -> PropertyVerdict:
    """Decide one property of the mixing hierarchy, with evidence."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    ctx = _ctx(spec)
    hit = ctx._verdicts.get(prop)
    if hit is None:
        if isinstance(spec, SftSpec):
            hit = _decide_sft(ctx, prop)
        else:
            hit = _decide_spacing(spec, prop)
        ctx._verdicts[prop] = hit
    return hit


def _decide_sft(ctx: _Ctx, prop: str) -> PropertyVerdict:
    g = ctx.graph
    if not g.vertices:
        return PropertyVerdict(prop, False, "empty language: every window dies under forward pruning")
    if prop == "extensible":
        missing = _dead_windows(g)
        ok = not missing
        ev = (
            f"window graph on {len(g)} vertices (pruned: {list(g.pruned)}); "
            f"{_cycle_vertices(g).bit_count()} cycle vertices; "
            + ("every vertex is reachable from a cycle" if ok else f"not cycle-reachable: {missing}")
        )
        return PropertyVerdict(prop, ok, ev)
    if prop == "transitive":
        comps = _components(g)
        ok = len(comps) == 1
        ev = f"window graph on {len(g)} vertices has {len(comps)} strongly connected component(s)"
        return PropertyVerdict(prop, ok, ev)
    # mixing, and the finite-type collapse for the two intermediate properties
    comps = _components(g)
    if len(comps) != 1:
        ev = f"not strongly connected ({len(comps)} components)"
        return PropertyVerdict(prop, False, ev)
    period = _period(g)
    ok = period == 1
    ev = f"strongly connected; cycle-length gcd {period}"
    if ok:
        ev += f"; primitivity exponent {_primitivity_exponent(ctx)}"
    if prop in ("weakly_mixing", "totally_transitive"):
        ev += " (finite-type collapse: aperiodic transitive <=> mixing)"
    return PropertyVerdict(prop, ok, ev)


def _decide_spacing(spec: SpacingSpec, prop: str) -> PropertyVerdict:
    cls = spec.declared_class
    comp = list(spec.complement)
    if prop == "extensible" or prop == "transitive":
        ev = f"gap-set shift (declared {cls}): admissible words place at any offset over the all-zero point"
        return PropertyVerdict(prop, True, ev)
    if cls == "general":
        raise UndecidableProperty(
            f"{prop} of a gap-set shift is not decidable from a tabulated prefix (declared class 'general')"
        )
    if prop == "mixing":
        ok = cls == "cofinite"
        ev = (
            f"declared cofinite: banned gaps {comp} are finite, any gap beyond {max(comp, default=0)} is allowed"
            if ok
            else "declared thick but not cofinite: arbitrarily large banned gaps remain"
        )
        return PropertyVerdict(prop, ok, ev)
    # weakly_mixing and totally_transitive coincide for gap-set shifts
    ev = f"declared {cls}: gap set contains arbitrarily long runs, giving simultaneous connections"
    return PropertyVerdict(prop, True, ev)


# ---------------------------------------------------------------------------
# connectors


def mixing_gap_index(spec: ShiftSpec) -> int:
    """A gap index N: every pair of admissible words connects at every gap m >= N.

    Not necessarily minimal.  Finite-type: the primitivity exponent of the
    pruned window graph (Lind & Marcus 1995).  Cofinite gap-set: one past
    the largest banned gap.
    """
    verdict = decide(spec, "mixing")
    if not verdict.value:
        raise PreconditionFailed(f"space is not mixing: {verdict.evidence}")
    if isinstance(spec, SftSpec):
        return _primitivity_exponent(_ctx(spec))
    return max(spec.complement, default=0) + 1
