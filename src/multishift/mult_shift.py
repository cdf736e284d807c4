"""Patterns of a multiplicative subshift and their fiber decomposition.

A point of the multiplicative subshift with base ``l`` over a base space
is a sequence whose restriction to every geometric chain
``i, i*l, i*l**2, ...`` is a point of the base space.  Chains with
base-free representatives partition the positive integers, so a finite
pattern is admissible exactly when each per-chain constraint set is
extendable in the base space.  That fiber independence is what makes all
admissibility questions here exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from . import shift_core
from .errors import InadmissiblePattern, OutputGuardExceeded
from .lambda_arith import _check_base, a_set, decompose
from .shift_core import ENUMERATION_GUARD, ShiftSpec, alphabet_of

__all__ = [
    "ENUMERATION_GUARD",
    "MultiplierConstraintSet",
    "Pattern",
    "assemble",
    "chain_length",
    "chain_positions",
    "chain_words",
    "count_blocks",
    "enumerate_blocks",
    "format_pattern",
    "inadmissible_classes",
    "is_admissible",
    "least_block",
    "multiplier_constraints",
    "parse_pattern",
]


def chain_length(rep: int, length: int, l: int) -> int:
    """Number of chain positions rep * l**j (j >= 0) that are <= length."""
    return len(chain_positions(rep, length, l))


def chain_positions(rep: int, length: int, l: int) -> list[int]:
    out = []
    pos = rep
    while pos <= length:
        out.append(pos)
        pos *= l
    return out


@dataclass(frozen=True)
class Pattern:
    """A finite partial configuration of the multiplicative subshift.

    ``entries`` maps positions (>= 1) to symbols; a block is the special
    case with support [1, n].  The pattern carries its chain base and
    base-space spec so admissibility is a total function of the pattern.
    Entries are sorted by position on construction.  The pattern length
    is its largest constrained position.
    """

    entries: tuple[tuple[int, int], ...]
    base: int
    omega: ShiftSpec
    # filled on first use by fibers()
    _fibers: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))
        _check_base(self.base)
        if not self.entries:
            raise ValueError("pattern must constrain at least one position")
        seen = set()
        m = alphabet_of(self.omega)
        for pos, sym in self.entries:
            if pos < 1:
                raise ValueError(f"positions start at 1, got {pos}")
            if pos in seen:
                raise ValueError(f"duplicate position {pos}")
            if not 0 <= sym < m:
                raise ValueError(f"symbol {sym} out of range for alphabet {m}")
            seen.add(pos)

    @classmethod
    def make(cls, entries: Mapping[int, int] | Iterable[tuple[int, int]], base: int, omega: ShiftSpec) -> "Pattern":
        return cls(tuple(entries.items() if isinstance(entries, Mapping) else entries), base, omega)

    @classmethod
    def block(cls, word: str, base: int, omega: ShiftSpec) -> "Pattern":
        return cls(tuple(zip(range(1, len(word) + 1), map(int, word))), base, omega)

    @property
    def length(self) -> int:
        return self.entries[-1][0]

    @property
    def is_block(self) -> bool:
        return len(self.entries) == self.length  # positions are distinct, sorted and >= 1

    def block_word(self) -> str:
        if not self.is_block:
            raise ValueError("pattern support is not an initial segment")
        return "".join(str(sym) for _, sym in self.entries)

    def fibers(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Per-chain constraints: representative -> ((depth, symbol), ...); computed once, shared read-only."""
        if self._fibers is None:
            groups: dict[int, list[tuple[int, int]]] = {}
            for pos, sym in self.entries:
                d = decompose(pos, self.base)
                groups.setdefault(d.alpha, []).append((d.k + 1, sym))
            object.__setattr__(self, "_fibers", {rep: tuple(sorted(cons)) for rep, cons in sorted(groups.items())})
        return self._fibers


def is_admissible(u: Pattern) -> bool:
    """Whether some point of the multiplicative subshift extends the pattern."""
    return not inadmissible_classes(u)


def inadmissible_classes(u: Pattern) -> list[int]:
    """Chain representatives whose fiber constraints are unsatisfiable, read off the spec's offset tables."""
    tables = shift_core.offset_tables(u.omega)
    return [rep for rep, cons in u.fibers().items() if not tables[(), cons][0]]


def count_blocks(omega: ShiftSpec, l: int, n: int) -> int:
    """Number of admissible blocks on [1, n]: a product over chain fibers."""
    _check_base(l)
    if n < 1:
        raise ValueError("block length must be >= 1")
    total = 1
    for rep in a_set(l, n):
        total *= len(shift_core.blocks(omega, chain_length(rep, n, l)))
        if total == 0:
            return 0
    return total


def enumerate_blocks(omega: ShiftSpec, l: int, n: int) -> set[str]:
    """All admissible blocks on [1, n] (guarded against huge outputs): every choice of chain words."""
    count = count_blocks(omega, l, n)
    if count > ENUMERATION_GUARD:
        raise OutputGuardExceeded(f"{count} blocks exceed the enumeration cap {ENUMERATION_GUARD}")
    reps = a_set(l, n)
    per_rep = [sorted(shift_core.blocks(omega, chain_length(rep, n, l))) for rep in reps]
    return {assemble(dict(zip(reps, words)), l, n) for words in itertools.product(*per_rep)}


def assemble(fibers: Mapping[int, str], l: int, length: int) -> str:
    """Build the block whose chain fibers are the given base-space words.

    Every base-free representative up to ``length`` needs a word covering
    its chain.
    """
    _check_base(l)
    if length < 1:
        raise ValueError("block length must be >= 1")
    chars = ["?"] * length
    for rep in a_set(l, length):
        if rep not in fibers:
            raise KeyError(f"missing fiber for chain representative {rep}")
        word = fibers[rep]
        positions = chain_positions(rep, length, l)
        if len(word) < len(positions):
            raise ValueError(f"fiber for {rep} has length {len(word)}, chain needs {len(positions)}")
        for pos, ch in zip(positions, word):
            chars[pos - 1] = ch
    return "".join(chars)


def chain_words(prefix: str, l: int) -> set[str]:
    """The distinct contiguous chain words of a block (each chain read from depth 1), a level at a time.

    The chains of length exactly t have the base-free representatives r
    with n // l**t < r <= n // l**(t-1).  Those with r = c (mod l) put
    their depth-(i+1) symbols at r * l**i, an arithmetic progression of
    step l**(i+1), so one strided slice per depth reads them all.
    """
    n = len(prefix)
    words: set[str] = set()
    t, top = 1, n  # top = n // l**(t-1)
    while top:
        low = top // l
        for c in range(1, l):
            r0 = low + 1 + (c - low - 1) % l  # least rep past low in the residue class of c
            if r0 > top:
                continue
            levels = [prefix[r0 * l**i - 1 : top * l**i : l ** (i + 1)] for i in range(t)]
            words.update(levels[0] if t == 1 else map("".join, set(zip(*levels))))
        t, top = t + 1, low
    return words


def least_block(omega: ShiftSpec, l: int, length: int, groups=()) -> Optional[str]:
    """Least admissible block on [1, length] meeting per-chain (depth, symbol) pins, or None.

    ``groups`` maps (or lists pairs of) chain representative -> pins.  By
    fiber independence each chain takes the least base-space word under its
    own pins.  Chains without pins share one fill, the least word of chain
    1's length: unconstrained least words agree across lengths, so position
    p carries fill[v_l(p)], written one strided slice per depth.  Only the
    pinned chains are then overwritten.
    """
    if length < 1:
        raise ValueError("block length must be >= 1")
    fill = shift_core.least_word(omega, chain_length(1, length, l))
    pinned = {
        rep: shift_core.least_word(omega, chain_length(rep, length, l), pins)
        for rep, pins in dict(groups).items()
    }
    if fill is None or None in pinned.values():
        return None
    out = bytearray(length)
    for d, sym in enumerate(fill.encode()):
        step = l**d
        out[step - 1 :: step] = bytes((sym,)) * (length // step)
    for rep, word in pinned.items():
        for pos, sym in zip(chain_positions(rep, length, l), word.encode()):
            out[pos - 1] = sym
    return out.decode()


@dataclass(frozen=True)
class MultiplierConstraintSet:
    """Constraints of "u at its support, v at multiplier-scaled support".

    Groups are per chain representative, in base-space (depth, symbol)
    coordinates; every constrained position lands in exactly one group.
    ``conflicts`` lists positions pinned to two different symbols, which
    makes the set unsatisfiable.
    """

    groups: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    conflicts: tuple[tuple[int, int, int], ...]

    @property
    def satisfiable_form(self) -> bool:
        return not self.conflicts


def multiplier_constraints(u: Pattern, v: Pattern, multiplier: int) -> MultiplierConstraintSet:
    """Merge u's constraints with v's scaled by ``multiplier`` and group per chain.

    Built from the two patterns' fibers: scaling moves v's chain j whole,
    onto the chain of ``multiplier * j = rep * l**k`` with every depth
    shifted by k, so each v chain costs one decomposition.  Where v's pin
    meets one of u's, v's symbol stays and a different one is a conflict.
    """
    if multiplier < 1:
        raise ValueError("multiplier must be >= 1")
    if u.base != v.base or u.omega != v.omega:
        raise ValueError("patterns must share base and base space")
    l = u.base
    merged = {rep: dict(cons) for rep, cons in u.fibers().items()}  # rep -> depth -> symbol
    conflicts = []
    for j, cons in v.fibers().items():
        d = decompose(multiplier * j, l)
        pins = merged.setdefault(d.alpha, {})
        for depth, sym in cons:
            old = pins.get(depth + d.k)
            if old is not None and old != sym:
                conflicts.append((d.alpha * l ** (depth + d.k - 1), old, sym))
            pins[depth + d.k] = sym
    grouped = tuple((rep, tuple(sorted(pins.items()))) for rep, pins in sorted(merged.items()))
    return MultiplierConstraintSet(grouped, tuple(sorted(conflicts)))


def require_admissible(u: Pattern, name: str = "pattern") -> None:
    bad = inadmissible_classes(u)
    if bad:
        raise InadmissiblePattern(
            f"{name} is inadmissible: chain {bad[0]} carries constraints no base-space point satisfies",
            detail=bad[0],
        )


# ---------------------------------------------------------------------------
# literal format: "l=2;support=1,2,4;values=1,1,0" or "block:1100"


def parse_pattern(text: str, omega: ShiftSpec, base: Optional[int] = None) -> Pattern:
    """Parse the CLI/test literal format for patterns."""
    text = text.strip()
    if text.startswith("block:"):
        word = text[len("block:") :]
        if base is None:
            raise ValueError("block literals need an explicit chain base")
        return Pattern.block(word, base, omega)
    fields = {}
    for part in text.split(";"):
        if "=" not in part:
            raise ValueError(f"malformed pattern field {part!r}")
        key, val = part.split("=", 1)
        fields[key.strip()] = val.strip()
    missing = {"l", "support", "values"} - set(fields)
    if missing:
        raise ValueError(f"pattern literal missing fields: {sorted(missing)}")
    lit_base = int(fields["l"])
    if base is not None and base != lit_base:
        raise ValueError(f"literal base {lit_base} disagrees with requested base {base}")
    support = [int(x) for x in fields["support"].split(",") if x]
    values = [int(x) for x in fields["values"].split(",") if x]
    if len(support) != len(values):
        raise ValueError("support and values have different lengths")
    return Pattern.make(zip(support, values), lit_base, omega)


def format_pattern(u: Pattern) -> str:
    if u.is_block:
        return "block:" + u.block_word()
    support = ",".join(str(p) for p, _ in u.entries)
    values = ",".join(str(s) for _, s in u.entries)
    return f"l={u.base};support={support};values={values}"
