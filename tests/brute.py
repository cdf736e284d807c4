"""Independent brute-force oracles used to pin expected values.

Everything here enumerates raw symbol strings and scans them directly,
staying off the graph/fiber code paths it cross-checks.
"""

from itertools import product
from math import gcd

from multishift.shift_core import SftSpec, SpacingSpec

_LANG_CACHE: dict = {}


def sft_language(spec: SftSpec, n: int) -> set[str]:
    """Words of length n occurring in points: avoid every forbidden word and
    extend on the right far enough to guarantee an infinite continuation
    (pumping bound: one symbol per possible window)."""
    digits = "0123456789"[: spec.alphabet]
    mem = max(spec.memory, 1)
    keep = mem - 1
    slack = spec.alphabet**keep + mem

    def clean(w: str) -> bool:
        return not any(f in w for f in spec.forbidden)

    extend_memo: dict[tuple[str, int], bool] = {}

    def can_extend(window: str, steps: int) -> bool:
        if steps == 0:
            return True
        key = (window, steps)
        if key not in extend_memo:
            extend_memo[key] = any(
                clean(window + c) and can_extend((window + c)[-keep:] if keep else "", steps - 1)
                for c in digits
            )
        return extend_memo[key]

    out = set()
    for tup in product(digits, repeat=n):
        w = "".join(tup)
        if clean(w) and can_extend(w[-keep:] if keep else "", slack):
            out.add(w)
    return out


def brute_graph_structure(spec: SftSpec):
    """Window-graph structure from the language alone, by search over strings.

    Windows are the admissible words of length max(memory - 1, 1); each
    admissible word one longer is an edge from its prefix to its suffix.
    Returns the strongly connected components (as sets of windows), the
    windows on a cycle, the sorted windows no cycle reaches, and the
    cycle-length gcd when the graph is strongly connected (else None).
    """
    window = max(spec.memory - 1, 1)
    windows = sorted(sft_language(spec, window))
    edges: dict[str, set[str]] = {}
    for w in sft_language(spec, window + 1):
        edges.setdefault(w[:-1], set()).add(w[1:])

    def after_one_or_more(start: str) -> set[str]:
        seen, todo = set(), [start]
        while todo:
            for d in edges.get(todo.pop(), ()):
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        return seen

    reach = {w: after_one_or_more(w) for w in windows}
    components = {frozenset({w} | {x for x in reach[w] if w in reach[x]}) for w in windows}
    cyclic = {w for w in windows if w in reach[w]}
    alive = cyclic.union(*(reach[w] for w in cyclic))
    dead = [w for w in windows if w not in alive]
    period = None
    if len(components) == 1:
        # every simple cycle is a closed walk of length <= len(windows) through one of its windows
        period = 0
        for w in windows:
            layer = {w}
            for t in range(1, len(windows) + 1):
                layer = {d for x in layer for d in edges.get(x, ())}
                if w in layer:
                    period = gcd(period, t)
    return components, cyclic, dead, period


def normalize_forbidden(words) -> tuple[str, ...]:
    """Reference for the forbidden-set normalization: shortest first, drop a word holding a kept one."""
    kept = []
    for w in sorted(set(words), key=lambda w: (len(w), w)):
        if not any(f in w for f in kept):
            kept.append(w)
    return tuple(sorted(kept))


def spacing_language(spec: SpacingSpec, n: int) -> set[str]:
    comp = set(spec.complement)
    out = set()
    for tup in product("01", repeat=n):
        w = "".join(tup)
        ones = [i + 1 for i, c in enumerate(w) if c == "1"]
        if all(b - a not in comp for a in ones for b in ones if b > a):
            out.add(w)
    return out


def language(spec, n: int) -> set[str]:
    key = (spec, n)
    if key not in _LANG_CACHE:
        _LANG_CACHE[key] = sft_language(spec, n) if isinstance(spec, SftSpec) else spacing_language(spec, n)
    return _LANG_CACHE[key]


def brute_extendable(spec, constraints) -> bool:
    """Reference for partial_extendable: scan every word up to the last pin."""
    cmap = dict(constraints)
    hi = max(cmap)
    return any(all(int(w[p - 1]) == s for p, s in cmap.items()) for w in language(spec, hi))


def brute_connector_gaps(spec, u: str, v: str, bound: int) -> set[int]:
    out = set()
    for m in range(1, bound + 1):
        cons = [(i + 1, int(c)) for i, c in enumerate(u)]
        cons += [(len(u) + m + 1 + i, int(c)) for i, c in enumerate(v)]
        if brute_extendable(spec, cons):
            out.add(m)
    return out


def extract_fiber_point(y: str, rep: int, l: int) -> str:
    """The word a block carries along the chain rep, rep * l, rep * l**2, ..., read off the string."""
    out, pos = [], rep
    while pos <= len(y):
        out.append(y[pos - 1])
        pos *= l
    return "".join(out)


def naive_exists_witness(omega, l: int, u, v, alpha: int, k: int, depth_cap: int = 8) -> bool:
    """Reference for the exact witness oracle.

    Merge the two constraint sets, split them over chains by direct
    division, and per chain enumerate every symbol assignment up to the
    deepest pinned depth, testing membership in the brute language.
    """
    multiplier = u.length * alpha * l**k
    merged = {}
    for pos, sym in u.entries:
        merged[pos] = sym
    for pos, sym in v.entries:
        p = multiplier * pos
        if merged.get(p, sym) != sym:
            return False
        merged[p] = sym
    chains = {}
    for pos, sym in merged.items():
        rep, depth = pos, 1
        while rep % l == 0:
            rep //= l
            depth += 1
        chains.setdefault(rep, {})[depth] = sym
    digits = "0123456789"[: 2 if isinstance(omega, SpacingSpec) else omega.alphabet]
    for cons in chains.values():
        need = max(cons)
        if need > depth_cap:
            raise ValueError("instance too deep for the naive oracle")
        words = language(omega, need)
        if not any(all(int(w[d - 1]) == s for d, s in cons.items()) for w in words):
            return False
    return True


def merged_multiplier_constraints(u, v, multiplier: int):
    """Reference for multiplier_constraints: (groups, conflicts) from a position-by-position merge.

    v's pins are scaled one position at a time onto a map that starts as
    u's, where v's symbol stays; a position already pinned to a different
    symbol is a conflict (position, u's symbol, v's symbol).  The merged
    map is then split per chain by direct division.
    """
    merged = dict(u.entries)
    conflicts = []
    for pos, sym in v.entries:
        p = multiplier * pos
        old = merged.get(p)
        if old is not None and old != sym:
            conflicts.append((p, old, sym))
        merged[p] = sym
    chains = {}
    for pos, sym in merged.items():
        rep, depth = pos, 1
        while rep % u.base == 0:
            rep //= u.base
            depth += 1
        chains.setdefault(rep, []).append((depth, sym))
    return tuple((rep, tuple(sorted(cons))) for rep, cons in sorted(chains.items())), tuple(conflicts)
