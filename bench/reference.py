"""Reference checkers that share no code with ``src/multishift``.

Everything here works from the definitions: a finite-type base space is
its forbidden words, a gap-set base space is its banned gaps and declared
class, a point of the multiplicative subshift is a sequence whose every
geometric chain ``r, r*l, r*l**2, ...`` reads a point of the base space.

* ``RefSft`` / ``RefGap`` answer word admissibility and per-chain pin
  feasibility (a DP over the last ``memory - 1`` symbols that rejects
  forbidden substrings or banned gaps and must end in a state with an
  infinite continuation).
* ``properties`` decides the mixing hierarchy from the window graph,
  built by direct substring scans, with boolean matrix powers.
* ``pattern_pins_feasible`` and ``check_certificate`` lift those to
  patterns and certificates of the multiplicative subshift.

``self_test`` feeds every checker a hand-made wrong answer and returns the
names of the checkers that failed to reject it.
"""

from __future__ import annotations

import math
from itertools import product

DIGITS = "0123456789"


def normalize(forbidden):
    """Forbidden words, minus those containing a shorter forbidden word."""
    kept = []
    for w in sorted(set(forbidden), key=lambda w: (len(w), w)):
        if not any(f in w for f in kept):
            kept.append(w)
    return sorted(kept)


class RefSft:
    """One-sided finite-type shift given by forbidden words."""

    def __init__(self, alphabet, forbidden):
        self.alphabet = alphabet
        self.forbidden = normalize(forbidden)
        self.memory = max((len(f) for f in self.forbidden), default=0)
        self.w = max(self.memory - 1, 1)
        self.symbols = DIGITS[:alphabet]
        clean = ["".join(t) for t in product(self.symbols, repeat=self.w)]
        clean = [x for x in clean if self.clean(x)]
        # live windows: those with an infinite forward continuation
        live = set(clean)
        while True:
            dead = {x for x in live if not any(self.clean(x + c) and (x + c)[1:] in live for c in self.symbols)}
            if not dead:
                break
            live -= dead
        self.windows = sorted(live)
        self.index = {x: i for i, x in enumerate(self.windows)}
        self.succ = {
            x: [(c, (x + c)[1:]) for c in self.symbols if self.clean(x + c) and (x + c)[1:] in live]
            for x in self.windows
        }

    def clean(self, word):
        return not any(f in word for f in self.forbidden)

    def to_dict(self):
        return {"kind": "sft", "alphabet": self.alphabet, "forbidden": list(self.forbidden)}

    def admissible(self, word):
        """Whether some point starts with ``word``."""
        if len(word) < self.w:
            return any(x.startswith(word) for x in self.windows)
        return self.clean(word) and word[-self.w :] in self.index

    def pins_feasible(self, pins):
        """Whether some point carries symbol ``s`` at depth ``d`` for every (d, s)."""
        pins = dict(pins)
        if not pins:
            return bool(self.windows)
        if any(not 0 <= s < self.alphabet for s in pins.values()):
            return False
        top = max(pins)
        # grow prefixes symbol by symbol until a whole window is known
        states = {""}
        for t in range(1, min(top, self.w) + 1):
            want = pins.get(t)
            states = {x + c for x in states for c in self.symbols if want is None or int(c) == want}
            states = {x for x in states if self.clean(x)}
        if top < self.w:
            return any(x.startswith(p) for x in self.windows for p in states)
        states &= set(self.windows)
        for t in range(self.w + 1, top + 1):
            want = pins.get(t)
            states = {d for x in states for c, d in self.succ[x] if want is None or int(c) == want}
            if not states:
                return False
        return bool(states)

    def random_word(self, rng, length):
        """A uniformly stepped random admissible word (a random walk)."""
        start = rng.choice(self.windows)
        if length <= self.w:
            return start[:length]
        word, x = start, start
        while len(word) < length:
            c, x = rng.choice(self.succ[x])
            word += c
        return word


class RefGap:
    """Gap-set shift of 0/1 sequences: no two ones at a banned distance."""

    alphabet = 2

    def __init__(self, declared_class, complement, horizon):
        self.declared_class = declared_class
        self.complement = sorted(set(complement))
        self.banned = set(self.complement)
        self.horizon = horizon

    def to_dict(self):
        return {"kind": "spacing", "class": self.declared_class, "complement": self.complement,
                "horizon": self.horizon}

    def admissible(self, word):
        return self.pins_feasible((i + 1, int(c)) for i, c in enumerate(word))

    def pins_feasible(self, pins):
        ones = []
        for d, s in pins:
            if s not in (0, 1) or d > self.horizon:
                return False
            if s == 1:
                ones.append(d)
        ones.sort()
        return not any(b - a in self.banned for i, a in enumerate(ones) for b in ones[i + 1 :])

    def random_word(self, rng, length):
        word = ""
        for i in range(length):
            c = rng.choice("01")
            if c == "1" and not self.admissible(word + "1"):
                c = "0"
            word += c
        return word


def from_dict(data):
    if data["kind"] == "sft":
        return RefSft(data["alphabet"], data.get("forbidden", []))
    return RefGap(data["class"], data.get("complement", []), data.get("horizon", 100_000))


# ---------------------------------------------------------------------------
# the mixing hierarchy from boolean matrix powers


def _mul(a, b):
    """Boolean matrix product; a matrix is a list of int row bitmasks."""
    out = []
    for row in a:
        acc, j = 0, 0
        while row:
            if row & 1:
                acc |= b[j]
            row >>= 1
            j += 1
        out.append(acc)
    return out


def _power(a, e):
    out = [1 << i for i in range(len(a))]
    while e:
        if e & 1:
            out = _mul(out, a)
        a = _mul(a, a)
        e >>= 1
    return out


def _positive(m):
    full = (1 << len(m)) - 1
    return all(row == full for row in m)


def adjacency(ref):
    return [sum(1 << ref.index[d] for _, d in set(ref.succ[x])) for x in ref.windows]


def period(ref):
    """gcd of the cycle lengths (every closed walk splits into simple cycles of length <= n)."""
    a = adjacency(ref)
    g, p = 0, a
    for t in range(1, len(a) + 1):
        if any(row >> i & 1 for i, row in enumerate(p)):
            g = math.gcd(g, t)
        p = _mul(p, a)
    return g


def primitivity_exponent(ref):
    """Least t with A**t > 0, or None when no power is positive."""
    a = adjacency(ref)
    p = a
    for t in range(1, (len(a) - 1) ** 2 + 2):
        if _positive(p):
            return t
        p = _mul(p, a)
    return None


def properties(ref):
    """extensible / transitive / totally_transitive / weakly_mixing / mixing, or None if undecidable."""
    names = ("extensible", "transitive", "totally_transitive", "weakly_mixing", "mixing")
    if isinstance(ref, RefGap):
        cls = ref.declared_class
        if cls == "general":
            return {"extensible": True, "transitive": True, "totally_transitive": None,
                    "weakly_mixing": None, "mixing": None}
        return {"extensible": True, "transitive": True, "totally_transitive": True,
                "weakly_mixing": True, "mixing": cls == "cofinite"}
    a = adjacency(ref)
    n = len(a)
    if n == 0:
        return dict.fromkeys(names, False)
    # a path of length n ending at v passes a cycle, so v has arbitrarily long pasts
    ends = 0
    for row in _power(a, n):
        ends |= row
    extensible = ends == (1 << n) - 1
    transitive = _positive(_power([row | 1 << i for i, row in enumerate(a)], max(n - 1, 1)))
    # Wielandt: a primitive matrix has A**((n-1)**2 + 1) > 0
    primitive = transitive and _positive(_power(a, (n - 1) ** 2 + 1))
    return {"extensible": extensible, "transitive": transitive, "totally_transitive": primitive,
            "weakly_mixing": primitive, "mixing": primitive}


def mixing_threshold(ref):
    """A gap index past which every word pair connects: the primitivity exponent or the last banned gap + 1."""
    if isinstance(ref, RefGap):
        return max(ref.complement, default=0) + 1
    return primitivity_exponent(ref)


# ---------------------------------------------------------------------------
# patterns and certificates of the multiplicative subshift


def split(n, l):
    """n = rep * l**k with rep not divisible by l; returns (rep, k)."""
    k = 0
    while n % l == 0:
        n //= l
        k += 1
    return n, k


def parse_literal(text, l):
    """``block:0110`` or ``l=2;support=1,3;values=0,1`` as a sorted list of (position, symbol)."""
    if text.startswith("block:"):
        return [(i + 1, int(c)) for i, c in enumerate(text[6:])]
    fields = dict(part.split("=", 1) for part in text.split(";"))
    if int(fields["l"]) != l:
        raise ValueError("literal base disagrees")
    sup = [int(x) for x in fields["support"].split(",")]
    val = [int(x) for x in fields["values"].split(",")]
    return sorted(zip(sup, val))


def merged_pins(u, v, multiplier):
    """Positions pinned by u at its support and v at multiplier * support, or None on a clash."""
    pins = dict(u)
    for p, s in v:
        q = p * multiplier
        if pins.get(q, s) != s:
            return None
        pins[q] = s
    return pins


def chain_pins(pins, l):
    groups = {}
    for p, s in pins.items():
        rep, k = split(p, l)
        groups.setdefault(rep, []).append((k + 1, s))
    return groups


def pattern_pins_feasible(ref, l, pins):
    """Whether a point of the multiplicative subshift carries every pin."""
    if pins is None:
        return False
    return all(ref.pins_feasible(g) for g in chain_pins(pins, l).values())


def pair_feasible(ref, l, u, v, multiplier):
    return pattern_pins_feasible(ref, l, merged_pins(u, v, multiplier))


def random_block(ref, rng, l, length):
    """A random admissible block of the multiplicative subshift, chain by chain."""
    chars = ["?"] * length
    for rep in range(1, length + 1):
        if rep % l == 0:
            continue
        positions = []
        p = rep
        while p <= length:
            positions.append(p)
            p *= l
        for p, c in zip(positions, ref.random_word(rng, len(positions))):
            chars[p - 1] = c
    return "".join(chars)


def chain_words(prefix, l):
    """(rep, word read along the chain of rep) for every chain the prefix meets."""
    n = len(prefix)
    for rep in range(1, n + 1):
        if rep % l:
            chars = []
            p = rep
            while p <= n:
                chars.append(prefix[p - 1])
                p *= l
            yield rep, "".join(chars)


def check_certificate(ref, l, cert, u_lit, v_lit, base=None):
    """None when ``cert`` (a dict in the CLI format) is correct, else the reason.

    The prefix must carry u on its support and v on multiplier * support,
    every chain word of the prefix must be admissible, and, given a base,
    the multiplier must equal |u| * alpha * base**k.
    """
    if cert.get("u") != u_lit or cert.get("v") != v_lit:
        return "patterns differ from the request"
    u, v = parse_literal(u_lit, l), parse_literal(v_lit, l)
    m = cert.get("multiplier")
    ulen = max(p for p, _ in u)
    if base is not None and m != ulen * cert["alpha"] * base ** cert["k"]:
        return "multiplier is not |u| * alpha * base**k"
    prefix = cert.get("prefix", "")
    pins = merged_pins(u, v, m)
    if pins is None:
        return "u and scaled v clash"
    if len(prefix) < max(pins):
        return "prefix too short"
    if any(prefix[p - 1] != str(s) for p, s in pins.items()):
        return "prefix does not carry the pins"
    if any(c not in DIGITS[: ref.alphabet] for c in set(prefix)):
        return "prefix uses symbols outside the alphabet"
    for rep, word in chain_words(prefix, l):
        if not ref.admissible(word):
            return f"chain {rep} reads an inadmissible word"
    return None


# ---------------------------------------------------------------------------
# every checker must reject a hand-made wrong answer


def self_test():
    """Names of checkers that accepted a deliberately wrong answer (empty when all is well)."""
    bad = []
    golden = RefSft(2, ["11"])
    ramp = RefSft(2, ["01"])
    alternating = RefSft(2, ["00", "11"])
    if golden.admissible("0110") or not golden.admissible("0101"):
        bad.append("RefSft.admissible")
    if ramp.pins_feasible([(1, 0), (3, 1)]) or not ramp.pins_feasible([(1, 1), (3, 0)]):
        bad.append("RefSft.pins_feasible")
    gap = RefGap("cofinite", [1, 2], 100)
    if gap.pins_feasible([(1, 1), (3, 1)]) or not gap.pins_feasible([(1, 1), (4, 1)]):
        bad.append("RefGap.pins_feasible")
    if properties(ramp)["transitive"] or not properties(ramp)["extensible"]:
        bad.append("properties(ramp)")
    if properties(alternating)["mixing"] or not properties(alternating)["transitive"]:
        bad.append("properties(alternating)")
    if not properties(golden)["mixing"] or properties(RefSft(2, ["0", "1"]))["extensible"]:
        bad.append("properties(golden/empty)")
    if properties(RefSft(2, ["01", "110"]))["extensible"]:  # window 10 has no past longer than one step
        bad.append("properties(non-extensible)")
    if period(alternating) != 2 or primitivity_exponent(alternating) is not None:
        bad.append("period")
    # the parity obstruction of the alternating shift at l = 2: 0110 then 1011 never fits at q = 2
    u, v = parse_literal("block:0110", 2), parse_literal("block:1011", 2)
    if pair_feasible(alternating, 2, u, v, 4 * 2 ** 3):
        bad.append("pair_feasible")
    # a certificate whose prefix carries the pins but breaks a chain word
    good = {"u": "block:00", "v": "block:1", "alpha": 3, "k": 0, "multiplier": 6, "prefix": "001001"}
    if check_certificate(ramp, 2, good, "block:00", "block:1", base=2) is not None:
        bad.append("check_certificate(accepts good)")
    wrong_chain = dict(good, prefix="001101")  # chain 1 reads positions 1, 2, 4: 001 holds 01
    wrong_mult = dict(good, alpha=5)
    wrong_pin = dict(good, prefix="001000")  # v pins position 6 to 1
    for name, cert in (("chain", wrong_chain), ("multiplier", wrong_mult), ("pin", wrong_pin)):
        if check_certificate(ramp, 2, cert, "block:00", "block:1", base=2) is None:
            bad.append(f"check_certificate({name})")
    return bad
