"""Exact witness decision and the exhaustive cross-validation campaign.

``exists_witness_exact`` decides, with no search bound, whether a pair of
patterns admits a connecting point under a given multiplier: the merged
constraints split over independent chain fibers, and each fiber is a
finite reachability question in the base space.

Negative answers over the unbounded depth parameter k are proved, not
sampled: for a fixed multiplier residue the per-chain reachable state
sets are eventually periodic in k, so sweeping one full period past the
preperiod is conclusive.  This is the machinery that turns "no k up to
the budget" into "no k at all" whenever a periodicity obstruction exists.

The campaign runs every decider and constructor against the exact oracle
over a family of base spaces and reports any hard contradiction: a
witness where the decided properties forbid one, or a constructed
certificate that fails re-verification.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import mult_shift, shift_core, witness as witness_mod
from .errors import ConnectorNotFound, OutputGuardExceeded, PreconditionFailed, UndecidableProperty
from .lambda_arith import a_set, decompose, product_offset_bound
from .mult_shift import Pattern, multiplier_constraints, parse_pattern
from .shift_core import PROPERTIES, SftSpec, ShiftSpec, SpacingSpec, sft, spec_to_dict, word_pins
from .witness import Certificate, DirectionalAllAlpha, MixingPastThreshold, WitnessCertificate, try_certificate

__all__ = [
    "CampaignReport",
    "CampaignRow",
    "DirectionalVerdict",
    "SearchBudget",
    "TransitiveVerdict",
    "binary_sft_family",
    "budget_from_env",
    "campaign",
    "dedupe_by_language",
    "exists_witness_exact",
    "probe_directional_q",
    "probe_transitive_X",
    "random_sft_family",
    "verify_certificate",
    "verify_certificates",
]


@dataclass(frozen=True)
class SearchBudget:
    """Bounds recorded in every probe verdict for reproducibility."""

    alpha_bound: int = 9
    k_bound: int = 8
    pair_length_bound: int = 4

    def __post_init__(self):
        if min(self.alpha_bound, self.k_bound, self.pair_length_bound) < 1:
            raise ValueError("budget bounds must be positive")


def budget_from_env() -> SearchBudget:
    """Default budget, overridable via MULTISHIFT_BUDGET='alpha=9,k=8,len=4'."""
    raw = os.environ.get("MULTISHIFT_BUDGET", "")
    kwargs = {}
    names = {"alpha": "alpha_bound", "k": "k_bound", "len": "pair_length_bound"}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        if key.strip() not in names:
            raise ValueError(f"unknown budget field {key!r} in MULTISHIFT_BUDGET")
        kwargs[names[key.strip()]] = int(val)
    return SearchBudget(**kwargs)


# ---------------------------------------------------------------------------
# exact decision core


def exists_witness_exact(
    omega: ShiftSpec, l: int, u: Pattern, v: Pattern, alpha: int, k: int
) -> Optional[WitnessCertificate]:
    """Exact witness decision for the multiplier |u| * alpha * l**k.

    Returns a certificate when a witness exists (``verify_certificate``
    checks it), None when provably none does.  Exactness rests on fiber
    independence: the merged constraints decompose over chains, and each
    chain is decided by base-space reachability.  The pair engine decides first, so a
    prefix is built only for a yes.
    """
    if alpha < 1:
        raise ValueError(f"expected a positive integer, got {alpha!r}")
    if alpha % l == 0:
        raise ValueError(f"alpha {alpha} is divisible by the base {l}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    mult_shift.require_admissible(u, "u")
    mult_shift.require_admissible(v, "v")
    if not _PairProbe(omega, l, u, v).decide(alpha, k):
        return None
    return try_certificate(omega, l, u, v, alpha, k, "oracle_search")


def verify_certificate(omega: ShiftSpec, l: int, cert: Certificate) -> tuple[bool, str]:
    """Re-check one certificate from scratch: ``verify_certificates`` on a one-element list."""
    return verify_certificates(omega, l, [cert])[0]


def verify_certificates(omega: ShiftSpec, l: int, certs: Sequence[Certificate]) -> list[tuple[bool, str]]:
    """Re-check certificates from scratch against the exact oracle, one (ok, reason) each.

    A per-multiplier certificate's constraint groups are re-derived from
    its patterns and multiplier, then its prefix is checked to satisfy
    them and to be admissible.  A connector cover, when present, is
    checked claim by claim.  The two claims with no prefix are checked
    in full, for every multiplier they quantify over: ``_all_alpha_fault``
    and ``_gap_index_fault`` say why their checks prove them.

    By fiber independence a check reads nothing of a certificate but the
    fields in its memo's key, besides ``omega`` and ``l``, so the
    certificates of one call that agree on the key share one answer:
    - each (u_literal, v_literal) pair is parsed once;
    - constraints and prefix are checked once per (u_literal, v_literal,
      multiplier, constraints, prefix): the transitive certificates and
      the per-alpha lists of a campaign row may land on the same
      multipliers;
    - a cover is checked once per (u_literal, v_literal, directional base,
      k, cover): a directional claim and its per-alpha certificates carry
      the same cover;
    - each fiber's admissibility, and each threshold's gap-index check,
      is decided once.
    The metadata checks read the directional base, alpha and k, which the
    claim key leaves out, so they run for every certificate, first.  Check
    order and reasons are those of a certificate checked alone, and no
    memo outlives the call.
    """
    patterns: dict = {}  # (u_literal, v_literal) -> (u, v), or why they do not parse
    claims: dict = {}  # claim key -> why the constraints or the prefix fail, or None
    covers: dict = {}  # cover key -> _cover_fault's answer
    fibers: dict = {}  # base-space pins -> whether a point meets them (validated partial_extendable)
    gaps: dict = {}  # threshold -> why it is no gap index, or None

    def inadmissible(name: str, pattern: Pattern) -> Optional[str]:
        for rep, cons in pattern.fibers().items():
            if cons not in fibers:
                fibers[cons] = shift_core.partial_extendable(omega, cons)
            if not fibers[cons]:
                return f"{name} is inadmissible on chain {rep}"
        return None

    def fault(cert: Certificate) -> Optional[str]:
        literals = (cert.u_literal, cert.v_literal)
        if literals not in patterns:
            try:
                patterns[literals] = tuple(parse_pattern(lit, omega, base=l) for lit in literals)
            except ValueError as exc:
                patterns[literals] = f"unparseable patterns: {exc}"
        parsed = patterns[literals]
        if isinstance(parsed, str):
            return parsed
        u, v = parsed
        if isinstance(cert, MixingPastThreshold):
            if cert.threshold not in gaps:
                gaps[cert.threshold] = _gap_index_fault(omega, cert.threshold)
            return inadmissible("u", u) or inadmissible("v", v) or gaps[cert.threshold]
        if isinstance(cert, DirectionalAllAlpha):
            why = _all_alpha_fault(l, v, cert) or inadmissible("u", u) or inadmissible("v", v)
            if why:
                return why
        elif (
            cert.directional_base < 2
            # base**k >= 2**((bits(base) - 1) * k) > multiplier: refused before the power is taken
            or (cert.directional_base.bit_length() - 1) * cert.k >= cert.multiplier.bit_length()
            or cert.multiplier != u.length * cert.alpha * cert.directional_base**cert.k
        ):
            return "multiplier disagrees with (alpha, k, directional base)"
        else:
            key = (*literals, cert.multiplier, cert.constraints, cert.prefix)
            if key not in claims:
                mcs = multiplier_constraints(u, v, cert.multiplier)
                if not mcs.satisfiable_form:
                    claims[key] = f"constraints conflict at positions {[c[0] for c in mcs.conflicts]}"
                elif mcs.groups != cert.constraints:
                    claims[key] = "constraint transcript disagrees with the patterns and multiplier"
                else:
                    claims[key] = prefix_fault(omega, l, mcs.groups, cert.prefix)
            # last: the prefix, now known to cover |u| * |v|, bounds the cover's offset computations
            if claims[key] or cert.cover is None:
                return claims[key]
        key = (*literals, cert.directional_base, cert.k, cert.cover)
        if key not in covers:
            covers[key] = _cover_fault(omega, l, u, v, cert)
        return f"cover: {covers[key]}" if covers[key] else None

    return [(False, why) if (why := fault(cert)) else (True, "ok") for cert in certs]


def _all_alpha_fault(l: int, v: Pattern, claim: DirectionalAllAlpha) -> Optional[str]:
    """Why the claim's modulus or v rules out its proof, or None; admissibility and the cover are checked after.

    Lemma.  Let q = l**n with n >= 1, u and v admissible, and the cover
    pass ``_cover_fault``: its offset bound is B = ``product_offset_bound``
    (l, |u|, |v|) + n - 1, its common offset is K = k1 + n*k (|u| =
    alpha1 * l**k1 with l not dividing alpha1), and it lists every (u
    fiber, pad r <= B, v fiber) triple once, each pair's words (which
    carry the two fibers' pins) fitting one base-space point with v's word
    K + r depths deeper.  Then every multiplier M = |u| * alpha * q**k
    with q not dividing alpha connects u to v.

    Proof.  Write alpha = alpha' * l**s with l not dividing alpha', so
    s <= n - 1 as q does not divide alpha.  For each of v's chains j,
    M * j = alpha1 * alpha * j * l**K = c * l**(K + r) with c base-free
    and r = v_l(alpha1 * alpha * j) = s + v_l(alpha1 * alpha' * j) <=
    n - 1 + ``product_offset_bound`` = B.  So v's fiber on j lands on
    chain c with every depth shifted by K + r.  Per target chain c:
    - u has a fiber on c: the cover pair (c, r, j) shows u's fiber and
      v's shifted fiber fit one point, since dropping pins keeps a point;
    - u has none: any cover pair with v chain j and pad r shows v's fiber
      fits alone at K + r, by the same dropping;
    - c carries only u's fiber: u is admissible;
    - nothing lands on c: any point of the (nonempty) base space.
    Two v chains never share a target (``_PairProbe``'s injectivity), so
    each target carries at most one v fiber, and by fiber independence
    the per-chain points make one point of the subshift.

    The offset bound takes time linear in |v|, so a v longer than
    ``PREFIX_GUARD`` is refused; for a per-multiplier certificate the
    prefix bounds it.
    """
    dq = decompose(claim.directional_base, l)
    if dq.alpha != 1 or dq.k < 1:
        return f"directional base {claim.directional_base} is not {l}**n with n >= 1"
    if v.length > witness_mod.PREFIX_GUARD:
        return f"v's length {v.length} is past the cap {witness_mod.PREFIX_GUARD}"
    return None


def _gap_index_fault(omega: ShiftSpec, threshold: int) -> Optional[str]:
    """Why ``threshold`` is no gap index of the base space, or None; re-derived here, not read from the deciders.

    N is a gap index when every admissible word connects to every
    admissible word across any N or more free positions:
    - finite type: every row of A**N, the N-th boolean power of the
      pruned window graph's adjacency, is every window.  A**N comes from
      repeated squaring of per-window successor sets; once a power is
      full, every later one is, since every window has a successor;
    - cofinite gap set: N > every banned gap.
    Other specs have no check here, and N >= 1 always.

    Why a gap index proves ``MixingPastThreshold``: let M = |u| * m with
    m >= l**N, and c a chain that carries u's pins and a v chain's pins.
    u's pins sit at positions c * l**(d - 1) <= |u|, and v's at M * p >=
    |u| * l**N, so v's first depth D on c satisfies c * l**(D - 1) >=
    |u| * l**N >= c * l**(d + N - 1): D >= d + N for u's last depth d.
    With window W, u's point up to its window ending at max(d, W) and
    v's point from its window starting at D are joined by any path of
    length D + W - 1 - max(d, W) >= N, which A**N full provides (a
    cofinite gap set allows every distance >= N between u's and v's
    ones).  Chains that carry one pattern's pins fit by admissibility,
    v's chains land on distinct chains, and fiber independence joins the
    chains into one point.
    """
    if threshold < 1:
        return f"gap index {threshold} is below 1"
    if isinstance(omega, SpacingSpec):
        if omega.declared_class != "cofinite":
            return f"a {omega.declared_class} gap set has no gap index"
        top = max(omega.complement, default=0)
        return None if threshold > top else f"gap {top} is banned, so {threshold} is no gap index"
    g = shift_core.build_graph(omega)
    # rows: A**(2**i), with 2**i <= N; power: the product of the A**(2**j) for N's set bits j < i
    power, rows, n = None, g.succ, threshold
    while not all(r == g.full for r in rows):
        if n & 1:
            power = rows if power is None else [shift_core._advance(rows, r) for r in power]
        n >>= 1
        if not n:
            if all(r == g.full for r in power):
                return None
            return f"not every window reaches every window in {threshold} steps: {threshold} is no gap index"
        rows = [shift_core._advance(rows, r) for r in rows]
    return None


def prefix_fault(omega: ShiftSpec, l: int, groups: tuple, prefix: str) -> Optional[str]:
    """Why ``prefix`` is no admissible block meeting the per-chain (depth, symbol) groups, or None.

    Read a depth level at a time: by fiber independence the prefix is
    admissible exactly when every chain word is, so each distinct word is
    checked once.
    """
    needed = max(rep * l ** (d - 1) for rep, cons in groups for d, _ in cons)
    if len(prefix) < needed:
        return f"prefix length {len(prefix)} does not cover position {needed}"
    for rep, cons in groups:
        for depth, sym in cons:
            pos = rep * l ** (depth - 1)
            if int(prefix[pos - 1]) != sym:
                return f"prefix violates the constraint at position {pos}"
    if not all(shift_core.word_admissible(omega, word) for word in mult_shift.chain_words(prefix, l)):
        return "prefix is not an admissible block"
    return None


def _cover_fault(omega: ShiftSpec, l: int, u: Pattern, v: Pattern, cert: Certificate) -> Optional[str]:
    """What is wrong with the certificate's connector cover, or None.

    The cover claims that u's fiber words, each at depth 1, connect to
    v's fiber words, each at depth common_offset + r + 1, for every
    (u-fiber, v-fiber, pad r <= offset_bound), with common_offset =
    k1 + n*k for the modulus l**n.
    """
    cover = cert.cover
    dq = decompose(cert.directional_base, l)
    if dq.alpha != 1:
        return f"directional base {cert.directional_base} is not a power of {l}"
    n = dq.k
    if cover.offset_bound != product_offset_bound(l, u.length, v.length) + n - 1:
        return f"offset bound {cover.offset_bound} is not the product offset bound plus {n - 1}"
    if cover.common_offset != decompose(u.length, l).k + n * cert.k:
        return f"common offset {cover.common_offset} is not k1 + {n}*{cert.k}"
    u_fibers, v_fibers = u.fibers(), v.fibers()
    listed = sorted((urep, r, vrep) for urep, _, r, vrep, _, _ in cover.pairs)
    expected = sorted(itertools.product(u_fibers, range(cover.offset_bound + 1), v_fibers))
    if listed != expected:
        return "pairs do not list every (u fiber, v fiber, pad) triple exactly once"
    for urep, uw, r, vrep, pad, vw in cover.pairs:
        if len(pad) != r:
            return f"pad {pad!r} does not have length {r}"
        if not shift_core.word_admissible(omega, pad + vw):
            return f"pad {pad!r} followed by v's word {vw!r} is not admissible"
        if not all(d <= len(uw) and int(uw[d - 1]) == s for d, s in u_fibers[urep]):
            return f"word {uw!r} does not carry u's fiber on chain {urep}"
        if not all(d <= len(vw) and int(vw[d - 1]) == s for d, s in v_fibers[vrep]):
            return f"word {vw!r} does not carry v's fiber on chain {vrep}"
        if not shift_core.offset_table(omega, word_pins(uw), word_pins(vw))[cover.common_offset + r]:
            return f"u's word {uw!r} and v's word {vw!r} do not connect at pad {r}"
    return None


# ---------------------------------------------------------------------------
# fast per-pair probing with precomputed fiber structure


class _PairProbe:
    """Per-pair decision engine for the multipliers |u| * m * l**e (any m >= 1, e >= 0).

    v's chain j lands on the chain of alpha1 * m * j, e levels deeper.
    Each (m, e) query is one offset-table lookup per v chain, exactly:

    * Injectivity.  For one multiplier M, M * j1 and M * j2 share a chain
      only if j1 / j2 is a power of l, and two base-free j1, j2 then
      coincide.  So a target chain carries at most one v fiber, beside at
      most one (static) u fiber, and its feasibility is a function of the
      base space alone: F(u fiber, v fiber, offset), tabulated per spec in
      the map ``shift_core.offset_tables`` returns; the engine holds it.
    * Monotonicity.  Adding pins never makes a chain feasible again, so
      the chains that carry only u need checking once per probe (u's
      admissibility), and a query fails outright when one of them fails.
    """

    def __init__(self, omega: ShiftSpec, l: int, u: Pattern, v: Pattern):
        self.omega = omega
        self.l = l
        self.u = u
        self.v = v
        d = decompose(u.length, l)
        self.alpha1, self.k1 = d.alpha, d.k
        self.u_groups = u.fibers()
        self.v_groups = v.fibers()
        self.u_bad = frozenset(mult_shift.inadmissible_classes(u))
        self.tables = shift_core.offset_tables(omega)
        self._targets: dict[int, list[tuple]] = {}

    def _target_layout(self, m: int) -> list[tuple]:
        """Per v chain at m: target chain, depth offset before the e shift, fiber, offset table."""
        layout = self._targets.get(m)
        if layout is None:
            layout = []
            for j, cons in self.v_groups.items():
                d = decompose(self.alpha1 * m * j, self.l)
                table = self.tables[self.u_groups.get(d.alpha, ()), cons]
                layout.append((d.alpha, d.k + self.k1, cons, table))
            self._targets[m] = layout
        return layout

    def decide(self, m: int, e: int) -> bool:
        if self.u_bad:
            return False
        for _, base, _, table in self._targets.get(m) or self._target_layout(m):
            if not table[base + e]:
                return False
        return True

    def class_feasible(self, m: int, e: int) -> dict[int, bool]:
        """Per-chain feasibility at (m, e), for obstruction transcripts."""
        out = {rep: rep not in self.u_bad for rep in self.u_groups}
        for target, base, _, table in self._target_layout(m):
            out[target] = table[base + e]
        return out


class _PairGrid:
    """Every pair of a pattern list decided at once, as int bitmasks over pair indices.

    Pair i * N + j is (pats[i], pats[j]), ``itertools.product`` order.
    ``depths(m)[e]`` is the mask of the pairs that
    ``_PairProbe(omega, l, u, v).decide(m, e)`` accepts, for every e < width.
    The caller fixes the width: the widest depth any of its reads asks for, plus one.

    Exact by the argument of ``_PairProbe``.  By injectivity, v's chain c
    lands on one target chain, where u's fiber there and v's fiber on c
    meet in one offset table, at offset base + e with base =
    v_l(alpha1 * m * c) + k1.  By monotonicity, a pair is accepted iff u
    has no inadmissible class and every v chain's table holds.  So per v
    chain c the u's group by (base, fiber on the target) and the v's by
    their fiber on c; each pair of groups accepts the product of its two
    index sets at the depths e where ``table.bits(base + width) >> base``
    has bit e.  Pairs whose v has no chain c are free on c.

    A gap-set lookup past the horizon raises, and the grid reads offsets
    the lazy path may never read.  So on a gap-set spec the grid reads no
    table: every pair is ``unsure``, and ``left_out`` hands it to the lazy
    engine whatever the masks say.  Its callers then read what the lazy
    path reads, and raise where it raises.

    The grid serves the callers that ask about every pair of a list; it
    is not a second engine for the lazy one to fold into.  Single probes
    (``probe_directional_q``, ``exists_witness_exact``, ``_forall_k_proof``)
    stay on ``_PairProbe``: a one-pair grid fills every depth of the width
    for every alpha, where the lazy walk stops at the first alpha that fails.
    """

    def __init__(self, omega: ShiftSpec, l: int, pats: Sequence[Pattern], width: int):
        self.omega = omega
        self.l = l
        self.pats = pats
        self.width = width
        n = self.n = len(pats)
        self.full = (1 << n * n) - 1
        self.tables = shift_core.offset_tables(omega)
        self.unsure = self.full if self.tables.ctx.graph is None else 0
        # u's by length, as (decomposed length, [(spread bit of u, u's fibers)]);
        # u's with an inadmissible class drop out
        by_length: dict[int, list] = {}
        self.good = 0
        for i, u in enumerate(pats):
            if not mult_shift.inadmissible_classes(u):
                by_length.setdefault(u.length, []).append((1 << i * n, u.fibers()))
                self.good |= ((1 << n) - 1) << i * n
        self.u_lengths = [(decompose(length, l), members) for length, members in by_length.items()]
        # per v chain c: v's by fiber on c (masks over v indices), and the pairs free on c
        self.v_groups: dict[int, dict[tuple, int]] = {}
        for j, v in enumerate(pats):
            for c, cons in v.fibers().items():
                groups = self.v_groups.setdefault(c, {})
                groups[cons] = groups.get(cons, 0) | 1 << j
        spread_all = sum(1 << i * n for i in range(n))
        self.free = {c: (((1 << n) - 1) & ~sum(groups.values())) * spread_all for c, groups in self.v_groups.items()}
        self._depths: dict[int, list[int]] = {}

    def depths(self, m: int) -> list[int]:
        """Per depth e < width, the mask of pairs accepted at the multiplier |u| * m * l**e (kept per m).

        Unsure pairs are in no mask.
        """
        width = self.width
        if self.unsure == self.full:
            return [0] * width
        out = self._depths.get(m)
        if out is not None:
            return out
        out = [self.good] * width
        for c, v_groups in self.v_groups.items():
            rows: dict[int, int] = {}  # depth row -> pairs accepted on chain c at its depths
            for d1, members in self.u_lengths:
                d = decompose(d1.alpha * m * c, self.l)
                base = d.k + d1.k
                u_groups: dict[tuple, int] = {}
                for bit, fibers in members:
                    ufib = fibers.get(d.alpha, ())
                    u_groups[ufib] = u_groups.get(ufib, 0) | bit
                for ufib, uspread in u_groups.items():
                    by_row: dict[int, int] = {}
                    for vfib, vmask in v_groups.items():
                        row = self.tables[ufib, vfib].bits(base + width) >> base
                        if row:
                            by_row[row] = by_row.get(row, 0) | vmask
                    for row, vmask in by_row.items():
                        rows[row] = rows.get(row, 0) | vmask * uspread
            accepted = [self.free[c]] * width
            for row, pairs in rows.items():
                while row:
                    low = row & -row
                    accepted[low.bit_length() - 1] |= pairs
                    row ^= low
            out = [a & b for a, b in zip(out, accepted)]
        self._depths[m] = out
        return out

    def left_out(self, mask: int):
        """Lazy engines, in product order, for the pairs outside ``mask`` and for every unsure pair."""
        rest = self.full & ~(mask & ~self.unsure)
        while rest:
            low = rest & -rest
            i, j = divmod(low.bit_length() - 1, self.n)
            yield _PairProbe(self.omega, self.l, self.pats[i], self.pats[j])
            rest ^= low


# ---------------------------------------------------------------------------
# all-k infeasibility proofs (finite-type base spaces, power moduli)


def _forall_k_proof(probe: _PairProbe, alpha: int, n: int) -> Optional[dict]:
    """Proof that no depth k admits a witness at the multipliers |u| * alpha * l**(n*k), or None.

    Only for finite-type base spaces: each chain's offset table repeats
    with some period from some start on (``_OffsetTable.periodicity``),
    and depth k reads it at offset base + n*k, so past the start its
    feasibility is periodic in k with period period / gcd(n, period).  An
    infeasible sweep over one full period past every start is therefore
    conclusive for all k.
    """
    if not isinstance(probe.omega, SftSpec):
        return None
    k_star = 0
    periods = []
    for _, base, _, table in probe._target_layout(alpha):
        if not probe.tables[(), table.static][0]:
            return None  # static side already unsatisfiable (or no windows): caller's problem
        start, period = table.periodicity()
        k_star = max(k_star, -((base - start) // n))  # least k with base + n*k >= start
        periods.append(period // math.gcd(n, period))
    if not periods:
        return None
    cycle = math.lcm(*periods)
    horizon = k_star + cycle
    for k in range(horizon):
        if probe.decide(alpha, n * k):
            return None
    residue_table: dict[int, list[int]] = {}
    for k in range(k_star, k_star + cycle):
        for rep, ok in probe.class_feasible(alpha, n * k).items():
            if ok:
                residue_table.setdefault(rep, []).append(k % cycle)
    return {
        "alpha": alpha,
        "modulus_step": n,
        "horizon": horizon,
        "period": cycle,
        "periodic_from_k": k_star,
        "per_chain_feasible_residues": {rep: sorted(set(res)) for rep, res in residue_table.items()},
        "statement": (
            f"per-chain feasibility is periodic in k with period {cycle} beyond k={k_star}; "
            f"no k < {horizon} is feasible, hence no k at all"
        ),
    }


# ---------------------------------------------------------------------------
# probes


@dataclass(frozen=True)
class DirectionalVerdict:
    """Outcome of the one-pair directional probe at modulus q."""

    q: int
    u_literal: str
    v_literal: str
    status: str  # witnessed | inconclusive_negative | proved_negative
    k: Optional[int]
    per_k_failures: tuple[tuple[int, int], ...]  # (k, first failing alpha)
    proof: Optional[dict]
    budget: SearchBudget


def probe_directional_q(
    omega: ShiftSpec, l: int, q: int, u: Pattern, v: Pattern, budget: SearchBudget
) -> DirectionalVerdict:
    """Search for one depth k valid for every multiplier residue up to the budget.

    Reports the first good k, or the per-k failing residues; a failure is
    upgraded from inconclusive to proved when some residue carries an
    all-k periodicity obstruction.
    """
    mult_shift.require_admissible(u, "u")
    mult_shift.require_admissible(v, "v")
    if q < 2:
        raise ValueError("modulus must be >= 2")
    status, k, failures, proof = _directional(_PairProbe(omega, l, u, v), q, budget)
    literals = mult_shift.format_pattern(u), mult_shift.format_pattern(v)
    return DirectionalVerdict(q, *literals, status, k, failures, proof, budget)


def _directional(probe: _PairProbe, q: int, budget: SearchBudget) -> tuple:
    """``probe_directional_q`` on a built engine, as (status, k, per-k failures, proof).

    The multiplier |u| * alpha * q**k is (alpha * a_q**k, n * k) for q = a_q * l**n.
    """
    dq = decompose(q, probe.l)
    a_q, n = dq.alpha, dq.k
    alphas = a_set(q, budget.alpha_bound)
    failures = []
    for k in range(budget.k_bound + 1):
        step, e = a_q**k, n * k
        bad = next((alpha for alpha in alphas if not probe.decide(alpha * step, e)), None)
        if bad is None:
            return "witnessed", k, tuple(failures), None
        failures.append((k, bad))
    proof = None
    if a_q == 1:  # the all-k proof needs a power modulus
        # at depth k the alphas before failures[k]'s pass and it fails: decide only the pairs that leaves open
        first = [alphas.index(bad) for _, bad in failures]
        for i, alpha in enumerate(alphas):  # one alpha at a time: the first proof ends the search
            if all(j == i or (j < i and not probe.decide(alpha, n * k)) for k, j in enumerate(first)):
                proof = _forall_k_proof(probe, alpha, n)
                if proof is not None:
                    break
    status = "proved_negative" if proof is not None else "inconclusive_negative"
    return status, None, tuple(failures), proof


@dataclass(frozen=True)
class TransitiveVerdict:
    """Outcome of the all-pairs connection probe."""

    status: str  # witnessed | inconclusive_negative | proved_negative
    pairs_checked: int
    witnessed: int
    failing: tuple[tuple[str, str], ...]
    proofs: tuple[dict, ...]
    budget: SearchBudget


def _alpha_k_order(l: int, budget: SearchBudget) -> list[tuple[int, int]]:
    cands = [
        (alpha, k)
        for alpha in a_set(l, budget.alpha_bound)
        for k in range(budget.k_bound + 1)
    ]
    cands.sort(key=lambda ak: (ak[0] * l ** ak[1], ak[1]))
    return cands


def x_block_patterns(omega: ShiftSpec, l: int, max_len: int) -> list[Pattern]:
    """All admissible blocks of the multiplicative subshift up to a length."""
    out = []
    for t in range(1, max_len + 1):
        for w in sorted(mult_shift.enumerate_blocks(omega, l, t)):
            out.append(Pattern.block(w, l, omega))
    return out


def probe_transitive_X(omega: ShiftSpec, l: int, budget: SearchBudget) -> TransitiveVerdict:
    """For every block pair up to the budgeted length, search for some witness.

    Unwitnessed pairs leave the verdict inconclusive (the multiplier space
    is unbounded) unless a placement obstruction proves no multiplier can
    ever work: some fiber of v has a bounded placement horizon below the
    least chain offset any multiplier produces.
    """
    pats = x_block_patterns(omega, l, budget.pair_length_bound)
    return _transitive(_PairGrid(omega, l, pats, budget.k_bound + 1), budget)


def _transitive(grid: _PairGrid, budget: SearchBudget) -> TransitiveVerdict:
    """``probe_transitive_X`` on a built grid: lazy engines only for the pairs no (alpha, k) connects."""
    order = _alpha_k_order(grid.l, budget)
    connected = 0
    for alpha, k in order:
        connected |= grid.depths(alpha)[k]
    witnessed = (connected & ~grid.unsure).bit_count()
    failing = []
    proofs = []
    for probe in grid.left_out(connected):
        if grid.unsure and any(probe.decide(alpha, k) for alpha, k in order):
            witnessed += 1
            continue
        failing.append((mult_shift.format_pattern(probe.u), mult_shift.format_pattern(probe.v)))
        proof = _never_witnessable_proof(probe.omega, grid.l, probe.u, probe.v)
        if proof is not None:
            proofs.append(proof)
    if not failing:
        status = "witnessed"
    elif proofs:
        status = "proved_negative"
    else:
        status = "inconclusive_negative"
    return TransitiveVerdict(status, grid.n**2, witnessed, tuple(failing), tuple(proofs), budget)


def _never_witnessable_proof(omega: ShiftSpec, l: int, u: Pattern, v: Pattern) -> Optional[dict]:
    """Placement obstruction valid for every (alpha, k), or None.

    Every multiplier lands the fiber of v's chain j at an offset of at
    least k1 + powerl(alpha1 * j); if that fiber's constraints only fit at
    strictly smaller offsets (offsets form a downward-closed set), no
    multiplier works.
    """
    d = decompose(u.length, l)
    for j, cons in v.fibers().items():
        e_min = d.k + decompose(d.alpha * j, l).k
        if not shift_core.offset_table(omega, (), cons)[e_min]:
            return {
                "v_chain": j,
                "least_offset": e_min,
                "statement": (
                    f"the fiber of v on chain {j} cannot be placed at offset {e_min} or beyond, "
                    f"but every multiplier lands it at offset >= {e_min}"
                ),
            }
    return None


# ---------------------------------------------------------------------------
# campaign


@dataclass
class CampaignRow:
    spec: ShiftSpec
    l: int
    omega_verdicts: dict
    x_probes: dict
    checks: dict
    budget: SearchBudget
    certificates_checked: int = 0
    certificate_failures: int = 0
    hard: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "spec": spec_to_dict(self.spec),
            "l": self.l,
            "omega": self.omega_verdicts,
            "x_probes": self.x_probes,
            "checks": self.checks,
            "budget": vars(self.budget),
            "certificates_checked": self.certificates_checked,
            "certificate_failures": self.certificate_failures,
            "hard": self.hard,
            "notes": self.notes,
        }


@dataclass
class CampaignReport:
    rows: list
    elapsed: float

    @property
    def hard_contradictions(self) -> list:
        out = []
        for row in self.rows:
            for item in row.hard:
                out.append({"spec": spec_to_dict(row.spec), "l": row.l, **item})
        return out

    @property
    def certificates_checked(self) -> int:
        return sum(r.certificates_checked for r in self.rows)

    @property
    def certificate_failures(self) -> int:
        return sum(r.certificate_failures for r in self.rows)

    def to_jsonl(self) -> str:
        import json

        return "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in self.rows) + "\n"

    def render_table(self) -> str:
        def tf(x):
            return "?" if x is None else ("T" if x else "F")

        header = (
            f"{'base space':<34} {'l':>2} | {'ext':>3} {'trn':>3} {'wm':>3} {'mix':>3} | "
            f"{'X:trn':>6} {'X:dir':>6} {'X:dir2':>6} {'X:mix':>6} | {'equivalences':<22} certs"
        )
        lines = [header, "-" * len(header)]
        short = {"witnessed": "T", "inconclusive_negative": "F?", "proved_negative": "F!", "empty": "-"}
        verdict_mark = {"pass": "EQ", "inconclusive": "?", "fail": "X"}
        for row in self.rows:
            spec_txt = _spec_label(row.spec)
            om = row.omega_verdicts
            checks = ",".join(f"{k[:4]}={verdict_mark.get(v, v)}" for k, v in row.checks.items())
            lines.append(
                f"{spec_txt:<34} {row.l:>2} | {tf(om.get('extensible')):>3} {tf(om.get('transitive')):>3} "
                f"{tf(om.get('weakly_mixing')):>3} {tf(om.get('mixing')):>3} | "
                f"{short.get(row.x_probes.get('transitive'), '?'):>6} "
                f"{short.get(row.x_probes.get('directional_l'), '?'):>6} "
                f"{short.get(row.x_probes.get('directional_l2'), '?'):>6} "
                f"{short.get(row.x_probes.get('mixing'), '?'):>6} | {checks:<22} "
                f"{row.certificates_checked}({row.certificate_failures})"
            )
        lines.append("-" * len(header))
        lines.append(
            f"rows={len(self.rows)} certificates={self.certificates_checked} "
            f"cert_failures={self.certificate_failures} hard={len(self.hard_contradictions)}"
        )
        return "\n".join(lines) + "\n"


def _spec_label(spec: ShiftSpec) -> str:
    if isinstance(spec, SftSpec):
        forb = ",".join(spec.forbidden) if spec.forbidden else "-"
        return f"sft[{spec.alphabet}]{{{forb}}}"
    return f"spacing[{spec.declared_class}]{{{','.join(map(str, spec.complement))}}}"


def _word_pool(max_word_len: int, alphabet: int) -> list[str]:
    """Every word over the alphabet up to a length, shortest first."""
    digits = "0123456789"[:alphabet]
    return ["".join(p) for t in range(1, max_word_len + 1) for p in itertools.product(digits, repeat=t)]


def binary_sft_family(max_word_len: int = 2, alphabet: int = 2) -> list[SftSpec]:
    """Every finite-type spec over the alphabet with forbidden words up to a length."""
    pool = _word_pool(max_word_len, alphabet)
    out = []
    for r in range(len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            out.append(sft(alphabet, combo))
    return out


def random_sft_family(count: int, seed: int, max_word_len: int = 3, alphabet: int = 2) -> list[SftSpec]:
    """Seeded random forbidden sets with words up to a length."""
    pool = _word_pool(max_word_len, alphabet)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(1, 4)
        out.append(sft(alphabet, rng.sample(pool, size)))
    return out


def dedupe_by_language(specs: Sequence[SftSpec]) -> list[SftSpec]:
    """Keep one spec per language (languages compared on words up to memory + 2)."""
    depth = max((s.memory for s in specs), default=1) + 2
    seen = {}
    for s in specs:
        key = tuple(shift_core.blocks(s, t) for t in range(1, depth + 1))
        if key not in seen:
            seen[key] = s
    return list(seen.values())


# pattern pairs per check that get witness certificates
_CERTIFIED_PAIRS = 6


def _subset_pairs(pats: Sequence[Pattern]) -> list[tuple[Pattern, Pattern]]:
    small = [p for p in pats if p.length <= 2]
    return list(itertools.product(small, small))[:_CERTIFIED_PAIRS]


def _campaign_row(spec: ShiftSpec, l: int, budget: SearchBudget) -> CampaignRow:
    omega_verdicts = {}
    for prop in PROPERTIES:
        try:
            omega_verdicts[prop] = shift_core.decide(spec, prop).value
        except UndecidableProperty:
            omega_verdicts[prop] = None
    row = CampaignRow(spec, l, omega_verdicts, {}, {}, budget)

    if not shift_core.blocks(spec, 1):
        row.notes.append("empty language; every check is vacuous")
        row.x_probes = {"transitive": "empty", "directional_l": "empty", "directional_l2": "empty", "mixing": "empty"}
        row.checks = {"transitivity": "pass", "directional": "pass", "mixing": "pass"}
        return row

    pats = x_block_patterns(spec, l, budget.pair_length_bound)
    # the directional check reads depth n*k + v_l(alpha) <= 2*k + 1 at n = 2, alpha in A_{l**2}
    grid = _PairGrid(spec, l, pats, 2 * budget.k_bound + 2)
    certs: list[tuple[str, Certificate]] = []  # (check, certificate), in build order
    _check_transitivity(row, spec, l, budget, pats, grid, certs)
    _check_directional(row, spec, l, budget, pats, grid, certs)
    _check_mixing(row, spec, l, budget, pats, grid, certs)
    row.certificates_checked = len(certs)
    for (where, _), (ok, reason) in zip(certs, verify_certificates(spec, l, [cert for _, cert in certs])):
        if not ok:
            row.certificate_failures += 1
            row.hard.append({"check": where, "kind": "certificate_failed_verification", "reason": reason})
    return row


def _check_transitivity(row, spec, l, budget, pats, grid, certs) -> None:
    extensible = row.omega_verdicts["extensible"]
    verdict = _transitive(grid, budget)
    row.x_probes["transitive"] = verdict.status
    if extensible:
        if verdict.status != "witnessed":
            row.hard.append(
                {
                    "check": "transitivity",
                    "kind": "predicted_connection_missing",
                    "failing_pairs": list(verdict.failing)[:5],
                }
            )
            row.checks["transitivity"] = "fail"
            return
        for u, v in _subset_pairs(pats):
            certs.append(("transitivity", witness_mod.witness_transitive(spec, l, u, v, k=0)))
        row.checks["transitivity"] = "pass"
        return
    # predicted no uniform connections: exhibit a pattern pair no multiplier connects.  A
    # non-extensible row is finite-type with a nonempty language, so it has a dead window.
    u, v, word, offset = _nonextensible_refutation(spec, l)
    probe = _PairProbe(spec, l, u, v)
    found = [(a, k) for a, k in _alpha_k_order(l, budget) if probe.decide(a, k)]
    if found:
        row.hard.append(
            {
                "check": "transitivity",
                "kind": "witness_where_forbidden",
                "pair": (mult_shift.format_pattern(u), mult_shift.format_pattern(v)),
                "found": found[:3],
            }
        )
        row.checks["transitivity"] = "fail"
        return
    proof = _never_witnessable_proof(spec, l, u, v)
    if proof is None:
        row.checks["transitivity"] = "inconclusive"
    else:
        row.checks["transitivity"] = "pass"
        row.notes.append(
            f"word {word!r} admits no placement at offset {offset} or beyond; "
            f"its chain lift rules out every multiplier"
        )


def _nonextensible_refutation(spec: ShiftSpec, l: int):
    """Pattern pair that no multiplier connects, built from a non-extensible word."""
    if not isinstance(spec, SftSpec):
        return None
    g = shift_core.build_graph(spec)
    if not g.vertices:
        return None
    dead = shift_core._dead_windows(g)
    if not dead:
        return None
    word = dead[0]
    # the windows that can sit at offset m (positions m + 1 on) are the unconstrained walk's set m steps
    # from g.full; only dead windows precede a dead window and they form no cycle, so it drops out
    # within len(g) steps
    bit, offset, states = 1 << g.vertices.index(word), 0, g.full
    while states & bit:
        offset, states = offset + 1, shift_core._advance(g.succ, states)
    u = Pattern.block(mult_shift.least_block(spec, l, l**offset), l, spec)
    # chain 1 of v carries the dead window; every other chain its least word
    v = Pattern.block(mult_shift.least_block(spec, l, l ** (len(word) - 1), {1: word_pins(word)}), l, spec)
    return u, v, word, offset


def _check_directional(row, spec, l, budget, pats, grid, certs) -> None:
    wm = row.omega_verdicts["weakly_mixing"]
    capped = False  # a cover past the prefix cap refutes nothing, and proves nothing either
    for label, n in (("directional_l", 1), ("directional_l2", 2)):
        # |u| * alpha * l**(n*k) is the multiplier |u| * alpha' * l**(n*k + s) with alpha = alpha' * l**s and
        # alpha' l-free: the grid fills each alpha' once
        reads = [decompose(alpha, l) for alpha in a_set(l**n, budget.alpha_bound)]
        witnessed = 0  # pairs with one depth k that every alpha accepts
        for k in range(budget.k_bound + 1):
            uniform = grid.full
            for d in reads:
                uniform &= grid.depths(d.alpha)[n * k + d.k]
            witnessed |= uniform
        # one proved negative fixes the label, and the first non-witnessed pair comes at or
        # before it, so the pairs after it are not probed
        first_negative, proved = None, False  # every pair witnessed iff first_negative stays None
        for probe in grid.left_out(witnessed):
            status = _directional(probe, l**n, budget)[0]
            if status != "witnessed" and first_negative is None:
                first_negative = probe
            if status == "proved_negative":
                proved = True
                break
        if first_negative is None:
            row.x_probes[label] = "witnessed"
        elif proved:
            row.x_probes[label] = "proved_negative"
        else:
            row.x_probes[label] = "inconclusive_negative"
        if wm:
            if first_negative is not None:
                u, v = first_negative.u, first_negative.v
                try:  # a uniform depth may exist beyond the probe budget
                    dw = witness_mod.witness_directional_power(spec, l, n, u, v, budget.alpha_bound)
                    certs.extend(("directional", cert) for cert in dw.certificates)
                    row.notes.append(f"{label}: a pair needed a depth step beyond the budget")
                except (ConnectorNotFound, PreconditionFailed):
                    row.hard.append(
                        {
                            "check": "directional",
                            "kind": "predicted_uniform_depth_missing",
                            "q": l**n,
                            "pair": (mult_shift.format_pattern(u), mult_shift.format_pattern(v)),
                        }
                    )
                    row.checks["directional"] = "fail"
                    return
                except OutputGuardExceeded as exc:
                    capped = True
                    row.notes.append(f"{label}: no cover for a pair not witnessed within the budget: {exc}")
        else:
            if row.x_probes[label] == "witnessed":
                row.notes.append(f"{label}: every budgeted pair connected; counterexample outside the family")
    if wm:
        for u, v in _subset_pairs(pats):
            for n in (1, 2):
                try:
                    certs.append(("directional", witness_mod.witness_directional_all_alpha(spec, l, n, u, v)))
                except ConnectorNotFound:
                    row.hard.append(
                        {"check": "directional", "kind": "cover_connector_missing", "n": n,
                         "pair": (mult_shift.format_pattern(u), mult_shift.format_pattern(v))}
                    )
                    row.checks["directional"] = "fail"
                    return
        row.checks["directional"] = "inconclusive" if capped else "pass"
    else:
        if row.x_probes["directional_l"] == "proved_negative" or row.x_probes["directional_l2"] == "proved_negative":
            row.checks["directional"] = "pass"
        else:
            row.checks["directional"] = "inconclusive"


def _check_mixing(row, spec, l, budget, pats, grid, certs) -> None:
    mixing = row.omega_verdicts["mixing"]
    if mixing:
        threshold = shift_core.mixing_gap_index(spec)
        window = [
            (alpha, k)
            for alpha in a_set(l, budget.alpha_bound)
            for k in range(budget.k_bound + 1)
            if l**threshold <= alpha * l**k <= 8 * l**threshold
        ]
        if not window:
            row.x_probes["mixing"] = "inconclusive_negative"
            row.checks["mixing"] = "inconclusive"
            row.notes.append(f"mixing window above l**{threshold} is out of budget reach")
            return
        every = grid.full
        for alpha, k in window:
            every &= grid.depths(alpha)[k]
        for probe in grid.left_out(every):
            bad = [(a, k) for a, k in window if not probe.decide(a, k)]
            if bad:
                row.hard.append(
                    {
                        "check": "mixing",
                        "kind": "threshold_multiplier_unwitnessed",
                        "pair": (mult_shift.format_pattern(probe.u), mult_shift.format_pattern(probe.v)),
                        "threshold": threshold,
                        "failing": bad[:3],
                    }
                )
                row.x_probes["mixing"] = "inconclusive_negative"
                row.checks["mixing"] = "fail"
                return
        row.x_probes["mixing"] = "witnessed"
        certs.extend(("mixing", witness_mod.witness_mixing(spec, l, u, v).claim) for u, v in _subset_pairs(pats))
        row.checks["mixing"] = "pass"
        return
    # predicted not mixing: some pair must fail at arbitrarily large multipliers.  That is the
    # all-k proof the directional probe at q = l searches for, over the same pairs, alphas and
    # k range; _check_directional runs first and always sets directional_l.
    if row.x_probes["directional_l"] == "proved_negative":
        row.x_probes["mixing"] = "proved_negative"
        row.checks["mixing"] = "pass"
        row.notes.append("arbitrarily large multipliers fail by the periodicity obstruction")
    else:
        row.x_probes["mixing"] = "inconclusive_negative"
        row.checks["mixing"] = "inconclusive"
        row.notes.append(
            "no counterexample multiplier inside the budget and no periodicity refutation available"
        )


def campaign(
    family: Sequence[ShiftSpec],
    l_values: Sequence[int],
    budget: Optional[SearchBudget] = None,
    jobs: int = 1,
) -> CampaignReport:
    """Cross-validate deciders, constructors, and the oracle over a spec family.

    Finite-type specs are deduplicated by language first.  Rows are independent and may run in
    parallel, on at most one worker per row and per usable CPU (a forked pool starts every worker
    at once); the report order is deterministic either way.
    """
    budget = budget or budget_from_env()
    sfts = [s for s in family if isinstance(s, SftSpec)]
    others = [s for s in family if not isinstance(s, SftSpec)]
    specs = dedupe_by_language(sfts) + others
    tasks = [(spec, l) for spec in specs for l in l_values]
    start = time.monotonic()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(tasks), cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it loads multiprocessing, pickle and more

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_row_task, [(spec, l, budget) for spec, l in tasks], chunksize=8))
    else:
        rows = [_campaign_row(spec, l, budget) for spec, l in tasks]
    elapsed = time.monotonic() - start
    return CampaignReport(rows, elapsed)


def _row_task(args) -> CampaignRow:
    spec, l, budget = args
    return _campaign_row(spec, l, budget)
