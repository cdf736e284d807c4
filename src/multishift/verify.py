"""The certificate verifier: every positive claim re-checked from the patterns, with one base-space primitive.

Every base-space fact the verifier needs (a fiber's admissibility, a
chain word's, a pad word's, a cover pair's connection) is one question:
do these (position, symbol) pins fit one point of the base space?
``verify_certificates`` answers it with ``fits``, a memo that lasts one
call and decides each pin set it has not seen with ``partial_extendable``
(pins that put two symbols at one position fit no point).  So the
verifier reads none of the search's memos: not the per-spec offset
tables, their pre-images or static orbits, and not the pair engines.  A
wrong entry the search stores cannot be read back by the check that
should catch it.

The trusted base, shared with the search and held by its own tests:
- spec parsing (``spec_from_dict``, ``sft``, ``spacing``);
- the window graph: ``build_graph``, ``_advance`` and ``_walk`` /
  ``states_after``, which ``partial_extendable`` runs;
- ``lambda_arith``;
- ``multiplier_constraints``, ``parse_pattern`` / ``Pattern.fibers`` and
  ``chain_words``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from . import shift_core
from .lambda_arith import decompose, product_offset_bound
from .mult_shift import Pattern, chain_words, multiplier_constraints, parse_pattern
from .shift_core import ShiftSpec, SpacingSpec, word_pins
from .witness import PREFIX_GUARD, Certificate, DirectionalAllAlpha, MixingPastThreshold

__all__ = ["prefix_fault", "verify_certificate", "verify_certificates"]

Fits = Callable[[tuple], bool]  # (position, symbol) pins -> whether they fit one point of the base space


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
      multiplier, constraints, prefix): certificates built for other
      alphas, moduli or constructions may land on the same multiplier;
    - a cover is checked once per (u_literal, v_literal, directional base,
      k, cover): a directional claim and its per-alpha certificates carry
      the same cover;
    - each pin set goes through ``fits`` once, and each threshold's
      gap-index check runs once.
    The metadata checks read the directional base, alpha and k, which the
    claim key leaves out, so they run for every certificate, first.  Check
    order and reasons are those of a certificate checked alone, and no
    memo outlives the call.
    """
    patterns: dict = {}  # (u_literal, v_literal) -> (u, v), or why they do not parse
    claims: dict = {}  # claim key -> why the constraints or the prefix fail, or None
    covers: dict = {}  # cover key -> _cover_fault's answer
    gaps: dict = {}  # threshold -> why it is no gap index, or None
    fits = _fits(omega)

    def inadmissible(name: str, pattern: Pattern) -> Optional[str]:
        for rep, cons in pattern.fibers().items():
            if not fits(cons):
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
                    claims[key] = prefix_fault(omega, l, mcs.groups, cert.prefix, fits)
            # last: the prefix, now known to cover |u| * |v|, bounds the cover's offset computations
            if claims[key] or cert.cover is None:
                return claims[key]
        key = (*literals, cert.directional_base, cert.k, cert.cover)
        if key not in covers:
            covers[key] = _cover_fault(omega, l, u, v, cert, fits)
        return f"cover: {covers[key]}" if covers[key] else None

    return [(False, why) if (why := fault(cert)) else (True, "ok") for cert in certs]


def _fits(omega: ShiftSpec) -> Fits:
    """``fits(pins)``: whether pins fit one point, by ``partial_extendable``, kept for one call; a clash is False."""
    memo: dict[tuple, bool] = {}

    def fits(pins: tuple) -> bool:
        if pins not in memo:
            cmap: dict[int, int] = {}
            ok = all(cmap.setdefault(pos, sym) == sym for pos, sym in pins)
            memo[pins] = ok and shift_core.partial_extendable(omega, cmap.items())
        return memo[pins]

    return fits


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
    Two v chains never share a target (``oracle._PairProbe``'s
    injectivity), so each target carries at most one v fiber, and by
    fiber independence the per-chain points make one point of the
    subshift.

    The offset bound takes time linear in |v|, so a v longer than
    ``PREFIX_GUARD`` is refused; for a per-multiplier certificate the
    prefix bounds it.
    """
    dq = decompose(claim.directional_base, l)
    if dq.alpha != 1 or dq.k < 1:
        return f"directional base {claim.directional_base} is not {l}**n with n >= 1"
    if v.length > PREFIX_GUARD:
        return f"v's length {v.length} is past the cap {PREFIX_GUARD}"
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


def prefix_fault(omega: ShiftSpec, l: int, groups: tuple, prefix: str, fits: Fits) -> Optional[str]:
    """Why ``prefix`` is no admissible block meeting the per-chain (depth, symbol) groups, or None.

    Read a depth level at a time: by fiber independence the prefix is
    admissible exactly when every chain word is, so each distinct word is
    checked once, through ``fits``.
    """
    needed = max(rep * l ** (d - 1) for rep, cons in groups for d, _ in cons)
    if len(prefix) < needed:
        return f"prefix length {len(prefix)} does not cover position {needed}"
    for rep, cons in groups:
        for depth, sym in cons:
            pos = rep * l ** (depth - 1)
            if int(prefix[pos - 1]) != sym:
                return f"prefix violates the constraint at position {pos}"
    if not all(fits(word_pins(word)) for word in chain_words(prefix, l)):
        return "prefix is not an admissible block"
    return None


def _cover_fault(omega: ShiftSpec, l: int, u: Pattern, v: Pattern, cert: Certificate, fits: Fits) -> Optional[str]:
    """What is wrong with the certificate's connector cover, or None.

    The cover claims that u's fiber words, each at depth 1, connect to
    v's fiber words, each at depth common_offset + r + 1, for every
    (u-fiber, v-fiber, pad r <= offset_bound), with common_offset =
    k1 + n*k for the modulus l**n.  A connection is ``fits`` on u's word
    pins merged with v's word pins shifted by common_offset + r.
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
        if not fits(word_pins(pad + vw)):
            return f"pad {pad!r} followed by v's word {vw!r} is not admissible"
        if not all(d <= len(uw) and int(uw[d - 1]) == s for d, s in u_fibers[urep]):
            return f"word {uw!r} does not carry u's fiber on chain {urep}"
        if not all(d <= len(vw) and int(vw[d - 1]) == s for d, s in v_fibers[vrep]):
            return f"word {vw!r} does not carry v's fiber on chain {vrep}"
        if not fits(word_pins(uw) + tuple(enumerate(map(int, vw), start=cover.common_offset + r + 1))):
            return f"u's word {uw!r} and v's word {vw!r} do not connect at pad {r}"
    return None
