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
certificate that fails re-verification (``verify.verify_certificates``).
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
from .errors import ConnectorNotFound, HorizonExceeded, OutputGuardExceeded, PreconditionFailed, UndecidableProperty
from .lambda_arith import a_set, decompose
from .mult_shift import Pattern
from .shift_core import PROPERTIES, SftSpec, ShiftSpec, sft, spec_to_dict, word_pins
from .verify import verify_certificate, verify_certificates
from .witness import Certificate, WitnessCertificate, try_certificate

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
    error: Optional[str] = None  # "<Type>: <message>" of the bounded-search error that cut the row short

    def to_dict(self) -> dict:
        out = {
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
        if self.error is not None:
            out["error"] = self.error
        return out


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

    @property
    def errors(self) -> list:
        """The rows a bounded-search error cut short."""
        return [r for r in self.rows if r.error is not None]

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
            + (f" errors={len(self.errors)}" if self.errors else "")
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

    certs: list[tuple[str, Certificate]] = []  # (check, certificate), in build order
    try:
        pats = x_block_patterns(spec, l, budget.pair_length_bound)
        # the directional check reads depth n*k + v_l(alpha) <= 2*k + 1 at n = 2, alpha in A_{l**2}
        grid = _PairGrid(spec, l, pats, 2 * budget.k_bound + 2)
        _check_transitivity(row, spec, l, budget, pats, grid, certs)
        _check_directional(row, spec, l, budget, pats, grid, certs)
        _check_mixing(row, spec, l, budget, pats, grid, certs)
    except (HorizonExceeded, OutputGuardExceeded) as exc:  # a bounded search ran out: the row answers what it reached
        row.error = f"{type(exc).__name__}: {exc}"
        for check in ("transitivity", "directional", "mixing"):
            row.checks.setdefault(check, "inconclusive")
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
                    certs.append(("directional", witness_mod.witness_directional_all_alpha(spec, l, n, u, v)))
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
        row.checks["directional"] = "pass"
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
