"""Constructive witnesses for connection claims in multiplicative subshifts.

Each constructor proves a positive claim about the multiplicative
subshift by exhibiting a certificate.  A per-multiplier certificate
holds a multiplier, the per-chain constraint groups it induces, and an
explicit admissible prefix satisfying every constraint; the two claims
over infinitely many multipliers (below) hold no prefix.  Certificates
are deterministic (lexicographically least choices throughout) and
re-checked by ``verify.verify_certificates``.

The three constructions:

* ``witness_transitive``: a prime multiplier step larger than the reach
  of the first pattern routes the second pattern into untouched chains,
  so extensibility of the base space suffices.
* ``witness_directional_power``: for moduli that are powers of the chain
  base, a finite cover of fiber pairs and bounded offsets is connected
  at one common absolute offset; weak mixing of the base space provides
  the simultaneous connection.
* ``witness_mixing``: past a gap-index threshold every multiplier works;
  mixing of the base space provides the per-chain connections.

The last two claims quantify over infinitely many multipliers.  Each is
also stated once, by a certificate with no prefix that the verifier
checks in full: ``DirectionalAllAlpha`` (one depth for every alpha,
from ``witness_directional_all_alpha``) and ``MixingPastThreshold``
(every multiplier past the threshold, ``MixingWitness.claim``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Union

from . import shift_core
from .errors import (
    CertificateFailed,
    ConnectorNotFound,
    NoCoprimePrime,
    OutputGuardExceeded,
    PreconditionFailed,
    SpecError,
)
from .lambda_arith import a_set, decompose, factorization, next_prime_avoiding, product_offset_bound, xi
from .mult_shift import Pattern, format_pattern, least_block, multiplier_constraints, require_admissible
from .shift_core import ShiftSpec, decide, least_word, mixing_gap_index, word_pins

__all__ = [
    "Certificate",
    "ConnectorCover",
    "DirectionalAllAlpha",
    "DirectionalWitness",
    "MixingPastThreshold",
    "MixingWitness",
    "WitnessCertificate",
    "certificate_to_dict",
    "certificate_from_dict",
    "check_prefix_total",
    "try_certificate",
    "witness_directional_all_alpha",
    "witness_directional_coprime",
    "witness_directional_power",
    "witness_mixing",
    "witness_transitive",
]

K_SEARCH_BOUND = 64
PREFIX_GUARD = 2**20  # symbols; the largest prefix built, by a test: the golden-mean exact certificate at k = 20


@dataclass(frozen=True)
class ConnectorCover:
    """Finite cover justifying one connector offset for every multiplier.

    ``pairs`` lists (chain rep of u-fiber, u-fiber word, pad length r,
    v-chain rep, pad word, v-fiber word); each pair is connected at the
    common absolute offset, with the pad absorbing the multiplier's
    chain-offset shift.
    """

    offset_bound: int
    common_offset: int
    pairs: tuple[tuple[int, str, int, int, str, str], ...]


@dataclass(frozen=True)
class WitnessCertificate:
    """A connection claim plus everything needed to re-check it exactly."""

    alpha: int
    k: int
    multiplier: int
    constraints: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    prefix: str
    construction: str
    u_literal: str
    v_literal: str
    directional_base: int
    cover: Optional[ConnectorCover] = None


# the claims with no prefix and DirectionalWitness are named tuples, not frozen dataclasses: one takes a
# tenth of the time to create, and every CLI call and campaign worker imports this module


class DirectionalAllAlpha(NamedTuple):
    """Depth k connects u to v at every multiplier |u| * alpha * q**k with q = l**n not dividing alpha.

    The cover is the whole justification: ``verify.verify_certificates``
    checks it and the patterns, and ``verify._all_alpha_fault`` proves
    that those checks cover every alpha at once.
    """

    u_literal: str
    v_literal: str
    directional_base: int  # q
    k: int
    cover: ConnectorCover
    construction = "directional_all_alpha"


class MixingPastThreshold(NamedTuple):
    """Every multiplier |u| * m with m >= l**threshold connects u to v.

    ``verify.verify_certificates`` re-derives that the threshold is a gap
    index of the base space; ``verify._gap_index_fault`` proves the claim
    from that.
    """

    u_literal: str
    v_literal: str
    threshold: int
    construction = "mixing_past_threshold"


Certificate = Union[WitnessCertificate, DirectionalAllAlpha, MixingPastThreshold]


class DirectionalWitness(NamedTuple):
    """A directional claim for every alpha plus its certificates for the alphas up to a bound."""

    claim: DirectionalAllAlpha
    certificates: tuple[WitnessCertificate, ...]
    q = property(lambda self: self.claim.directional_base)
    k = property(lambda self: self.claim.k)
    cover = property(lambda self: self.claim.cover)


@dataclass(frozen=True)
class MixingWitness:
    """Gap-index threshold, the claim for every multiplier past it, and a certificate constructor."""

    threshold: int
    build: Callable[[int, int], WitnessCertificate]
    claim: MixingPastThreshold


def _fiber_words(u: Pattern) -> dict[int, str]:
    """Contiguous base-space words per chain, least-completing any gaps."""
    out = {}
    for rep, cons in u.fibers().items():
        depth = max(d for d, _ in cons)
        word = least_word(u.omega, depth, cons)
        if word is None:
            raise PreconditionFailed(f"fiber {rep} lost admissibility during completion")
        out[rep] = word
    return out


def try_certificate(
    omega: ShiftSpec,
    l: int,
    u: Pattern,
    v: Pattern,
    alpha: int,
    k: int,
    construction: str,
    directional_base: Optional[int] = None,
    cover: Optional[ConnectorCover] = None,
) -> WitnessCertificate:
    """Build a certificate for a multiplier the caller knows connects u to v.

    The multiplier is |u| * alpha * base**k, with base ``directional_base``
    (``l`` when not given).  Nothing here checks the result:
    ``verify.verify_certificates`` does, from the patterns alone.  Raises
    CertificateFailed when no admissible prefix meets the constraints, and
    OutputGuardExceeded, before anything is built, when the prefix would
    be longer than PREFIX_GUARD.
    """
    directional_base = directional_base or l
    multiplier = u.length * alpha * directional_base**k
    length = max(u.length, multiplier * v.length)
    if length > PREFIX_GUARD:
        check_prefix_total(u, v, [multiplier])  # raises the one-prefix message
    mcs = multiplier_constraints(u, v, multiplier)
    prefix = least_block(omega, l, length, mcs.groups) if mcs.satisfiable_form else None
    if prefix is None:
        raise CertificateFailed(f"{construction} construction failed at alpha={alpha}, k={k}")
    return WitnessCertificate(
        alpha=alpha,
        k=k,
        multiplier=multiplier,
        constraints=mcs.groups,
        prefix=prefix,
        construction=construction,
        u_literal=format_pattern(u),
        v_literal=format_pattern(v),
        directional_base=directional_base,
        cover=cover,
    )


def check_prefix_total(u: Pattern, v: Pattern, multipliers: Iterable[int]) -> None:
    """OutputGuardExceeded, before any is built, when one prefix or all of them together pass PREFIX_GUARD.

    A multiplier's prefix ends at its largest constrained position, max(|u|, multiplier * |v|).
    """
    total = 0
    for count, multiplier in enumerate(multipliers, start=1):
        length = max(u.length, multiplier * v.length)
        if length > PREFIX_GUARD:
            # a length past 64 bits is named by its bit length: decimal conversion is quadratic and capped
            size = length if length.bit_length() <= 64 else f"at least 2**{length.bit_length() - 1}"
            raise OutputGuardExceeded(f"a prefix of {size} symbols exceeds the prefix cap {PREFIX_GUARD}")
        total += length
        if total > PREFIX_GUARD:
            raise OutputGuardExceeded(f"{count} prefixes of {total} symbols exceed the prefix cap {PREFIX_GUARD}")


def _prime_factors(n: int) -> set[int]:
    return {p for p, _ in factorization(n)}


def _premise(omega: ShiftSpec, prop: str, u: Pattern, v: Pattern) -> None:
    """PreconditionFailed unless the base space has ``prop``; InadmissiblePattern unless u and v are admissible."""
    verdict = decide(omega, prop)
    if not verdict.value:
        raise PreconditionFailed(f"base space is not {prop.replace('_', ' ')}: {verdict.evidence}")
    require_admissible(u, "u")
    require_admissible(v, "v")


def witness_transitive(omega: ShiftSpec, l: int, u: Pattern, v: Pattern, k: int) -> WitnessCertificate:
    """Connect u to v at any requested depth k via a large-prime multiplier step.

    The least prime alpha avoiding the base's prime factors and exceeding
    the reach of u sends every scaled chain of v outside every chain u
    touches, so per-chain extensibility of the base space finishes the
    construction.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    _premise(omega, "extensible", u, v)
    alpha = next_prime_avoiding(xi(u.length, l), _prime_factors(l))
    return try_certificate(omega, l, u, v, alpha, k, "transitive_prime_alpha")


def witness_directional_coprime(
    omega: ShiftSpec, l: int, modulus: int, u: Pattern, v: Pattern
) -> tuple[int, Callable[[int], WitnessCertificate]]:
    """Directional witnesses for a modulus with a prime factor coprime to the base.

    Returns the least k with p**k beyond the reach of u, plus a
    constructor valid for every alpha not divisible by the modulus;
    scaled chains keep a p-valuation of at least k, so they miss every
    chain u touches.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    _premise(omega, "extensible", u, v)
    base_primes = _prime_factors(l)
    coprime = sorted(p for p in _prime_factors(modulus) if p not in base_primes)
    if not coprime:
        raise NoCoprimePrime(
            f"every prime of modulus {modulus} divides the base {l}; use the power-modulus construction"
        )
    p = coprime[0]
    bound = xi(u.length, l)
    k = 1
    while p**k <= bound:
        k += 1

    def build(alpha: int) -> WitnessCertificate:
        if alpha % modulus == 0:
            raise ValueError(f"alpha {alpha} is divisible by the modulus {modulus}")
        return try_certificate(omega, l, u, v, alpha, k, "directional_coprime", directional_base=modulus)

    return k, build


def _connector_cover(
    omega: ShiftSpec,
    l: int,
    n: int,
    u: Pattern,
    v: Pattern,
) -> ConnectorCover:
    """Common absolute connector offset covering all fiber pairs and offsets.

    The offset K must be congruent to the base power of |u| modulo n so
    that K = k1 + n*k for an integer depth step k.  The pad range covers
    every chain offset the multiplier family can produce plus its own
    base-power slack (up to n - 1).
    """
    k1 = decompose(u.length, l).k
    pad_bound = product_offset_bound(l, u.length, v.length) + (n - 1)
    u_words = _fiber_words(u)
    v_words = _fiber_words(v)
    tables = [
        shift_core.offset_table(omega, word_pins(a), word_pins(b)) for a in u_words.values() for b in v_words.values()
    ]
    k = 0
    while k <= K_SEARCH_BOUND:
        K = k1 + n * k
        if all(table[K + r] for table in tables for r in range(pad_bound + 1)):
            pairs = []
            for urep, uw in sorted(u_words.items()):
                for vrep, vw in sorted(v_words.items()):
                    for r in range(pad_bound + 1):
                        pad = _pad_word(omega, r, vw)
                        pairs.append((urep, uw, r, vrep, pad, vw))
            return ConnectorCover(offset_bound=pad_bound, common_offset=K, pairs=tuple(pairs))
        k += 1
    raise ConnectorNotFound(f"no common connector offset congruent to {k1} mod {n} within {K_SEARCH_BOUND} steps")


def _pad_word(omega: ShiftSpec, r: int, vw: str) -> str:
    """Least length-r word whose concatenation with vw stays admissible."""
    if r == 0:
        return ""
    cons = [(r + 1 + i, int(c)) for i, c in enumerate(vw)]
    word = least_word(omega, r + len(vw), cons)
    if word is None:
        raise PreconditionFailed("pad construction failed; base space lost extensibility")
    return word[:r]


def witness_directional_all_alpha(omega: ShiftSpec, l: int, n: int, u: Pattern, v: Pattern) -> DirectionalAllAlpha:
    """One depth step k for the modulus q = l**n, claimed for every alpha at once.

    Builds the finite fiber-pair cover and its common connector offset K;
    k = (K - k1)/n.  The claim carries no prefix: the cover is its proof.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    _premise(omega, "weakly_mixing", u, v)
    cover = _connector_cover(omega, l, n, u, v)
    k = (cover.common_offset - decompose(u.length, l).k) // n
    return DirectionalAllAlpha(format_pattern(u), format_pattern(v), l**n, k, cover)


def witness_directional_power(
    omega: ShiftSpec,
    l: int,
    n: int,
    u: Pattern,
    v: Pattern,
    alpha_bound: int,
) -> DirectionalWitness:
    """The claim of ``witness_directional_all_alpha`` plus its certificates for every alpha up to alpha_bound.

    Each alpha's certificate holds the admissible prefix at the
    multiplier |u| * alpha * q**k and records the claim's cover.
    """
    if alpha_bound < 1:
        raise ValueError("alpha_bound must be >= 1")
    claim = witness_directional_all_alpha(omega, l, n, u, v)
    q, k = claim.directional_base, claim.k
    alphas = a_set(q, alpha_bound)
    check_prefix_total(u, v, (u.length * alpha * q**k for alpha in alphas))
    certs = tuple(
        try_certificate(omega, l, u, v, alpha, k, "directional_power", directional_base=q, cover=claim.cover)
        for alpha in alphas
    )
    return DirectionalWitness(claim=claim, certificates=certs)


def witness_mixing(omega: ShiftSpec, l: int, u: Pattern, v: Pattern) -> MixingWitness:
    """Threshold N, the claim that every multiplier |u| * m with m >= l**N works, and a constructor for one.

    N is the mixing gap index of the base space; past the threshold every
    chain collision leaves enough depth gap for the base space's uniform
    connections.  ``build(alpha, k)`` gives the certificate, with its
    prefix, at the multiplier |u| * alpha * l**k >= |u| * l**N.
    """
    _premise(omega, "mixing", u, v)
    threshold = mixing_gap_index(omega)

    def build(alpha: int, k: int) -> WitnessCertificate:
        if k < 0:
            raise ValueError("k must be nonnegative")
        if alpha % l == 0:
            raise ValueError(f"alpha {alpha} is divisible by the base {l}")
        if alpha * l**k < l**threshold:
            raise ValueError(f"alpha * l**k = {alpha * l ** k} is below the threshold {l ** threshold}")
        return try_certificate(omega, l, u, v, alpha, k, "mixing_threshold")

    claim = MixingPastThreshold(format_pattern(u), format_pattern(v), threshold)
    return MixingWitness(threshold=threshold, build=build, claim=claim)


# ---------------------------------------------------------------------------
# serialization (consumed by the CLI verify subcommand)


def certificate_to_dict(cert: Certificate) -> dict:
    out = {"construction": cert.construction, "u": cert.u_literal, "v": cert.v_literal}
    if isinstance(cert, MixingPastThreshold):
        return {**out, "threshold": cert.threshold}
    out.update(k=cert.k, directional_base=cert.directional_base)
    if not isinstance(cert, DirectionalAllAlpha):
        out.update(
            alpha=cert.alpha,
            multiplier=cert.multiplier,
            constraints=[[rep, [list(c) for c in cons]] for rep, cons in cert.constraints],
            prefix=cert.prefix,
        )
    if cert.cover is not None:
        out["cover"] = {
            "offset_bound": cert.cover.offset_bound,
            "common_offset": cert.cover.common_offset,
            "pairs": [list(p) for p in cert.cover.pairs],
        }
    return out


# the fields each kind requires, by construction; any other construction names a per-multiplier certificate
_QUANTIFIED_FIELDS = {
    DirectionalAllAlpha.construction: ("construction", "u", "v", "directional_base", "k", "cover"),
    MixingPastThreshold.construction: ("construction", "u", "v", "threshold"),
}
_CERT_FIELDS = ("alpha", "k", "multiplier", "directional_base", "construction", "u", "v", "constraints", "prefix")
_LEAST = {"alpha": 1, "k": 0, "multiplier": 1, "directional_base": 2, "threshold": 0}


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SpecError(f"malformed certificate: {what}")


def _is_int(x, low: int = 0) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


def _is_digits(x) -> bool:
    return isinstance(x, str) and not set(x) - set("0123456789")


def _is_pins(group) -> bool:
    return (
        isinstance(group, list) and len(group) == 2 and _is_int(group[0], 1) and isinstance(group[1], list)
        and all(isinstance(c, list) and len(c) == 2 and _is_int(c[0], 1) and _is_int(c[1]) for c in group[1])
    )


def _is_cover_pair(p) -> bool:
    return (
        isinstance(p, list) and len(p) == 6 and _is_int(p[0], 1) and _is_digits(p[1]) and _is_int(p[2])
        and _is_int(p[3], 1) and _is_digits(p[4]) and _is_digits(p[5])
    )


def certificate_from_dict(data: dict) -> Certificate:
    """Parse the JSON form written by certificate_to_dict.

    ``construction`` picks the kind: ``directional_all_alpha`` and
    ``mixing_past_threshold`` name the claims with no prefix, any other
    string a per-multiplier certificate.  Every field's type and shape is
    checked, and a missing or malformed field raises SpecError.
    ``directional_base`` is required where the kind has it: the verifier
    re-derives the multiplier, or the modulus, from it.
    """
    _require(isinstance(data, dict), "not a JSON object")
    kind = data.get("construction")
    fields = _QUANTIFIED_FIELDS.get(kind, _CERT_FIELDS) if isinstance(kind, str) else _CERT_FIELDS
    missing = [name for name in fields if name not in data]
    _require(not missing, f"missing fields {missing}")
    for name, low in _LEAST.items():
        if name in fields:
            _require(_is_int(data[name], low), f"{name!r} must be an integer >= {low}")
    for name in ("construction", "u", "v"):
        _require(isinstance(data[name], str), f"{name!r} must be a string")
    if kind == MixingPastThreshold.construction:
        return MixingPastThreshold(data["u"], data["v"], data["threshold"])
    cover = None
    if "cover" in data:
        raw = data["cover"]
        _require(
            isinstance(raw, dict) and _is_int(raw.get("offset_bound")) and _is_int(raw.get("common_offset"))
            and isinstance(raw.get("pairs"), list) and all(_is_cover_pair(p) for p in raw["pairs"]),
            "'cover' must hold offset_bound, common_offset and pairs [u rep, u word, r, v rep, pad, v word]",
        )
        cover = ConnectorCover(
            offset_bound=raw["offset_bound"],
            common_offset=raw["common_offset"],
            pairs=tuple(tuple(p) for p in raw["pairs"]),
        )
    if kind == DirectionalAllAlpha.construction:
        return DirectionalAllAlpha(data["u"], data["v"], data["directional_base"], data["k"], cover)
    _require(_is_digits(data["prefix"]), "'prefix' must be a digit string")
    _require(
        isinstance(data["constraints"], list) and all(_is_pins(g) for g in data["constraints"]),
        "'constraints' must be a list of [rep, [[depth, symbol], ...]]",
    )
    return WitnessCertificate(
        alpha=data["alpha"],
        k=data["k"],
        multiplier=data["multiplier"],
        constraints=tuple((rep, tuple(tuple(c) for c in cons)) for rep, cons in data["constraints"]),
        prefix=data["prefix"],
        construction=data["construction"],
        u_literal=data["u"],
        v_literal=data["v"],
        directional_base=data["directional_base"],
        cover=cover,
    )
