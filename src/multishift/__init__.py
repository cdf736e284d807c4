"""Multiplicative subshifts: deciders, witness builders, and an exact oracle.

A base shift space (finite-type or gap-set) induces a multiplicative
subshift whose points restrict to base-space points along every
geometric position chain.  This package decides the mixing hierarchy of
the base space, constructs certified connection witnesses in the
multiplicative subshift, and cross-validates every claim with an exact
finite-constraint oracle.
"""

from .dimension import SeriesResult, dimB_goldenmean, fib
from .errors import (
    CertificateFailed,
    ConnectorNotFound,
    HorizonExceeded,
    InadmissiblePattern,
    MultishiftError,
    NoCoprimePrime,
    OutputGuardExceeded,
    PreconditionFailed,
    SpecError,
    UndecidableProperty,
)
from .lambda_arith import (
    Decomposition,
    OffsetBound,
    a_set,
    decompose,
    offset_bound,
    offset_of,
    xi,
)
from .mult_shift import (
    Pattern,
    assemble,
    count_blocks,
    enumerate_blocks,
    format_pattern,
    is_admissible,
    parse_pattern,
)
from .oracle import (
    CampaignReport,
    SearchBudget,
    binary_sft_family,
    budget_from_env,
    campaign,
    dedupe_by_language,
    exists_witness_exact,
    probe_directional_q,
    probe_transitive_X,
    random_sft_family,
)
from .shift_core import (
    PropertyVerdict,
    SftSpec,
    SpacingSpec,
    blocks,
    build_graph,
    decide,
    graph_dot,
    mixing_gap_index,
    partial_extendable,
    sft,
    spacing,
    spec_from_dict,
    spec_to_dict,
)
from .verify import verify_certificate, verify_certificates
from .witness import (
    DirectionalAllAlpha,
    MixingPastThreshold,
    WitnessCertificate,
    witness_directional_all_alpha,
    witness_directional_coprime,
    witness_directional_power,
    witness_mixing,
    witness_transitive,
)

__version__ = "0.1.0"
