import dataclasses

import pytest

from multishift import witness


@pytest.fixture
def flip_one_pin(monkeypatch):
    """Builders put the wrong symbol at the first pinned position of every prefix; lists those positions."""
    flipped = []
    build = witness.least_block

    def least_block(omega, l, length, groups):
        prefix = build(omega, l, length, groups)
        rep, cons = groups[0]
        pos = rep * l ** (cons[0][0] - 1)
        flipped.append(pos)
        return prefix[: pos - 1] + ("1" if prefix[pos - 1] == "0" else "0") + prefix[pos:]

    monkeypatch.setattr(witness, "least_block", least_block)
    return flipped


@pytest.fixture
def wrong_claims(monkeypatch):
    """The builders of the claims with no prefix claim one step too much: a directional cover one pad short
    (offset bound - 1, its pairs past it dropped) and a mixing threshold N - 1; lists those claims."""
    claims = []
    directional, mixing = witness.witness_directional_all_alpha, witness.witness_mixing

    def witness_directional_all_alpha(*args):
        claim = directional(*args)
        bound = claim.cover.offset_bound - 1
        pairs = tuple(p for p in claim.cover.pairs if p[2] <= bound)
        cover = dataclasses.replace(claim.cover, offset_bound=bound, pairs=pairs)
        claims.append(claim._replace(cover=cover))
        return claims[-1]

    def witness_mixing(*args):
        mw = mixing(*args)
        claims.append(mw.claim._replace(threshold=mw.threshold - 1))
        return dataclasses.replace(mw, claim=claims[-1])

    monkeypatch.setattr(witness, "witness_directional_all_alpha", witness_directional_all_alpha)
    monkeypatch.setattr(witness, "witness_mixing", witness_mixing)
    return claims
