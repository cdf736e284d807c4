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
