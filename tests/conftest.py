"""Shared fixtures.

corrupt_quotient injects a fault from outside the product: it wraps
sections.build_quotient so that the quotient algebra every later check
uses has one structure constant bumped by one, and the checks must catch
it rather than use it.  count_eliminations records every matrix the
forward elimination `exactq.echelon` runs on, so a test can say that a
matrix was eliminated once.
"""

import pytest

from loopspace import exactq, sections


def first_off_diagonal(algebra):
    """The first product a_i * a_j with i != j, in sorted order."""
    return next(pair for pair in sorted(algebra.products) if pair[0] != pair[1])


@pytest.fixture
def corrupt_quotient(monkeypatch):
    """Call it, optionally with `pick(algebra) -> (i, j)`, to make every
    later quotient built through sections.build_quotient carry
    alpha_ij^k + 1 in place of alpha_ij^k, k the least index with a
    nonzero constant."""
    build = sections.build_quotient

    def install(pick=first_off_diagonal):
        def corrupted(*args, **kwargs):
            algebra, qmap = build(*args, **kwargs)
            alpha = algebra.products[pick(algebra)]
            k = min(alpha)
            alpha[k] = alpha[k] + 1
            return algebra, qmap

        monkeypatch.setattr(sections, "build_quotient", corrupted)

    return install


@pytest.fixture
def count_eliminations(monkeypatch):
    """Call it to patch exactq.echelon, the forward pass behind `rank`,
    the pivot columns and `rref`; it returns the list to which every
    later call appends the matrix it eliminates.  Holding the matrices
    keeps their ids distinct."""
    def install():
        eliminated = []
        real = exactq.echelon

        def counting(m, *cleared):
            eliminated.append(m)
            return real(m, *cleared)

        monkeypatch.setattr(exactq, "echelon", counting)
        return eliminated

    return install
