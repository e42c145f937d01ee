"""Exact maximum-size free families for small ground sets.

Branch and bound over all subsets of [n], taken in middle-out order
(distance of the cardinality from n/2, then cardinality, then mask value),
since extremal families concentrate around the middle levels. The walk is
depth first, include before exclude, over two bitsets of candidate
positions: ``live``, the chosen ones, and ``best``, the first largest family
reached. When ``live`` plus all remaining candidates cannot beat ``best``,
the top bit of ``live`` is dropped and the walk goes on past it (the exclude
branch of the last inclusion), until ``live`` is empty.

Chosen positions ascend, so a copy of a pattern that an include attempt at
position ``pos`` completes has ``pos`` as its last member on every branch.
The copies ending at ``pos`` are listed once, as bitsets of their other
positions, by find_embedding's all-copies mode over one containment.Relations
record of all 2^n candidates, and an attempt is free exactly when no listed
copy lies inside ``live``. The rows take 2^n bits per candidate, so n >= 16
is refused before any candidate is listed, whatever ``max_n`` allows
(containment.MAX_MEMBERS).

The witness is the first optimum reached in this fixed order, which makes it
the lexicographically smallest family the search encounters at the optimum;
results are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .containment import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    MAX_MEMBERS,
    Relations,
    SearchStatus,
    contains_subposet,
    find_embedding,
)
from .lattice import SetFamily, serialize_family
from .posets import Poset

DEFAULT_SOLVER_CAP = 5


class FreenessError(ValueError):
    """A family claimed free actually contains a forbidden pattern."""

    def __init__(self, poset_index: int, embedding: tuple[int, ...]):
        super().__init__(
            f"family contains forbidden poset #{poset_index} via embedding {embedding}"
        )
        self.poset_index = poset_index
        self.embedding = embedding


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact search. ``exhausted`` False downgrades ``optimum``
    to a proven lower bound (best family found before the budget ran out)."""

    optimum: int
    witness: SetFamily
    nodes_explored: int
    exhausted: bool

    def payload(self) -> dict:
        return {
            "optimum": self.optimum,
            "witness": serialize_family(self.witness),
            "nodes": str(self.nodes_explored),
            "exhausted": self.exhausted,
        }


def la_exact(n: int, posets: Sequence[Poset], induced: bool = False,
             budget: int | None = None, max_n: int = DEFAULT_SOLVER_CAP,
             break_symmetry: bool = False) -> SolveResult:
    """Maximum size of a subset family of [n] avoiding every given pattern.

    ``budget`` caps the number of include attempts (a negative one is a
    ValueError); when it runs out the best family seen so far is returned
    with ``exhausted=False``. With ``break_symmetry`` the first included set
    is restricted to the minimal mask of its (centrality, size) class, which
    is sound under relabeling of the ground elements.

    A position's copy list is built on its first attempt under the containment
    node budget (BUDGET ends the solve unexhausted) and holds every copy ending
    there, however few attempts ``budget`` allows: at n = 8 it is most of the work.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if n > max_n:
        raise ValueError(f"solver capped at n <= {max_n}, got n={n} (raise max_n to override)")
    if 1 << n > MAX_MEMBERS:
        raise ValueError(f"2^{n} candidate sets exceed the relation precompute cap "
                         f"of {MAX_MEMBERS}")
    posets = list(posets)
    if not posets:
        raise ValueError("need at least one forbidden poset")

    candidates = sorted(range(1 << n),
                        key=lambda m: (abs(2 * m.bit_count() - n), m.bit_count(), m))
    rels = Relations(candidates)

    @cache
    def ends_at(pos: int) -> list[int] | None:
        """The other positions of each copy ``pos`` ends; None if a search ran out."""
        found: dict[int, tuple[int, ...]] = {}
        for poset in posets:
            if find_embedding(rels, (2 << pos) - 1, poset, induced, require_member=pos,
                              copies=found).status is SearchStatus.BUDGET:
                return None
        return [c ^ 1 << pos for c in found]

    pos = live = best = nodes = 0
    exhausted = False
    while True:
        if live.bit_count() + len(candidates) - pos <= best.bit_count():
            if not live:
                exhausted = True
                break
            pos = live.bit_length()  # exclude the last inclusion instead
            live ^= 1 << pos - 1
            continue
        mask = candidates[pos]
        if break_symmetry and not live and mask != (1 << mask.bit_count()) - 1:
            pos += 1
            continue
        if budget is not None and nodes >= budget:
            break
        nodes += 1  # an attempt whose list runs out of budget still counts
        if (ends := ends_at(pos)) is None:
            break
        if not any(c & live == c for c in ends):
            live |= 1 << pos
            if live.bit_count() > best.bit_count():
                best = live
        pos += 1

    witness = SetFamily.of(n, [m for i, m in enumerate(candidates) if best >> i & 1])
    return SolveResult(witness.size, witness, nodes, exhausted)


def certified_lower_bound(family: SetFamily, posets: Sequence[Poset], induced: bool = False,
                          budget: int = DEFAULT_BUDGET) -> int:
    """Size of a family after checking, pattern by pattern in list order and
    with ``budget`` nodes each, that it avoids every pattern.

    Raises FreenessError (carrying the first pattern found and its embedding)
    if the check fails, even after a pattern ran out of budget, and
    BudgetExceededError when no pattern was found but some check could not be
    completed.
    """
    budget_hit = False
    for idx, poset in enumerate(posets):
        res = contains_subposet(family, poset, induced, budget)
        if res.found:
            raise FreenessError(idx, res.embedding)
        budget_hit |= res.status is SearchStatus.BUDGET
    if budget_hit:
        raise BudgetExceededError("freeness verification ran out of budget")
    return family.size
