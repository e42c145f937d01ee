"""Exact maximum-size free families for small ground sets.

Branch and bound over all subsets of [n], taken in middle-out order
(distance of the cardinality from n/2, then cardinality, then mask value),
since extremal families concentrate around the middle levels. A branch is
cut when the current size plus all remaining candidates cannot beat the
incumbent. Feasibility of adding a set is checked incrementally: because the
family before the addition is free, only embeddings whose image uses the new
set need to be searched.

The witness is the first optimum reached in this fixed order, which makes it
the lexicographically smallest family the search encounters at the optimum;
results are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .containment import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    SearchStatus,
    contains_any,
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

    ``budget`` caps the number of include attempts; when it runs out the best
    family seen so far is returned with ``exhausted=False``. With
    ``break_symmetry`` the first included set is restricted to the minimal
    mask of its (centrality, size) class, which is sound under relabeling of
    the ground elements.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > max_n:
        raise ValueError(f"solver capped at n <= {max_n}, got n={n} (raise max_n to override)")
    posets = list(posets)
    if not posets:
        raise ValueError("need at least one forbidden poset")

    candidates = sorted(
        range(1 << n), key=lambda m: (abs(2 * m.bit_count() - n), m.bit_count(), m)
    )
    chosen: list[int] = []
    best_size = 0
    best_witness = SetFamily.of(n, ())
    nodes = 0
    aborted = False

    def status_with(mask: int) -> SearchStatus:
        """FREE when adding ``mask`` keeps the family free, else FOUND or BUDGET."""
        members = (*chosen, mask)
        for poset in posets:
            status = find_embedding(members, poset, induced, require_member=len(chosen)).status
            if status is not SearchStatus.FREE:
                return status
        return SearchStatus.FREE

    # Positions still to visit; -1 undoes the last inclusion. The exclude
    # branch is pushed before the include branch, so it is visited (and its
    # bound tested) only after the include subtree is done.
    stack = [0]
    while stack:
        pos = stack.pop()
        if pos < 0:
            chosen.pop()
            continue
        if len(chosen) + (len(candidates) - pos) <= best_size:
            continue
        stack.append(pos + 1)
        mask = candidates[pos]
        if break_symmetry and not chosen and mask != (1 << mask.bit_count()) - 1:
            continue
        if budget is not None and nodes >= budget:
            aborted = True
            break
        nodes += 1
        status = status_with(mask)
        if status is SearchStatus.BUDGET:
            aborted = True
            break
        if status is SearchStatus.FREE:
            chosen.append(mask)
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_witness = SetFamily.of(n, chosen)
            stack += (-1, pos + 1)

    return SolveResult(best_size, best_witness, nodes, not aborted)


def certified_lower_bound(family: SetFamily, posets: Sequence[Poset], induced: bool = False,
                          budget: int = DEFAULT_BUDGET) -> int:
    """Size of a family after verifying it avoids every pattern.

    Raises FreenessError (carrying the violating embedding) if verification
    fails, and BudgetExceededError when the check could not be completed.
    """
    res = contains_any(family, posets, induced, budget)
    if res.found:
        assert res.embedding is not None and res.poset_index is not None
        raise FreenessError(res.poset_index, res.embedding)
    if res.status is SearchStatus.BUDGET:
        raise BudgetExceededError("freeness verification ran out of budget")
    return family.size

