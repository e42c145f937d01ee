"""Exact maximum-size free families for small ground sets.

Branch and bound over all subsets of [n], taken in middle-out order
(distance of the cardinality from n/2, then cardinality, then mask value),
since extremal families concentrate around the middle levels. The walk is
depth first, include before exclude, over two bitsets of candidate
positions: ``live``, the chosen ones, and ``best``, the largest family found
so far. A cut branch drops the top bit of ``live`` and goes on past it (the
exclude branch of the last inclusion), until ``live`` is empty.

The bound is a Russian-doll one (Verfaillie, Lemaître and Schiex, AAAI 1996;
Östergård's Cliquer, 2002): R[q], the largest free family inside the suffix
candidates[q:], bounds what the positions from q on can add. A solve runs in
two phases over N = 2^n candidates:

1. The walk's first path: each candidate in turn, included when free. Its
   family seeds ``best``; it ends early, proven, at Erdős's bound (below).
2. For q = N-1 down to 0, R[q] is R[q+1] or R[q+1] + 1: a walk with q forced
   in, cut where |live| + R[pos] < R[q+1] + 1, stops at the first family of
   R[q+1] + 1 members, which becomes ``best`` when it is larger. Once
   q + R[q] <= |best|, nothing beats ``best``: the solve ends, proven. Else
   it ends at q = 0 with |best| = R[0], the optimum.

Phase 1 stops at Erdős's k-Sperner bound. Every chain of p sets holds a copy
of a p-element pattern P (map a linear extension of P onto it), an induced
one when P is the chain P_p: P is covered. A symmetric chain decomposition
of B_n (de Bruijn, Tengbergen and Kruyswijk, 1951) has C(n, k) - C(n, k-1)
chains of n + 1 - 2k sets, so a free family has at most cap sets on each
and |F| <= sum of min(|C|, cap) = sigma(n, cap), cap the least p - 1 over
the covered patterns (2^n if cap > n or none is covered). A first path that
large is optimal, so the solve ends proven as soon as ``best`` reaches it.
For P_k it is the k - 1 middle levels, first in the candidate order, whose
copy lists are empty: La(n, P_k) takes sigma(n, k - 1) attempts.

A cut drops only branches that cannot reach R[q+1] + 1 members, since R[pos]
bounds what the positions from pos on add, so every R[q] a walk settles is
exact.

Chosen positions ascend, so a copy of a pattern that an include attempt at
position ``pos`` completes has ``pos`` as its last member on every branch.
The copies ending at ``pos`` are listed once, in position order, by the
first path's attempt there, with find_embedding's all-copies mode over one
containment.Relations record of all 2^n candidates, and an attempt is free
exactly when no listed copy lies inside ``live``. A walk over a suffix reads
only the copies inside it: each copy is filed under its lowest position and
moves, as the bitset of its other positions, to the walks' list of its end
position once q reaches that lowest position, so each copy is stored once.
A walks' list is held in read order, lowest positions first (each copy is
prepended as it moves), and an attempt is one AND per copy up to the first
copy that blocks: the walk keeps its earliest positions in ``live`` longest,
so those copies block most often.
The rows take 2^n bits per candidate, so la_exact refuses n >= 16 before
any candidate is listed (containment.MAX_MEMBERS), its only limit on n. The
soft default of n <= 5 is command-line policy (``solve --cap``).

The witness is the first family of the optimum's size that the first path or
a suffix walk meets; a capped solve returns the largest family found so far.
Results are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .lattice import SetFamily, serialize_family, sigma
from .posets import Poset

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
             budget: int | None = None) -> SolveResult:
    """Maximum size of a subset family of [n] avoiding every given pattern.

    ``budget`` caps the include attempts of both phases together (a negative
    one is a ValueError); when it runs out the largest family found so far,
    at least the first path's, is returned with ``exhausted=False``.

    Phase 1 ends the solve, proven, once its family reaches Erdős's bound
    (module docstring), before the budget is checked again, with the optimum,
    witness and ``exhausted`` of the full walk; for an induced solve with no
    chain pattern the bound is 2^n.

    Each position's copy list is built once, in position order, by the first
    path, under the containment node budget (BUDGET ends the solve
    unexhausted), and holds every copy ending there, however few attempts
    ``budget`` allows: in a solve the bound does not close, at n = 8, it is
    most of the work. Only n >= 16 is refused here (module docstring).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if 1 << n > MAX_MEMBERS:
        raise ValueError(f"2^{n} candidate sets exceed the relation precompute cap "
                         f"of {MAX_MEMBERS}")
    posets = list(posets)
    if not posets:
        raise ValueError("need at least one forbidden poset")

    candidates = sorted(range(1 << n),
                        key=lambda m: (abs(2 * m.bit_count() - n), m.bit_count(), m))
    rels = Relations(candidates)
    size = len(candidates)
    cap = min((p.size - 1 for p in posets if not induced or max(p.heights) + 1 == p.size),
              default=n + 1)  # sets per chain: a chain of |P| sets holds a copy
    chain_bound = sigma(n, cap) if cap <= n else size  # Erdős's bound

    suffix_optima = [0] * (size + 1)  # [q]: largest free family in candidates[q:]
    by_lowest: list[list[int]] = [[] for _ in range(size)]  # [q]: copies whose lowest is q
    inside: list[list[int]] = [[] for _ in range(size)]  # copies in the suffix walked
    best = nodes = 0
    # no budget: past the first path's size attempts and size walks of < 2^(size+1) each
    limit = budget if budget is not None else (size + 2) << size + 1

    def walk(q: int, need: int) -> int | None:
        """The first family of ``need`` members in walk order from position q,
        include first, cutting every branch whose chosen positions plus the
        suffix optimum after them fall short of ``need``: its bitset, 0 when
        there is none, None when the budget ran out."""
        nonlocal nodes
        live, chosen, pos = 0, 0, q  # chosen: the number of positions in live
        while True:
            if chosen + suffix_optima[pos] < need:
                if not chosen:
                    return 0
                pos = live.bit_length()  # exclude the last inclusion instead
                live ^= 1 << pos - 1
                chosen -= 1
                continue
            if nodes >= limit:
                return None
            nodes += 1
            out = ~live
            for rest in inside[pos]:
                if not rest & out:
                    break  # this copy's other positions are all chosen
            else:
                live |= 1 << pos
                chosen += 1
                if chosen == need:
                    return live
            pos += 1

    def search() -> bool:
        """The two phases; False when the budget or a listing ran out."""
        nonlocal best, nodes
        for pos in range(size):  # 1: the walk's first path
            if best.bit_count() >= chain_bound:
                return True  # Erdős: the first path is optimal
            if nodes >= limit:
                return False
            nodes += 1  # an attempt whose listing runs out of budget still counts
            copies: dict[int, tuple[int, ...]] = {}  # bitsets of the copies pos ends
            for poset in posets:
                if find_embedding(rels, (2 << pos) - 1, poset, induced, require_member=pos,
                                  copies=copies).status is SearchStatus.BUDGET:
                    return False
            if all(map((~best ^ 1 << pos).__and__, copies)):  # no copy's rest in best
                best |= 1 << pos
            for copy in reversed(copies):  # prepended later: read in listing order
                by_lowest[(copy & -copy).bit_length() - 1].append(copy)
        if best.bit_count() >= chain_bound:
            return True  # Erdős: the first path is optimal
        for q in range(size - 1, -1, -1):
            for copy in by_lowest.pop():  # the copies whose lowest position is q
                end = copy.bit_length() - 1
                inside[end].insert(0, copy ^ 1 << end)
            suffix_optima[q] = suffix_optima[q + 1] + 1  # an upper bound until walked
            if q + suffix_optima[q] <= best.bit_count():
                return True  # no family beats best
            if (found := walk(q, suffix_optima[q])) is None:  # 2
                return False
            suffix_optima[q] -= not found
            best = max(best, found, key=int.bit_count)  # max keeps best on a tie
        return True

    exhausted = search()
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
