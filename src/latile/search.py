"""Exhaustive search for tilings over all abelian groups of order 2n^2+1.

Candidates are forced symmetric by construction: the group's non-identity
elements split into (order-1)/2 negation pairs, and a candidate is the
identity plus any n of those pairs.  That bakes in the identity-membership
and closure-under-negation conditions, leaving only the product identity to
test, and shrinks the raw space from subsets of size 2n+1 to C(n^2, n) pair
choices.

For odd |G| the product identity T*T = 2G + T^(2) + (2n-2)e says exactly
that every non-identity element is the sum of one unordered pair of
distinct elements of T.  So the search is a perfect-packing scan over two
big-int masks of elements: S, the chosen elements, and covered, the
non-identity pair sums so far.  Adding the pair
{x, -x} brings the sums S+x and S-x, and the node is rejected when they
overlap or either meets covered.

S and covered are both closed under negation, so S-x = -(S+x), and two
simpler tests decide the node:

- S-x meets covered exactly when S+x does;
- S+x meets S-x exactly when s+x = t-x for some s, t in S, that is when
  2x = t-s.  s = t would give 2x = 0 and t = -s would give x = t in S,
  both impossible for odd |G| and an unchosen x, so every other case puts
  2x in covered.

A tested pair therefore costs a one-bit test (is 2x in covered?) and one
shift.  The masks lay the elements out in a padded mixed radix, 2d per
coordinate of factor d (see _padded_layout), so that S+x is the chosen mask
shifted left by x's digits in cyclic and non-cyclic groups alike, and it
meets covered exactly when S+x does.  S-x is made only when the scan
descends, and the two sums are folded into covered's layout once per
coordinate.  Sums are never removed, so a rejection drops the whole
subtree at once, counted exactly by binomial completion counts
(candidates_tested is always C(n^2, n) per group).  Depth n without a
rejection is a tiling: its C(2n+1, 2) - n = 2n^2 distinct non-identity
sums fill G minus e.

Below the first pair S and covered only grow, so a rejection there holds
for the whole subtree.  The scan looks ahead (forward checking, Haralick
and Elliott, Artif. Intell. 1980): a node tests all of its candidate
indices, then descends into the survivors, and each child tests only the
survivors after its own pair.  A survivor with too few survivors after it
to fill a candidate heads no leaf, and its subtree is counted at once.  The
indices a child does not test are counted for it, so the count is still
summed from the walk.  The root's children, and the first depth below a
prefix, test every index after their pair that the first pair allows
(below); the covered mask holds pair sums and nothing else.

A surviving leaf is read as a map phi: Z^n -> G sending e_i to the first
element of the i-th chosen pair, and re-verified by two independent
routes: the group-ring condition checker on its induced code set and the
ball-image bijection verifier on phi itself; disagreement is an internal
error, not a result.  The ball is made once per scan, at the first leaf,
so a scan that meets no leaf never makes it.

Optional symmetry reduction quotients by multiplier equivalence x -> t*x
with gcd(t, |G|) = 1.  Such a t is an automorphism of every finite abelian
group of that order, and it maps tilings to tilings, so the reduction holds
for cyclic and non-cyclic groups alike.  A multiplier's permutation of the
pair indices is read off the ranks: scale the first rank of each pair by t
and look up the pair that holds the result.  A leaf is reported only when
it is the minimum of its orbit, with the orbit's size; reduction changes
which solutions are reported, never how many candidates are counted.

The reduction also prunes inside the scan.  Pair j's orbit floor is the
least pair a multiplier maps it to.  A candidate whose least pair is c is
the minimum of its orbit only if no multiplier maps any of its pairs below
c: the image would then start below c and so precede it.  Every pair j of
a canonical candidate therefore has floor(j) >= c, and floor(c) = c.  One
table holds the rule: allowed[c] lists the pairs j > c with floor(j) >= c,
and is empty when floor(c) < c.  The root tries only the first pairs c
whose allowed[c] can fill a candidate, and below c the scan never tests a
pair that allowed[c] leaves out; a prefix's own indices must pass the same
table.  The pairs left out are skipped, not tested, and their candidates
are counted with the node's other rejections.  The rule is necessary, not
sufficient, so the leaf keeps its full orbit test.

Every table a scan reads (the layout's shifts and folds, the doubled
ranks, the multiplier permutations, the floors and the pairs they allow,
the subtree counts) comes from one read-only object per group, n and
reduction setting, made at its first use in a process and kept for the
next scans: a parallel run's tasks, or a forked worker whose parent split
the run by the same tables.  A scan without reduction never makes the
multiplier permutations.

The scan's unit of work is a prefix of pair indices, walked by the same
node rule as the pairs below it: at a prefix depth the only index is the
prefix's own, and a rejection there, by the packing or by the allowed
pairs, drops the prefix's whole count.  So a planted prefix checks the
scan's own rule.  A serial run scans the empty prefix; parallel runs cut
the space into runs of prefixes with similar counts of the candidates the
floors leave, and merge them in prefix order, so the output is identical
to a serial run.
"""

import time
from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, gcd
from typing import Callable, Iterable, NamedTuple, Optional

from .abelian import (
    GroupElement,
    GroupSpec,
    digit_columns,
    element_at,
    enumerate_abelian_groups,
    scaled_ranks,
    sum_columns,
)
from .ball import ErrorBall, generate_ball
from .groupring import check_tiling_conditions
from .tiling import TilingHomomorphism, induced_code_set, verify_tiling

DEFAULT_BUDGET = 10**9
_TASKS_PER_WORKER = 8  # parallel tasks per worker and group, for load balance


class BudgetExceededError(RuntimeError):
    """The candidate space is larger than the caller allowed."""

    def __init__(self, candidate_count: int, budget: int):
        super().__init__(
            f"search space holds {candidate_count} candidates, over the budget of {budget}"
        )
        self.candidate_count = candidate_count
        self.budget = budget


def _pair_ranks(spec: GroupSpec) -> list[tuple[int, int]]:
    """The ranks of each negation pair {g, -g}, ordered by the rank of g."""
    if spec.order % 2 == 0:
        raise ValueError(f"group order {spec.order} is even; negation pairs undefined")
    negated = scaled_ranks(spec, range(spec.order), -1)
    return [(rank, neg) for rank, neg in enumerate(negated) if rank < neg]


def inverse_pairs(spec: GroupSpec) -> list[tuple[GroupElement, GroupElement]]:
    """The (|G|-1)/2 unordered pairs {g, -g}, ordered by first rank.

    Odd order only: in even order some non-identity element equals its own
    negation and the pair decomposition breaks down.
    """
    return [(element_at(spec, g), element_at(spec, h)) for g, h in _pair_ranks(spec)]


def pair_multiplier_permutations(spec: GroupSpec) -> list[tuple[int, ...]]:
    """How each unit multiplier permutes the pair indices of the group.

    Each unit t (gcd(t, |G|) = 1) is an automorphism g -> t*g of any finite
    abelian group of order |G|, and it maps the pair {g, -g} to {t*g, -t*g},
    so its permutation sends pair i to the pair holding t times the first
    rank of pair i.  Units that agree up to sign modulo the exponent e induce
    the same permutation, and every unit modulo e is one modulo |G| (they
    have the same prime factors), so the units in 1..e/2 give them all: in
    Z_3^k that is t = 1 alone, the identity.  The scan reads them, for the
    orbit floors and the leaf orbits, from scan_tables, which makes them
    once per process for each group and n when reducing.
    """
    pair_ranks = _pair_ranks(spec)
    index_of = {rank: i for i, pair in enumerate(pair_ranks) for rank in pair}
    firsts = [g for g, _ in pair_ranks]
    exponent = spec.invariant_factors[-1] if spec.invariant_factors else 1
    units = [t for t in range(1, max(exponent // 2, 1) + 1) if gcd(t, exponent) == 1]
    return sorted(
        {tuple(index_of[r] for r in scaled_ranks(spec, firsts, t)) for t in units}
    )


def orbit_floors(perms: list[tuple[int, ...]]) -> list[int]:
    """For each pair index, the least index a multiplier maps it to."""
    return [min(images) for images in zip(*perms)]


def candidate_orbit(
    perms: list[tuple[int, ...]], candidate: tuple[int, ...]
) -> set[tuple[int, ...]]:
    """The candidates the multipliers map a candidate to; it is canonical
    when it is the lexicographic minimum of this set."""
    return {tuple(sorted(perm[i] for i in candidate)) for perm in perms}


@dataclass(frozen=True)
class SearchSolution:
    spec: GroupSpec
    elements: tuple[GroupElement, ...]
    orbit_size: int

    def as_dict(self) -> dict:
        return {
            "group": self.spec.as_dict(),
            "elements": [list(g.residues) for g in self.elements],
            "orbit_size": self.orbit_size,
        }


@dataclass(frozen=True)
class SearchResult:
    n: int
    groups_examined: tuple[GroupSpec, ...]
    candidates_tested: tuple[int, ...]
    solutions: tuple[SearchSolution, ...]
    reduced: bool
    wall_time: float

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "groups_examined": [spec.as_dict() for spec in self.groups_examined],
            "candidates_tested": list(self.candidates_tested),
            "solutions": [sol.as_dict() for sol in self.solutions],
            "reduced": self.reduced,
            "meta": {"wall_time": self.wall_time},
        }


def dual_verify_candidate(phi: TilingHomomorphism, ball: ErrorBall) -> bool:
    """Accept a map only if two independent criteria agree it tiles.

    Runs the group-ring condition checker on the induced code set and the
    ball-bijection verifier on phi against `ball`, B(n,2,1,1); they are
    mathematically equivalent, so disagreement means the engine itself is
    broken and raises instead of returning.
    """
    conditions = check_tiling_conditions(induced_code_set(phi), phi.n)
    report = verify_tiling(phi, ball)
    if conditions.passed != report.bijective:
        raise RuntimeError(
            "internal error: condition checker and ball verifier disagree "
            f"({conditions.passed} vs {report.bijective}) on {[g.residues for g in phi.images]}"
        )
    return conditions.passed


class _Layout(NamedTuple):
    """Where each element sits in the scan's two masks (see _padded_layout)."""

    size: int  # the bits the elements span
    shifts: tuple[int, ...]  # shifts[r]: rank r's bit in a chosen mask, the shift that adds r
    folds: tuple[tuple[int, int, int], ...]  # per coordinate: low half, high half, shift


def _padded_layout(spec: GroupSpec) -> _Layout:
    """Lay elements out in a padded mixed radix, so that S + x is one shift.

    A coordinate of factor d gets radix 2d.  An element with digits v (its
    residues) sits at v in a chosen mask, and at v + e*d for every e in
    {0, 1}^k in a covered mask.  Shifting a chosen mask left by x's digits
    puts s + x at v + x, with no carry since v + x <= 2d - 2, and that is
    the covered bit of (s + x) mod d with e_i = 1 where the coordinate
    wraps.  So the shifted mask meets covered exactly when S + x meets the
    covered elements, for cyclic and non-cyclic groups alike.  To join
    covered, a shifted mask is folded once per coordinate: the bits whose
    digit there is below d are copied up by d, and the others down by d.
    """
    factors = spec.invariant_factors
    strides = []  # each coordinate's bit stride: the product of the later radices
    size = 1
    for d in reversed(factors):
        strides.append(size)
        size *= 2 * d
    strides.reverse()
    digits = digit_columns(spec, range(spec.order))
    columns = [[v * stride for v in column] for column, stride in zip(digits, strides)]
    folds = []
    for d, stride in zip(factors, strides):
        shift = d * stride
        low = sum(((1 << shift) - 1) << start for start in range(0, size, 2 * shift))
        folds.append((low, (1 << size) - 1 ^ low, shift))
    return _Layout(size, tuple(sum_columns(columns, spec.order)), tuple(folds))


class ScanTables(NamedTuple):
    """The read-only tables a scan of one group at one n reads.

    The masks follow _padded_layout: a chosen mask holds one bit per
    element and a covered mask 2^k.  The orbit floors reach the scan only
    through `allowed`: allowed[c] lists the pairs that may follow a first
    pair c, and is empty when a multiplier maps c itself lower.
    """

    pair_ranks: tuple[tuple[int, int], ...]  # pair j = {x, -x}: the ranks of x and -x
    perms: tuple[tuple[int, ...], ...]  # the multipliers' pair permutations, or the identity
    floors: tuple[int, ...]  # pair j's orbit floor
    plus: tuple[int, ...]  # the shift that translates a chosen mask by pair j's x
    minus: tuple[int, ...]  # and by -x
    pair_bits: tuple[int, ...]  # the chosen bits of x and -x
    double_bits: tuple[int, ...]  # a covered bit of 2x
    folds: tuple[tuple[int, int, int], ...]  # turn shifted chosen masks into covered ones
    allowed: tuple[tuple[int, ...], ...]  # the j > c with floors[j] >= c, if floors[c] == c
    subtree: tuple[tuple[int, ...], ...]  # subtree[r][i]: candidates below last pair i, r short


# table sets a process keeps, one per (group, n, reduce): room for the seven
# groups of order 243 (n = 11), the most of any order 2n^2+1 with n <= 12
_TABLE_SETS_KEPT = 8


@lru_cache(maxsize=_TABLE_SETS_KEPT)
def scan_tables(spec: GroupSpec, n: int, reduce_orbits: bool, /) -> ScanTables:
    """The scan tables of a group at dimension n, made once per process.

    The permutations are every multiplier's when reducing, else the identity
    alone (every leaf its own orbit, and no floor below its own pair), so a
    scan without reduction never makes the multiplier permutations.  A
    worker process makes them at its first task of the group, or inherits
    them from a parent that made them before forking.
    """
    pair_ranks = tuple(_pair_ranks(spec))
    num_pairs = len(pair_ranks)
    layout = _padded_layout(spec)
    doubled = scaled_ranks(spec, range(spec.order), 2)
    if reduce_orbits:
        perms = tuple(pair_multiplier_permutations(spec))
    else:
        perms = (tuple(range(num_pairs)),)
    floors = orbit_floors(perms)
    shifts = layout.shifts
    return ScanTables(
        pair_ranks=pair_ranks,
        perms=perms,
        floors=tuple(floors),
        plus=tuple(shifts[g] for g, _ in pair_ranks),
        minus=tuple(shifts[h] for _, h in pair_ranks),
        pair_bits=tuple(1 << shifts[g] | 1 << shifts[h] for g, h in pair_ranks),
        double_bits=tuple(1 << shifts[doubled[g]] for g, _ in pair_ranks),
        folds=layout.folds,
        allowed=tuple(
            tuple(j for j in range(c + 1, num_pairs) if floors[j] >= c) if floors[c] == c else ()
            for c in range(num_pairs)
        ),
        subtree=tuple(
            tuple(comb(num_pairs - 1 - i, r) for i in range(num_pairs)) for r in range(n)
        ),
    )


def scan_prefixes(
    spec: GroupSpec, n: int, prefixes: Iterable[tuple[int, ...]], *, reduce_orbits: bool = True
) -> tuple[int, list[SearchSolution]]:
    """Scan every candidate that starts with one of the prefixes.

    A prefix is an increasing tuple of at most n pair indices, walked by the
    scan's own node rule; the empty prefix is the whole space.  Returns the
    candidates covered, C(P - 1 - last, n - k) for a prefix of k pairs
    ending at `last` among P pairs, summed over the prefixes, and the
    solutions in prefix order.  With reduce_orbits the multiplier orbit
    floors prune subtrees that hold no canonical leaf (see the module
    docstring).  The tables come from scan_tables, so only a process's
    first scan of a group at n makes them.
    """
    tables = scan_tables(spec, n, reduce_orbits)
    pair_ranks, num_pairs = tables.pair_ranks, len(tables.pair_ranks)
    plus, minus, pair_bits, folds = tables.plus, tables.minus, tables.pair_bits, tables.folds
    double_bits, allowed, subtree = tables.double_bits, tables.allowed, tables.subtree
    # the first pairs that head at least one candidate the floors allow
    roots = [c for c, after in enumerate(allowed) if len(after) >= n - 1]
    chosen: list[int] = []
    tested = 0
    solutions: list[SearchSolution] = []
    ball = None  # made at the first leaf

    def handle_leaf() -> None:
        nonlocal ball
        candidate = tuple(chosen)
        orbit = candidate_orbit(tables.perms, candidate)
        if min(orbit) != candidate:
            return
        if ball is None:
            ball = generate_ball(n, 2, 1, 1)
        phi = TilingHomomorphism(n, spec, [element_at(spec, pair_ranks[i][0]) for i in candidate])
        if dual_verify_candidate(phi, ball):
            ranks = sorted([0] + [r for i in candidate for r in pair_ranks[i]])
            elements = tuple(element_at(spec, r) for r in ranks)
            solutions.append(SearchSolution(spec, elements, len(orbit)))

    def extend(
        chosen_mask: int, covered: int, count: int, remaining: int, candidates: Iterable[int]
    ) -> None:
        # A node holds `count` candidates.  It tests each candidate index y
        # (is 2x in covered, and does S + x meet it?), then descends into
        # the survivors; below the first pair a child inherits the survivors
        # after its own pair (see the module docstring).  While more than
        # `below_prefix` pairs remain, the one index is the prefix's own, if
        # the floors leave it among the candidates.
        nonlocal tested
        if remaining > below_prefix:
            own = prefix[n - remaining]
            candidates, weights, inherit = [own] if own in candidates else [], prefix_count, False
        else:
            weights, inherit = subtree[remaining - 1], remaining < n
        survivors = [
            y
            for y in candidates
            if not (double_bits[y] & covered or chosen_mask << plus[y] & covered)
        ]
        if inherit:
            if len(survivors) < remaining:  # too few to fill a candidate: no leaf below
                tested += count
                return
            entered = survivors[: len(survivors) - remaining + 1]
        else:
            entered = survivors
        # the candidates below no entered survivor: their next pair was
        # rejected, here or for good above, left out by the floors, or heads
        # no leaf
        tested += count - sum(map(weights.__getitem__, entered))
        if remaining == 1:
            for y in entered:
                tested += 1
                chosen.append(y)
                handle_leaf()
                chosen.pop()
            return
        for i, y in enumerate(entered):
            # S + x and S - x join covered
            sums = chosen_mask << plus[y] | chosen_mask << minus[y]
            for low, high, shift in folds:
                sums |= (sums & low) << shift | (sums & high) >> shift
            chosen.append(y)
            # the root's children, and the first depth below a prefix, take
            # the pairs after y that the first pair allows
            rest = survivors[i + 1 :] if inherit else [j for j in allowed[chosen[0]] if j > y]
            extend(chosen_mask | pair_bits[y], covered | sums, weights[y], remaining - 1, rest)
            chosen.pop()

    for prefix in prefixes:
        prefix = tuple(prefix)
        if len(prefix) > n or not all(a < b for a, b in zip((-1, *prefix), (*prefix, num_pairs))):
            raise ValueError(f"prefix {prefix}: need <= {n} increasing indices below {num_pairs}")
        below_prefix = n - len(prefix)
        # the candidates that start with the prefix, dropped by any rejection inside it
        count = comb(num_pairs - 1 - (prefix[-1] if prefix else -1), below_prefix)
        prefix_count = dict.fromkeys(prefix, count)
        # the identity, and no pair sums yet
        extend(1, 0, count, n, roots)
    return tested, solutions


def _prefix_tasks(tables: ScanTables, n: int, parts: int) -> list[list[tuple[int, ...]]]:
    """All two-pair prefixes in scan order, cut into about `parts` runs of
    similar work.  A prefix (c, j) holds C(P - 1 - j, n - 2) candidates, but
    the scan enters only the pairs after j that allowed[c] lists, and none at
    all when it does not list j, so it weighs C(#such pairs, n - 2)."""
    ends = len(tables.allowed) - n + 2
    prefixes = list(combinations(range(ends), 2))
    weights = []
    for c in range(ends - 1):
        # left[j]: how many pairs allowed[c] lists after j
        left = {j: len(tables.allowed[c]) - 1 - i for i, j in enumerate(tables.allowed[c])}
        weights += [comb(left[j], n - 2) if j in left else 0 for j in range(c + 1, ends)]
    target = sum(weights) / parts
    tasks: list[list[tuple[int, ...]]] = [[]]
    carried = 0
    for prefix, weight in zip(prefixes, weights):
        if carried >= target:
            tasks.append([])
            carried = 0
        tasks[-1].append(prefix)
        carried += weight
    return tasks


def _prefix_worker(args) -> tuple[int, list[SearchSolution]]:
    factors, n, reduce_orbits, prefixes = args
    return scan_prefixes(GroupSpec(factors), n, prefixes, reduce_orbits=reduce_orbits)


def search_tilings(
    n: int,
    *,
    reduce_orbits: bool = True,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> SearchResult:
    """Exhaust the candidate space for every abelian group of order 2n^2+1.

    Raises BudgetExceededError (carrying the exact refused count) when the
    space exceeds the budget.  Zero solutions from a completed run is a
    nonexistence proof for the dimension.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    groups = enumerate_abelian_groups(2 * n * n + 1)
    total = comb(n * n, n) * len(groups)
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    if total > budget:
        raise BudgetExceededError(total, budget)
    started = time.perf_counter()
    parts = threads * _TASKS_PER_WORKER
    runs = [
        [[()]]
        if threads <= 1
        else _prefix_tasks(scan_tables(spec, n, reduce_orbits), n, parts)
        for spec in groups
    ]
    tasks = [
        (spec.invariant_factors, n, reduce_orbits, prefixes)
        for spec, group_runs in zip(groups, runs)
        for prefixes in group_runs
    ]
    tested_by_group = []
    solutions: list[SearchSolution] = []
    with ExitStack() as stack:
        outcomes = map(_prefix_worker, tasks)
        if threads > 1:
            import multiprocessing

            pool = stack.enter_context(multiprocessing.Pool(threads))
            outcomes = pool.imap(_prefix_worker, tasks)
        for spec, group_runs in zip(groups, runs):
            tested = found = 0
            for _ in group_runs:
                run_tested, run_solutions = next(outcomes)
                tested += run_tested
                found += len(run_solutions)
                solutions.extend(run_solutions)
            tested_by_group.append(tested)
            if progress is not None:
                progress(f"{spec.describe()}: {tested} candidates, {found} solutions")
    return SearchResult(
        n=n,
        groups_examined=tuple(groups),
        candidates_tested=tuple(tested_by_group),
        solutions=tuple(solutions),
        reduced=reduce_orbits,
        wall_time=time.perf_counter() - started,
    )
