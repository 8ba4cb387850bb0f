"""Exhaustive search for tilings over all abelian groups of order 2n^2+1.

Candidates are forced symmetric by construction: the group's non-identity
elements split into (order-1)/2 negation pairs, and a candidate is the
identity plus any n of those pairs.  That bakes in the identity-membership
and closure-under-negation conditions, leaving only the product identity to
test, and shrinks the raw space from subsets of size 2n+1 to C(n^2, n) pair
choices.

For odd |G| the product identity T*T = 2G + T^(2) + (2n-2)e says exactly
that every non-identity element is the sum of one unordered pair of
distinct elements of T.  So the search is a perfect-packing scan: with S
the chosen elements and C their non-identity pair sums, the pair {z, -z}
may join when 2z is not in C and S + z misses C (S and C are closed under
negation, so that covers S - z, and 2z outside C keeps S + z and S - z
apart).  Sums are never removed, so a rejection drops the whole subtree,
counted exactly by binomial completion counts (candidates_tested is always
C(n^2, n) per group).  Depth n without a rejection is a tiling: its
C(2n+1, 2) - n = 2n^2 distinct non-identity sums fill G minus e.

The scan looks ahead (forward checking, Haralick and Elliott, Artif.
Intell. 1980): a node holds the pairs that passed its test, its survivors,
and tests them for each child at once.  A survivor z passes the child
entering y exactly when 2z is in neither S + y nor S - y, and neither
z + y nor z - y is in C, 2S, S + y or S - y.  So a node keeps three masks,
S, B (C and 2S) and H = S/2, in the one padded mixed radix that the
group-ring product also reads (abelian.padded_layout, radix 2d per
coordinate of factor d), one bit per element at its position.  Translating
a mask by x is one shift by x's position, folded back once per coordinate
by bit masks that only the search keeps (see _folds), for cyclic and
non-cyclic groups alike.  The child's fail mask, the union of B + y,
B - y, S + 2y, S - 2y, H + y/2 and H - y/2, marks the survivors it rejects;
survivors are an int holding each surviving pair's first-element bit:
positions rise with ranks, so bit order is pair order, and a child's
survivors are its parent's after y, AND-NOT its fail mask.  A child left
fewer survivors than pairs it still has to choose heads no leaf: its
subtree is counted at once and it is never called.  A live child is called
to enter the survivors with enough after them, once the candidates below
none of those are counted, so the count is still summed from the walk.
The node runs this rule inline, on S, B and H as three ints, with no call
per tested pair; ScanTables.fail_mask and grow state the same rule once,
for the prefix walk and as the reference the tests check.

A surviving leaf is read as a map phi: Z^n -> G sending e_i to the first
element of the i-th chosen pair, and re-verified by two independent
routes: the group-ring condition checker on its induced code set and the
ball-image bijection verifier on phi itself; disagreement is an internal
error, not a result.  In a group of order 2n^2+1 every leaf that passes
the packing test is a tiling, so a leaf the two routes refuse is an
internal error too, never a dropped candidate that would read as a
nonexistence result.  The ball is made once per scan, at the first leaf,
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
and is empty when floor(c) < c.  The scan starts only at first pairs c
whose allowed[c] can fill a candidate, with allowed[c] as survivors, so
below c it never tests a pair that allowed[c] leaves out; a prefix's own
indices must be among the survivors too.  The pairs left out are skipped,
not tested, and their candidates are counted with the node's other
rejections.  The rule is necessary, not sufficient, so the leaf keeps its
full orbit test.

Every table a scan reads (the shifts and folds, the survivor bits, the
multiplier permutations, the pairs the orbit floors allow, the subtree
counts) comes from one read-only object per group, n and reduction
setting, made at its first use in a process and kept for the next scans:
a parallel run's tasks, or a forked worker whose parent split the run by
the same tables.  A scan without reduction never makes the multiplier
permutations.

The scan's unit of work is a prefix of pair indices.  Each index before
the last must be a survivor and is entered, its child's survivors and masks
made by fail_mask and grow; an index that is no survivor drops the
prefix's whole count.  The last index, a survivor too, is handed to the
node rule with the survivors after it, so the first depth below a prefix,
and a full-length prefix's leaf, are the node rule's own, and a planted
prefix checks it.  The empty prefix counts at once every candidate whose
first pair c starts with no survivors (the floors leave c too few pairs,
or c leaves fewer than n - 1 after it), and walks the other c as one-pair
prefixes (c,).  A search is one list of (group, run) tasks, in group and
prefix order.  A serial search has one run per group, the empty prefix,
and maps the list in-process, so it reports each group before it scans
the next.  A parallel search starts a run of two-pair prefixes at each
one the orbit floors leave alive and maps the list on the pool, in about
eight chunks per worker.  Both are merged by one loop that sums each
group's counts and joins its solutions in prefix order, so the output is
identical either way.
"""

import time

# collections.abc generics, unlike typing's, are not cached, so an annotation
# that names SearchSolution keeps no module copy alive after a re-import
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import comb, gcd, log10
from typing import NamedTuple, Optional

from .abelian import (
    GroupElement,
    GroupSpec,
    as_integers,
    element_at,
    enumerate_abelian_groups,
    padded_layout,
    scaled_ranks,
)
from .ball import ErrorBall, generate_ball
from .groupring import check_tiling_conditions
from .tiling import TilingHomomorphism, induced_code_set, verify_tiling

DEFAULT_BUDGET = 10**9
_TASKS_PER_WORKER = 8  # pool chunks per worker, for load balance


def _magnitude(count: int) -> str:
    """The count in full up to 20 digits, else as a power of ten: Python
    refuses to print an int of over 4300 digits."""
    return str(count) if count < 10**20 else f"about 10^{log10(count):.1f}"


class BudgetExceededError(RuntimeError):
    """The candidate space is larger than the caller allowed."""

    def __init__(self, candidate_count: int, budget: int):
        super().__init__(
            f"search space holds {_magnitude(candidate_count)} candidates, "
            f"over the budget of {_magnitude(budget)}"
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
    exponent = spec.exponent
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


def _folds(spec: GroupSpec) -> tuple[tuple[int, int], ...]:
    """Per coordinate, the bit mask and shift that fold a translated mask
    back into the layout: the bits whose digit there is below d, and d
    times the coordinate's stride.

    An element with digits v (its residues) sits at v in
    abelian.padded_layout, with radix 2d for a coordinate of factor d.
    Shifting a mask left by x's position puts s + x at digits v + x <=
    2d - 2, with no carry, and an OR of such shifts stays within those
    digits.  Folding once per coordinate, mask = (mask | mask >> shift) &
    low, brings the bits whose digit there is d or more down by d, and
    `low` drops them and what the shift moved off the others, so the result
    is the mask of the translates, in cyclic and non-cyclic groups alike.
    """
    strides, _, fold = padded_layout(spec)
    shifts = [d * stride for d, stride in zip(spec.invariant_factors, strides)]
    return tuple(
        (sum(((1 << shift) - 1) << start for start in range(0, len(fold), 2 * shift)), shift)
        for shift in shifts
    )


class ScanTables(NamedTuple):
    """The read-only tables a scan of one group at one n reads, and the node
    rule's two steps on them, stated once: the prefix walk calls them, the
    tests check them, and the node runs the same steps inline.

    Masks hold one bit per element, at its position in abelian.padded_layout
    (see _folds).  A node's survivors hold the bit of each surviving pair's
    first element x; positions rise with ranks, so bit order is pair order,
    and pair_at turns a bit's length back into its pair.  The orbit floors
    reach the scan only through `allowed` and `starts`: allowed[c] lists the
    pairs that may follow a first pair c, and is empty when a multiplier
    maps c itself lower.  The empty prefix walks only the `live` first
    pairs and adds the `dead` ones' candidates, sum C(P - 1 - c, n - 1)
    over them, at once.
    """

    pair_ranks: tuple[tuple[int, int], ...]  # pair j = {x, -x}: the ranks of x and -x
    perms: tuple[tuple[int, ...], ...]  # the multipliers' pair permutations, or the identity
    bits: tuple[int, ...]  # pair j's survivor bit, the bit of x
    pair_at: dict[int, int]  # the pair whose survivor bit has this bit length
    steps: tuple[tuple[int, ...], ...]  # the shifts by x, -x, 2x, -2x, x/2 and -x/2
    folds: tuple[tuple[int, int], ...]  # bring translated masks back into the layout
    allowed: tuple[tuple[int, ...], ...]  # the j > c with floors[j] >= c, if floors[c] == c
    starts: tuple[int, ...]  # the bits of c and allowed[c], or 0 if they fill no candidate
    live: tuple[int, ...]  # the first pairs c with starts[c] != 0
    dead: int  # the candidates whose first pair c has starts[c] == 0
    subtree: tuple[tuple[int, ...], ...]  # subtree[r][i]: candidates below last pair i, r short

    def fail_mask(self, masks: tuple[int, int, int], y: int) -> int:
        """The survivors of a node with masks S, B and H that its child
        entering y rejects: the z with z + y or z - y in B, S + y or S - y,
        or with 2z in S + y or S - y.  As 0 is in S, that is B +- y, S +- 2y
        and H +- y/2, less S, which holds no survivor; y is among them, as 0
        is in B.  The prefix walk calls it; the node runs it inline."""
        mask, blocked, halves = masks
        plus, minus, twice, twice_neg, half, half_neg = self.steps[y]
        fail = blocked << plus | blocked << minus | mask << twice | mask << twice_neg
        fail |= halves << half | halves << half_neg
        for low, shift in self.folds:
            fail = (fail | fail >> shift) & low
        return fail

    def grow(self, masks: tuple[int, int, int], y: int) -> tuple[int, int, int]:
        """The masks of the child entering y: S + y and S - y join B, and
        y, 2y and y/2 and their negatives join S, B and H.  The prefix walk
        calls it; the node runs it inline."""
        mask, blocked, halves = masks
        plus, minus, twice, twice_neg, half, half_neg = self.steps[y]
        blocked |= mask << plus | mask << minus | 1 << twice | 1 << twice_neg
        for low, shift in self.folds:
            blocked = (blocked | blocked >> shift) & low
        return mask | 1 << plus | 1 << minus, blocked, halves | 1 << half | 1 << half_neg


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
    them from a parent that made them before forking.  Halving is
    multiplication by (|G| + 1) / 2, a bijection because |G| is odd.
    """
    pair_ranks = tuple(_pair_ranks(spec))
    num_pairs = len(pair_ranks)
    positions = padded_layout(spec).positions
    firsts = [g for g, _ in pair_ranks]
    half = (spec.order + 1) // 2
    scaled = [scaled_ranks(spec, firsts, t) for t in (1, -1, 2, -2, half, -half)]
    steps = tuple(tuple(positions[g] for g in ranks) for ranks in zip(*scaled))
    identity = (tuple(range(num_pairs)),)
    perms = tuple(pair_multiplier_permutations(spec)) if reduce_orbits else identity
    floors = orbit_floors(perms)
    allowed = tuple(
        tuple(j for j in range(c + 1, num_pairs) if floors[j] >= c) if floors[c] == c else ()
        for c in range(num_pairs)
    )
    bits = tuple(1 << plus for plus, *_ in steps)
    starts = tuple(
        sum(bits[j] for j in (c, *after)) if len(after) >= n - 1 else 0
        for c, after in enumerate(allowed)
    )
    return ScanTables(
        pair_ranks=pair_ranks,
        perms=perms,
        bits=bits,
        pair_at={bit.bit_length(): j for j, bit in enumerate(bits)},
        steps=steps,
        folds=_folds(spec),
        allowed=allowed,
        starts=starts,
        live=tuple(c for c, start in enumerate(starts) if start),
        dead=sum(comb(num_pairs - 1 - c, n - 1) for c, start in enumerate(starts) if not start),
        subtree=tuple(tuple(comb(i, r) for i in reversed(range(num_pairs))) for r in range(n)),
    )


def scan_prefixes(
    spec: GroupSpec, n: int, prefixes: Iterable[tuple[int, ...]], *, reduce_orbits: bool = True
) -> tuple[int, list[SearchSolution]]:
    """Scan every candidate that starts with one of the prefixes.

    A prefix is an increasing tuple of at most n pair indices, walked with
    the node rule and the allowed pairs of the nodes below it; the empty
    prefix is the whole space, walked as the one-pair prefixes of the first
    pairs that start with survivors, the others counted at once.  Returns
    the candidates covered, C(P - 1 - last, n - k) for a prefix of k pairs
    ending at `last` among P pairs, summed over the prefixes, and the
    solutions in prefix order.  n must be at least 2, as the leaf's ball
    B(n,2,1,1) needs.  A prefix's last index is entered by the node rule,
    so below the walk a node is called only with survivors of its parent,
    and only when they can still fill a candidate; every other subtree is
    counted whole where its parent drops it.  With reduce_orbits the
    multiplier orbit floors prune subtrees that hold no canonical leaf (see
    the module docstring).  The tables come from scan_tables, so only a
    process's first scan of a group at n makes them.
    """
    (n,) = as_integers((n,), "n")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    tables = scan_tables(spec, n, reduce_orbits)
    pair_ranks, bits, pair_at = tables.pair_ranks, tables.bits, tables.pair_at
    subtree, steps, folds = tables.subtree, tables.steps, tables.folds
    num_pairs = len(pair_ranks)
    chosen: list[int] = []
    tested = 0
    solutions: list[SearchSolution] = []
    ball = None  # made at the first leaf

    def node(
        mask: int, blocked: int, halves: int, remaining: int, survivors: int, entered: list[int]
    ):
        # `survivors` passed this node, with masks S, B and H, and the node
        # enters `entered`, their lowest pairs, each leaving `remaining`
        # pairs to choose; with none left each one entered completes a leaf.
        # Otherwise the child entering y keeps the survivors after y that
        # its fail mask leaves: one left too few to fill a candidate is
        # counted whole, and a live one is called to enter those with enough
        # survivors after them, once the candidates below none of those are
        # counted.  The fail mask and the child's masks are
        # ScanTables.fail_mask and grow, written out.
        nonlocal tested, ball
        if not remaining:
            for y in entered:
                tested += 1
                candidate = (*chosen, y)
                orbit = candidate_orbit(tables.perms, candidate)
                if min(orbit) != candidate:
                    continue
                ball = ball or generate_ball(n, 2, 1, 1)
                images = [element_at(spec, pair_ranks[i][0]) for i in candidate]
                if not dual_verify_candidate(TilingHomomorphism(n, spec, images), ball):
                    raise RuntimeError(
                        f"internal error: leaf {candidate} over {spec.describe()} at n = {n} "
                        "passed the packing test but is not a tiling"
                    )
                ranks = sorted([0] + [r for i in candidate for r in pair_ranks[i]])
                elements = tuple(element_at(spec, r) for r in ranks)
                solutions.append(SearchSolution(spec, elements, len(orbit)))
            return
        weights, below = subtree[remaining], subtree[remaining - 1]
        for y in entered:
            survivors ^= bits[y]
            plus, minus, twice, twice_neg, half, half_neg = steps[y]
            fail = blocked << plus | blocked << minus | mask << twice | mask << twice_neg
            fail |= halves << half | halves << half_neg
            for low, shift in folds:
                fail = (fail | fail >> shift) & low
            rest = survivors & ~fail
            count = rest.bit_count()
            if count < remaining:
                tested += weights[y]
                continue
            firsts, left, covered = [], rest, weights[y]
            for _ in range(count - remaining + 1):
                first = pair_at[(left & -left).bit_length()]
                firsts.append(first)
                covered -= below[first]
                left &= left - 1
            tested += covered
            blocked_y = blocked | mask << plus | mask << minus | 1 << twice | 1 << twice_neg
            for low, shift in folds:
                blocked_y = (blocked_y | blocked_y >> shift) & low
            mask_y, halves_y = mask | 1 << plus | 1 << minus, halves | 1 << half | 1 << half_neg
            chosen.append(y)
            node(mask_y, blocked_y, halves_y, remaining - 1, rest, firsts)
            chosen.pop()

    for prefix in prefixes:
        prefix = as_integers(prefix, "prefix indices")
        if len(prefix) > n or not all(a < b for a, b in zip((-1, *prefix), (*prefix, num_pairs))):
            raise ValueError(f"prefix {prefix}: need <= {n} increasing indices below {num_pairs}")
        # the empty prefix counts the candidates of every first pair left
        # no survivors at once, and walks the others as one-pair prefixes
        tested += 0 if prefix else tables.dead
        for start in [prefix] if prefix else [(c,) for c in tables.live]:
            # the identity alone, S = B = H = {0}, passes every pair
            masks, survivors, last = (1, 1, 1), tables.starts[start[0]], start[-1]
            chosen[:] = start[:-1]
            for y in chosen:
                # an index the floors leave out, or an earlier index's child
                # rejects, leaves no survivors
                survivors = survivors & ~tables.fail_mask(masks, y) if survivors & bits[y] else 0
                masks = tables.grow(masks, y)
            if survivors & bits[last]:
                # the node enters the last index, with the survivors after it
                node(*masks, n - len(start), survivors & -bits[last], [last])
            else:
                tested += subtree[n - len(start)][last]
    # node's closure holds its own cell; unbinding it frees the call's
    # closures and lists now rather than at the next cycle collection
    del node
    return tested, solutions


def _prefix_tasks(tables: ScanTables, n: int) -> list[list[tuple[int, int]]]:
    """All two-pair prefixes in scan order, in runs that each start at a
    prefix (c, j) the orbit floors leave alive: allowed[c] lists j and at
    least n - 2 pairs after it.  The scan enters no pair below any other
    prefix, so those ride along with the run before them.  These are a
    parallel search's runs of one group in its (group, run) task list,
    which search_tilings maps on the pool and merges once, as it does a
    serial search's one run per group."""
    ends = len(tables.allowed) - n + 2
    tasks: list[list[tuple[int, int]]] = []
    for c in range(ends - 1):
        after = tables.allowed[c]
        live = set(after[: max(len(after) - n + 2, 0)])
        for j in range(c + 1, ends):
            if j in live or not tasks:
                tasks.append([])
            tasks[-1].append((c, j))
    return tasks


def _prefix_worker(args) -> tuple[int, list[SearchSolution]]:
    spec, n, reduce_orbits, prefixes = args
    return scan_prefixes(spec, n, prefixes, reduce_orbits=reduce_orbits)


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
    n, budget, threads = as_integers((n, budget, threads), "n, budget and threads")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    groups = enumerate_abelian_groups(2 * n * n + 1)
    total = comb(n * n, n) * len(groups)
    for name, value in (("budget", budget), ("threads", threads)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    if total > budget:
        raise BudgetExceededError(total, budget)
    started = time.perf_counter()
    # one run per group, the empty prefix, or a parallel search's runs of
    # two-pair prefixes, cut before the pool starts so that a forked worker
    # inherits the tables they were cut by
    runs = [[[()]]] * len(groups)
    if threads > 1:
        import multiprocessing

        runs = [_prefix_tasks(scan_tables(spec, n, reduce_orbits), n) for spec in groups]
    tasks = [
        (spec, n, reduce_orbits, run) for spec, per_group in zip(groups, runs) for run in per_group
    ]
    tested_by_group, solutions, pool = [], [], None
    try:
        outcomes = map(_prefix_worker, tasks)
        if threads > 1:
            pool = multiprocessing.Pool(threads)
            chunksize = max(1, len(tasks) // (threads * _TASKS_PER_WORKER))
            outcomes = pool.imap(_prefix_worker, tasks, chunksize)
        for spec, per_group in zip(groups, runs):
            merged = list(islice(outcomes, len(per_group)))
            tested_by_group.append(tested := sum(count for count, _ in merged))
            found = [sol for _, run_solutions in merged for sol in run_solutions]
            solutions += found
            if progress is not None:
                progress(f"{spec.describe()}: {tested} candidates, {len(found)} solutions")
    finally:
        if pool is not None:
            pool.terminate()
    return SearchResult(
        n=n,
        groups_examined=tuple(groups),
        candidates_tested=tuple(tested_by_group),
        solutions=tuple(solutions),
        reduced=reduce_orbits,
        wall_time=time.perf_counter() - started,
    )
