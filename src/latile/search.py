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
shift.  The masks lay the elements out in the padded mixed radix that the
group-ring product also reads (abelian.padded_layout, radix 2d per
coordinate of factor d; see _folds): an element's bit is its
position there, so S+x is the chosen mask shifted left by x's position in
cyclic and non-cyclic groups alike, and it meets covered exactly when S+x
does.  S-x is made only when the scan descends, and the two sums are
folded into covered's layout once per coordinate by bit masks that only
the search keeps; the product's fold table is not read here.  Sums are
never removed, so a rejection drops the whole subtree at once, counted
exactly by binomial completion counts (candidates_tested is always
C(n^2, n) per group).  Depth n without a rejection is a tiling: its
C(2n+1, 2) - n = 2n^2 distinct non-identity sums fill G minus e.

Below the first pair S and covered only grow, so a rejection there holds
for the whole subtree.  The scan looks ahead (forward checking, Haralick
and Elliott, Artif. Intell. 1980), and a parent tests its children's
candidates itself.  A node holds survivors already tested against its own
masks, and enters those with enough survivors after them to fill a
candidate.  For each entered y it joins S + y and S - y into covered and
tests the survivors after y against the child's masks.  A child left fewer
survivors than pairs it still has to choose heads no leaf: its subtree is
counted at once and it is never called.  A live child is called with its
tested survivors, after the candidates below none of the survivors it will
enter are counted, so the count is still summed from the walk and only
nodes that can still reach a leaf are called.  The covered mask holds
pair sums and nothing else.

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
and is empty when floor(c) < c.  The root tries only the first pairs c
whose allowed[c] can fill a candidate, and below c the scan never tests a
pair that allowed[c] leaves out; a prefix's own indices must pass the same
table.  The pairs left out are skipped, not tested, and their candidates
are counted with the node's other rejections.  The rule is necessary, not
sufficient, so the leaf keeps its full orbit test.

Every table a scan reads (the layout's shifts and folds, the doubled
ranks, the multiplier permutations, the pairs the orbit floors allow and
the first pairs they leave, the subtree counts) comes from one read-only
object per group, n and reduction setting, made at its first use in a
process and kept for the next scans: a parallel run's tasks, or a forked
worker whose parent split the run by the same tables.  A scan without
reduction never makes the multiplier permutations.

The scan's unit of work is a prefix of pair indices.  Each index before
the last is checked against the allowed pairs (the roots, for the first),
tested for packing and entered; a rejection drops the prefix's whole
count.  The last index is checked the same way and then handed to the node
rule as the one survivor its parent enters, with the pairs after it that
the first pair allows as that child's untested candidates: the child's
masks contain the parent's, so testing them there is enough.  So the first
depth below a prefix, and a full-length prefix's leaf, are the node rule's
own, and a planted prefix checks it.  The empty prefix is walked as its
one-pair prefixes (c,) for every c that leaves n - 1 pairs after it; a c
that is no root is dropped by the same check, with its whole count.  A
search is one list of (group, run) tasks, in group and prefix order.  A
serial search has one run per group, the empty prefix, and maps the list
in-process, so it reports each group before it scans the next.  A parallel
search starts a run of two-pair prefixes at each one the orbit floors leave
alive and maps the list on the pool, in about eight chunks per worker.
Both are merged by one loop that sums each group's counts and joins its
solutions in prefix order, so the output is identical either way.
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


def _folds(spec: GroupSpec) -> tuple[tuple[int, int, int], ...]:
    """Per coordinate, the bit masks and shift that turn a shifted chosen
    mask into a covered one: low half, high half, shift.

    Elements are laid out in abelian.padded_layout, so that S + x is one
    shift.  A coordinate of factor d gets radix 2d.  An element with digits
    v (its residues) sits at v in a chosen mask, and at v + e*d for every e
    in {0, 1}^k in a covered mask.  Shifting a chosen mask left by x's
    digits puts s + x at v + x, with no carry since v + x <= 2d - 2, and
    that is the covered bit of (s + x) mod d with e_i = 1 where the
    coordinate wraps.  So the shifted mask meets covered exactly when S + x
    meets the covered elements, for cyclic and non-cyclic groups alike.  To
    join covered, a shifted mask is folded once per coordinate: the bits
    whose digit there is below d are copied up by d, and the others down by
    d.
    """
    strides, _, fold = padded_layout(spec)
    size = len(fold)
    folds = []
    for d, stride in zip(spec.invariant_factors, strides):
        shift = d * stride
        low = sum(((1 << shift) - 1) << start for start in range(0, size, 2 * shift))
        folds.append((low, (1 << size) - 1 ^ low, shift))
    return tuple(folds)


class ScanTables(NamedTuple):
    """The read-only tables a scan of one group at one n reads.

    The masks follow abelian.padded_layout (see _folds): a chosen mask
    holds one bit per element and a covered mask 2^k.  The orbit floors
    reach the scan only through `allowed` and the roots read off it:
    allowed[c] lists the pairs that may follow a first pair c, and is empty
    when a multiplier maps c itself lower.
    """

    pair_ranks: tuple[tuple[int, int], ...]  # pair j = {x, -x}: the ranks of x and -x
    perms: tuple[tuple[int, ...], ...]  # the multipliers' pair permutations, or the identity
    plus: tuple[int, ...]  # the shift that translates a chosen mask by pair j's x
    minus: tuple[int, ...]  # and by -x
    pair_bits: tuple[int, ...]  # the chosen bits of x and -x
    double_bits: tuple[int, ...]  # a covered bit of 2x
    folds: tuple[tuple[int, int, int], ...]  # turn shifted chosen masks into covered ones
    allowed: tuple[tuple[int, ...], ...]  # the j > c with floors[j] >= c, if floors[c] == c
    roots: tuple[int, ...]  # the first pairs c whose allowed[c] can fill a candidate
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
    shifts = padded_layout(spec).positions
    doubled = scaled_ranks(spec, range(spec.order), 2)
    if reduce_orbits:
        perms = tuple(pair_multiplier_permutations(spec))
    else:
        perms = (tuple(range(num_pairs)),)
    floors = orbit_floors(perms)
    allowed = tuple(
        tuple(j for j in range(c + 1, num_pairs) if floors[j] >= c) if floors[c] == c else ()
        for c in range(num_pairs)
    )
    return ScanTables(
        pair_ranks=pair_ranks,
        perms=perms,
        plus=tuple(shifts[g] for g, _ in pair_ranks),
        minus=tuple(shifts[h] for _, h in pair_ranks),
        pair_bits=tuple(1 << shifts[g] | 1 << shifts[h] for g, h in pair_ranks),
        double_bits=tuple(1 << shifts[doubled[g]] for g, _ in pair_ranks),
        folds=_folds(spec),
        allowed=allowed,
        roots=tuple(c for c, after in enumerate(allowed) if len(after) >= n - 1),
        subtree=tuple(
            tuple(comb(num_pairs - 1 - i, r) for i in range(num_pairs)) for r in range(n)
        ),
    )


def scan_prefixes(
    spec: GroupSpec, n: int, prefixes: Iterable[tuple[int, ...]], *, reduce_orbits: bool = True
) -> tuple[int, list[SearchSolution]]:
    """Scan every candidate that starts with one of the prefixes.

    A prefix is an increasing tuple of at most n pair indices, walked with
    the packing test and the allowed pairs of the nodes below it; the empty
    prefix is the whole space, walked as its one-pair prefixes.  Returns
    the candidates covered, C(P - 1 - last, n - k) for a prefix of k pairs
    ending at `last` among P pairs, summed over the prefixes, and the
    solutions in prefix order.  n must be at least 2, as the leaf's ball
    B(n,2,1,1) needs.  A prefix's last index is entered by the node rule,
    so below the walk a node is called only with candidates its parent has
    already tested, and only when they can still fill a candidate; every
    other subtree is counted whole where its parent drops it.  With
    reduce_orbits the multiplier orbit floors prune subtrees that hold no
    canonical leaf (see the module docstring).  The tables come from
    scan_tables, so only a process's first scan of a group at n makes them.
    """
    (n,) = as_integers((n,), "n")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    tables = scan_tables(spec, n, reduce_orbits)
    pair_ranks, num_pairs = tables.pair_ranks, len(tables.pair_ranks)
    plus, minus, pair_bits, folds = tables.plus, tables.minus, tables.pair_bits, tables.folds
    double_bits, allowed, subtree = tables.double_bits, tables.allowed, tables.subtree
    chosen: list[int] = []
    tested = 0
    solutions: list[SearchSolution] = []
    ball = None  # made at the first leaf

    def node(
        chosen_mask: int, covered: int, remaining: int, survivors: list[int], entered: int
    ) -> None:
        # `survivors` passed this node's test (is 2x in covered, and does
        # S + x meet it?), and the node enters the first `entered` of them;
        # at the last pair each one entered completes a leaf.  Otherwise the
        # node tests the survivors after each entered y against the child's
        # masks: a child left too few to fill a candidate is counted whole,
        # and a live one is called to enter those with enough survivors after
        # them, once the candidates below none of those are counted.
        nonlocal tested, ball
        if remaining == 1:
            for y in survivors[:entered]:
                tested += 1
                candidate = (*chosen, y)
                orbit = candidate_orbit(tables.perms, candidate)
                if min(orbit) != candidate:
                    continue
                if ball is None:
                    ball = generate_ball(n, 2, 1, 1)
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
        weights, below = subtree[remaining - 1], subtree[remaining - 2]
        remaining -= 1
        for i in range(entered):
            y = survivors[i]
            # S + x and S - x join covered
            sums = chosen_mask << plus[y] | chosen_mask << minus[y]
            for low, high, shift in folds:
                sums |= (sums & low) << shift | (sums & high) >> shift
            mask, joined = chosen_mask | pair_bits[y], covered | sums
            rest = []
            for z in survivors[i + 1 :]:
                if not (double_bits[z] & joined or mask << plus[z] & joined):
                    rest.append(z)
            if len(rest) < remaining:
                tested += weights[y]
                continue
            fill = len(rest) - remaining + 1
            tested += weights[y] - sum(map(below.__getitem__, rest[:fill]))
            chosen.append(y)
            node(mask, joined, remaining, rest, fill)
            chosen.pop()

    for prefix in prefixes:
        prefix = as_integers(prefix, "prefix indices")
        if len(prefix) > n or not all(a < b for a, b in zip((-1, *prefix), (*prefix, num_pairs))):
            raise ValueError(f"prefix {prefix}: need <= {n} increasing indices below {num_pairs}")
        for start in [prefix] if prefix else [(c,) for c in range(num_pairs - n + 1)]:
            # the identity, and no pair sums yet
            chosen_mask, covered, candidates = 1, 0, tables.roots
            last = start[-1]
            for y in start:
                # an index the floors leave out, or the packing rejects,
                # drops the prefix's whole count
                if y not in candidates or double_bits[y] & covered or chosen_mask << plus[y] & covered:
                    tested += subtree[n - len(start)][last]
                    break
                if y == last:
                    # the node enters the last index and tests against the
                    # child's masks the pairs after it that the first allows
                    after = [z for z in allowed[start[0]] if z > last]
                    node(chosen_mask, covered, n - len(start) + 1, [last, *after], 1)
                    break
                sums = chosen_mask << plus[y] | chosen_mask << minus[y]
                for low, high, shift in folds:
                    sums |= (sums & low) << shift | (sums & high) >> shift
                chosen.append(y)
                chosen_mask, covered = chosen_mask | pair_bits[y], covered | sums
                candidates = allowed[start[0]]
            chosen.clear()
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
