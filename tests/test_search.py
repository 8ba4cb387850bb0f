"""Tests for the exhaustive small-dimension tiling search."""

import gc
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import replace
from functools import cache
from itertools import combinations
from math import comb, gcd, prod

import pytest

import latile.groupring
import latile.search
from latile.abelian import (
    GroupElement,
    GroupSpec,
    add,
    element_at,
    enumerate_abelian_groups,
    identity,
    negate,
    padded_layout,
    rank_of,
    scalar_mul,
)
from latile.ball import generate_ball
from latile.construct import golay11_tiling
from latile.groupring import check_tiling_conditions, from_multiset
from latile.search import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    candidate_orbit,
    dual_verify_candidate,
    inverse_pairs,
    orbit_floors,
    pair_multiplier_permutations,
    scan_prefixes,
    search_tilings,
)
from latile.tiling import TilingHomomorphism, verify_tiling


@pytest.fixture(autouse=True)
def fresh_scan_tables():
    """Each test starts and ends with no scan tables kept, so a test that
    patches a table helper neither reads nor leaves tables made without it."""
    latile.search.scan_tables.cache_clear()
    yield
    latile.search.scan_tables.cache_clear()


def golay_pair_indices() -> list[int]:
    """Sorted pair indices of the Golay code set in Z_3^5 (n = 11)."""
    phi = golay11_tiling()
    index = {rank_of(g): i for i, pair in enumerate(inverse_pairs(phi.spec)) for g in pair}
    return sorted(index[rank_of(g)] for g in phi.images)


def elements_of(spec: GroupSpec, prefix) -> list[GroupElement]:
    pairs = inverse_pairs(spec)
    return [element_at(spec, 0)] + [g for i in prefix for g in pairs[i]]


@cache
def pair_index_by_rank(spec: GroupSpec) -> dict[int, int]:
    return {rank_of(g): i for i, pair in enumerate(inverse_pairs(spec)) for g in pair}


def pair_indices_of(spec: GroupSpec, solutions) -> list[tuple[int, ...]]:
    index = pair_index_by_rank(spec)
    return [
        tuple(sorted({index[rank_of(g)] for g in sol.elements if rank_of(g)}))
        for sol in solutions
    ]


def residue_pair_permutations(order: int) -> list[tuple[int, ...]]:
    """Reference: the multiplier permutations of Z_order by residue arithmetic.

    The rank of a residue is the residue itself, so pair i is {i + 1, -(i + 1)}
    and the residue v lies in pair min(v, order - v) - 1.
    """
    num_pairs = (order - 1) // 2

    def pair_index(value: int) -> int:
        return min(value, order - value) - 1

    return sorted(
        {
            tuple(pair_index(t * (i + 1) % order) for i in range(num_pairs))
            for t in range(1, order)
            if gcd(t, order) == 1
        }
    )


def group_pair_permutations(spec: GroupSpec) -> list[tuple[int, ...]]:
    """Reference: the multiplier permutations of any odd-order group, by
    scaling the first element of each pair with residue arithmetic."""
    pairs = inverse_pairs(spec)
    index = {g: i for i, pair in enumerate(pairs) for g in pair}
    return sorted(
        {
            tuple(index[scalar_mul(t, g)] for g, _ in pairs)
            for t in range(1, spec.order)
            if gcd(t, spec.order) == 1
        }
    )


def canonical_only(perms, candidates) -> list[tuple[int, ...]]:
    """The candidates that are the minimum of their multiplier orbit."""
    return [c for c in candidates if min(candidate_orbit(perms, c)) == c]


def golay_with_one_image_swapped() -> TilingHomomorphism:
    """The Golay map with its image ±(1, 0, 0, 0, 0) replaced by (1, 1, 0, 0, 0)."""
    phi = golay11_tiling()
    swap_out = GroupElement(phi.spec, (1, 0, 0, 0, 0))
    swap_in = GroupElement(phi.spec, (1, 1, 0, 0, 0))
    images = [swap_in if g in (swap_out, negate(swap_out)) else g for g in phi.images]
    assert images != list(phi.images)
    return TilingHomomorphism(11, phi.spec, images)


def two_translation_accepts(pairs, leaf) -> bool:
    """The packing rule with both translations, written with element sets.

    Adding the pair {x, -x} to the chosen set S brings the sums S + x and
    S - x; the pair is rejected when they meet each other or the sums of
    the pairs before it.
    """
    chosen = {identity(pairs[0][0].spec)}
    sums = set()
    for i in leaf:
        x, neg_x = pairs[i]
        a = {add(s, x) for s in chosen}
        b = {add(s, neg_x) for s in chosen}
        if a & b or (a | b) & sums:
            return False
        chosen |= {x, neg_x}
        sums |= a | b
    return True


class TestInversePairs:
    def test_z19_has_nine_pairs(self):
        pairs = inverse_pairs(GroupSpec((19,)))
        assert len(pairs) == 9
        for g, h in pairs:
            assert negate(g) == h
            assert g != h

    def test_elementary_group_has_121_pairs(self):
        assert len(inverse_pairs(GroupSpec((3, 3, 3, 3, 3)))) == 121

    def test_z5_pairs_by_rank(self):
        pairs = inverse_pairs(GroupSpec((5,)))
        ranked = [(rank_of(g), rank_of(h)) for g, h in pairs]
        assert ranked == [(1, 4), (2, 3)]

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            inverse_pairs(GroupSpec((6,)))

    def test_pairs_cover_all_nonidentity_elements(self):
        spec = GroupSpec((3, 9))
        pairs = inverse_pairs(spec)
        ranks = {rank_of(g) for p in pairs for g in p}
        assert len(ranks) == spec.order - 1
        assert 0 not in ranks


class TestMultiplierReduction:
    def test_z19_units_act_transitively_on_pairs(self):
        spec = GroupSpec((19,))
        perms = pair_multiplier_permutations(spec)
        orbit = candidate_orbit(perms, (0,))
        assert orbit == {(i,) for i in range(9)}
        assert canonical_only(perms, [(i,) for i in range(9)]) == [(0,)]

    def test_z33_pair_orbits_partition_by_divisor_structure(self):
        spec = GroupSpec((33,))
        perms = pair_multiplier_permutations(spec)
        orbits = {frozenset(candidate_orbit(perms, (i,))) for i in range(16)}
        sizes = sorted(len(o) for o in orbits)
        assert sizes == [1, 5, 10]
        assert sum(sizes) == 16

    def test_orbits_partition_the_candidate_space(self):
        spec = GroupSpec((19,))
        perms = pair_multiplier_permutations(spec)
        space = list(combinations(range(9), 3))
        covered = []
        for cand in canonical_only(perms, space):
            covered.extend(candidate_orbit(perms, cand))
        assert sorted(covered) == sorted(space)

    def test_noncyclic_group_gets_identity_only(self):
        # Every unit is +-1 mod 3, so Z_3 x Z_3 keeps only the identity;
        # Z_5 x Z_5 has the units +-1 and +-2, two permutations.
        spec = GroupSpec((3, 3))
        assert pair_multiplier_permutations(spec) == [(0, 1, 2, 3)]
        space = [(0, 1), (0, 2), (2, 3)]
        assert canonical_only(pair_multiplier_permutations(spec), space) == space
        perms = pair_multiplier_permutations(GroupSpec((5, 5)))
        assert len(perms) == 2
        assert perms[0] == tuple(range(12))

    @pytest.mark.parametrize("factors", [(3, 3), (5, 5), (3, 33), (17, 17)])
    def test_noncyclic_permutations_match_the_residue_reference(self, factors):
        # Z_17 x Z_17 is the n = 12 group of order 289.
        spec = GroupSpec(factors)
        assert pair_multiplier_permutations(spec) == group_pair_permutations(spec)

    @pytest.mark.parametrize(
        "order", list(range(3, 300, 2)) + [2 * n * n + 1 for n in range(3, 9)]
    )
    def test_permutations_match_the_residue_reference(self, order):
        spec = GroupSpec((order,))
        assert pair_multiplier_permutations(spec) == residue_pair_permutations(order)

    def test_trivial_group_has_the_empty_permutation(self):
        assert pair_multiplier_permutations(GroupSpec(())) == [()]

    def test_even_order_rejected(self):
        for factors in [(6,), (2, 2)]:
            with pytest.raises(ValueError, match="even"):
                pair_multiplier_permutations(GroupSpec(factors))


class TestDualVerify:
    def test_accepts_known_tiling(self):
        assert dual_verify_candidate(golay11_tiling(), generate_ball(11, 2, 1, 1))

    def test_rejects_corrupted_candidate(self):
        phi = golay_with_one_image_swapped()
        assert not dual_verify_candidate(phi, generate_ball(11, 2, 1, 1))

    def test_disagreeing_verifiers_raise(self, monkeypatch):
        real_verify = latile.search.verify_tiling

        def flipped(phi, ball):
            report = real_verify(phi, ball)
            return replace(report, bijective=not report.bijective)

        monkeypatch.setattr(latile.search, "verify_tiling", flipped)
        for phi in (golay11_tiling(), golay_with_one_image_swapped()):
            with pytest.raises(RuntimeError, match="disagree"):
                dual_verify_candidate(phi, generate_ball(11, 2, 1, 1))

    def test_ball_route_does_not_read_the_fold_table(self, monkeypatch):
        # A fold table off by one breaks the group-ring product, and with it
        # the ring check, but not the ball verifier, so the two disagree.
        real = latile.groupring.padded_layout(GroupSpec((3, 3, 3, 3, 3)))
        broken = real._replace(fold=real.fold[1:] + real.fold[:1])
        monkeypatch.setattr(latile.groupring, "padded_layout", lambda spec: broken)
        with pytest.raises(RuntimeError, match="disagree"):
            dual_verify_candidate(golay11_tiling(), generate_ball(11, 2, 1, 1))


class TestSearch:
    def test_n3_exhausts_84_candidates_and_finds_nothing(self):
        result = search_tilings(3, reduce_orbits=False)
        assert result.groups_examined == (GroupSpec((19,)),)
        assert result.candidates_tested == (comb(9, 3),)
        assert result.solutions == ()
        assert not result.reduced

    def test_n3_reduction_covers_the_same_space(self):
        full = search_tilings(3, reduce_orbits=False)
        reduced = search_tilings(3, reduce_orbits=True)
        assert reduced.reduced
        assert reduced.candidates_tested == full.candidates_tested == (84,)
        assert reduced.solutions == full.solutions == ()

    def test_n4_count(self):
        result = search_tilings(4, reduce_orbits=False)
        assert result.candidates_tested == (comb(16, 4),)
        assert result.candidates_tested == (1820,)
        assert result.solutions == ()

    def test_n5_count(self):
        result = search_tilings(5)
        assert result.candidates_tested == (comb(25, 5),)
        assert result.candidates_tested == (53130,)
        assert result.solutions == ()

    def test_threads_do_not_change_the_result(self):
        for n in (4, 5, 6):
            for reduce_orbits in (True, False):
                serial = search_tilings(n, reduce_orbits=reduce_orbits, threads=1)
                parallel = search_tilings(n, reduce_orbits=reduce_orbits, threads=2)
                a = serial.as_dict()
                b = parallel.as_dict()
                a.pop("meta")
                b.pop("meta")
                assert a == b

    def test_spawned_workers_match_the_serial_result(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
        serial = search_tilings(4, threads=1).as_dict()
        parallel = search_tilings(4, threads=2).as_dict()
        serial.pop("meta")
        parallel.pop("meta")
        assert parallel == serial

    def test_n7_is_exhausted_with_no_tiling(self):
        # Settles n = 7, which the certificate route leaves open: both
        # groups of order 99 (Z_3 x Z_33 and Z_99) hold no tiling.
        started = time.perf_counter()
        serial = search_tilings(7, threads=1)
        parallel = search_tilings(7, threads=2)
        assert time.perf_counter() - started < 60
        for result in (serial, parallel):
            assert result.groups_examined == (GroupSpec((3, 33)), GroupSpec((99,)))
            assert result.candidates_tested == (comb(49, 7), comb(49, 7))
            assert result.solutions == ()
        a = serial.as_dict()
        b = parallel.as_dict()
        a.pop("meta")
        b.pop("meta")
        assert a == b

    def test_n8_is_exhausted_with_no_tiling(self):
        # Z_129, the only group of order 129, holds no tiling; the
        # certificate route rules n = 8 out too, so this cross-checks it.
        count = comb(64, 8)
        started = time.perf_counter()
        result = search_tilings(8, budget=count, threads=1)
        assert time.perf_counter() - started < 30
        assert result.groups_examined == (GroupSpec((129,)),)
        assert result.candidates_tested == (count,) == (4426165368,)
        assert result.solutions == ()

    def test_budget_refusal_carries_exact_count(self):
        with pytest.raises(BudgetExceededError) as exc:
            search_tilings(5, budget=10)
        assert exc.value.candidate_count == 53130
        assert exc.value.budget == 10

    def test_n11_space_is_out_of_reach_by_default(self):
        with pytest.raises(BudgetExceededError) as exc:
            search_tilings(11)
        # seven abelian groups of order 243, C(121, 11) candidates each
        assert exc.value.candidate_count == 7 * comb(121, 11)
        assert exc.value.candidate_count == 8937249755185752
        assert exc.value.budget == DEFAULT_BUDGET

    def test_budget_equal_to_the_count_runs(self):
        # n = 3 has exactly C(9, 3) = 84 candidates (Z_19 only)
        assert search_tilings(3, budget=84).candidates_tested == (84,)
        with pytest.raises(BudgetExceededError) as exc:
            search_tilings(3, budget=83)
        assert exc.value.candidate_count == 84

    def test_input_validation(self):
        with pytest.raises(ValueError):
            search_tilings(2)
        with pytest.raises(ValueError):
            search_tilings(3, budget=0)

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match=rf"^threads must be positive, got {threads}$"):
            search_tilings(3, threads=threads)

    @pytest.mark.parametrize("options", [{"budget": 84.5}, {"threads": 2.0}])
    def test_non_integer_arguments_rejected(self, options):
        with pytest.raises(ValueError, match="must be integers"):
            search_tilings(3, **options)

    def test_refusal_gives_a_short_count_in_full_and_a_long_one_as_a_power(self):
        with pytest.raises(BudgetExceededError, match="holds 4426165368 candidates"):
            search_tilings(8)
        with pytest.raises(BudgetExceededError, match=r"holds about 10\^7468\.7 candidates") as exc:
            search_tilings(2000)
        # two groups of order 2 * 2000^2 + 1 = 3^2 * 67 * 13267
        assert exc.value.candidate_count == 2 * comb(4_000_000, 2000)

    def test_result_dict_shape(self):
        d = search_tilings(3).as_dict()
        assert d["n"] == 3
        assert d["groups_examined"] == [{"invariant_factors": [19]}]
        assert d["candidates_tested"] == [84]
        assert d["solutions"] == []
        assert d["reduced"] is True
        assert "wall_time" in d["meta"]


class TestProgress:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_one_line_per_group_in_order_serially_and_in_parallel(self, n):
        lines = {1: [], 2: []}
        for threads, seen in lines.items():
            result = search_tilings(n, threads=threads, progress=seen.append)
            assert seen == [
                f"{spec.describe()}: {tested} candidates, "
                f"{sum(sol.spec == spec for sol in result.solutions)} solutions"
                for spec, tested in zip(result.groups_examined, result.candidates_tested)
            ]
        assert lines[1] == lines[2]
        if n == 7:
            assert lines[1] == [
                "Z_3 x Z_33: 85900584 candidates, 0 solutions",
                "Z_99: 85900584 candidates, 0 solutions",
            ]

    def test_serial_search_reports_a_group_before_it_scans_the_next(self, monkeypatch):
        # A serial search maps its tasks in-process and lazily: each group's
        # scan makes its own tables, and the group is reported before the
        # next one is scanned.  It never cuts the parallel runs.
        events = []
        real_scan, real_tables = latile.search.scan_prefixes, latile.search.scan_tables

        def scan(spec, n, prefixes, **options):
            events.append(("scan", spec.describe(), list(prefixes)))
            return real_scan(spec, n, prefixes, **options)

        def tables(spec, *args):
            events.append(("tables", spec.describe()))
            return real_tables(spec, *args)

        monkeypatch.setattr(latile.search, "scan_prefixes", scan)
        monkeypatch.setattr(latile.search, "scan_tables", tables)
        monkeypatch.setattr(
            latile.search, "_prefix_tasks", lambda *args: pytest.fail("serial run cut runs")
        )
        search_tilings(7, progress=lambda line: events.append(("report", line)))
        assert events == [
            ("scan", "Z_3 x Z_33", [()]),
            ("tables", "Z_3 x Z_33"),
            ("report", "Z_3 x Z_33: 85900584 candidates, 0 solutions"),
            ("scan", "Z_99", [()]),
            ("tables", "Z_99"),
            ("report", "Z_99: 85900584 candidates, 0 solutions"),
        ]

    def test_serial_search_does_not_import_multiprocessing(self):
        src = os.path.dirname(os.path.dirname(latile.search.__file__))
        probe = (
            "import sys, latile.cli\n"
            "latile.search.search_tilings(5)\n"
            "print('multiprocessing' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.stdout.split() == ["False"]


class TestPrefixScan:
    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_planted_golay_prefix_is_found(self, k):
        spec = GroupSpec((3, 3, 3, 3, 3))
        golay = golay_pair_indices()
        prefix = tuple(golay[:k])
        tested, solutions = scan_prefixes(spec, 11, [prefix], reduce_orbits=False)
        assert tested == comb(120 - prefix[-1], 11 - k)
        golay_elements = tuple(sorted(elements_of(spec, golay), key=rank_of))
        found = [sol.elements for sol in solutions]
        assert golay_elements in found
        # the JSON `latile search` prints for the solution
        record = solutions[found.index(golay_elements)].as_dict()
        assert record["group"] == {"invariant_factors": [3, 3, 3, 3, 3]}
        assert record["elements"] == [list(g.residues) for g in golay_elements]
        assert len(record["elements"]) == 23
        assert record["elements"][0] == [0, 0, 0, 0, 0]
        assert record["orbit_size"] == 1
        assert json.loads(json.dumps(record)) == record
        # both verifiers accept the planted set on their own
        assert check_tiling_conditions(from_multiset(spec, golay_elements), 11).passed
        pairs = inverse_pairs(spec)
        phi = TilingHomomorphism(11, spec, tuple(pairs[i][0] for i in golay))
        assert verify_tiling(phi, generate_ball(11, 2, 1, 1)).bijective

    def test_refused_leaf_raises_rather_than_dropping_a_tiling(self, monkeypatch):
        # Below the first five Golay pairs every leaf is a tiling, so a leaf
        # the re-verification refuses is an engine fault: dropping it would
        # read as a nonexistence result.
        monkeypatch.setattr(latile.search, "dual_verify_candidate", lambda *args: False)
        spec = GroupSpec((3, 3, 3, 3, 3))
        prefix = tuple(golay_pair_indices()[:5])
        assert prefix == (0, 1, 5, 18, 39)
        message = (
            "internal error: leaf (0, 1, 5, 18, 39, 40, 52, 77, 88, 96, 115) over "
            "Z_3 x Z_3 x Z_3 x Z_3 x Z_3 at n = 11 passed the packing test but is not a tiling"
        )
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            scan_prefixes(spec, 11, [prefix], reduce_orbits=False)

    def test_rejected_prefix_counts_its_whole_subtree(self):
        spec = GroupSpec((19,))
        # pairs {1, 18} and {2, 17}: 0 + 1 = 18 + 2 (mod 19), a repeated sum
        assert scan_prefixes(spec, 3, [(0, 1)]) == (comb(9 - 1 - 1, 1), [])

    @pytest.mark.parametrize(
        "factors, n", [((19,), 3), ((33,), 4), ((51,), 3), ((5, 5), 3), ((3, 3, 3), 3)]
    )
    @pytest.mark.parametrize("reduce_orbits", [False, True])
    def test_every_short_prefix_counts_and_reports_exactly_its_leaves(
        self, monkeypatch, factors, n, reduce_orbits
    ):
        # With leaf re-verification stubbed out, each prefix of at most three
        # pairs counts C(P - 1 - last, n - k) whether it is rejected at its
        # last index, before it or not at all, and reports the full scan's
        # leaves that start with it.  In Z_19, (0, 1) already repeats a sum,
        # so (0, 1, 5) counts its one candidate, not the C(7, 1) below a
        # node ending at pair 1.  Z_19 and Z_33 hold no tiling and no three
        # pairs of Z_5^2 pack, so there every report is empty, and a node
        # folding two coordinates must reject every leaf; three pairs of
        # Z_51 or Z_3^3 often pack, the latter folded on three coordinates.
        monkeypatch.setattr(latile.search, "dual_verify_candidate", lambda *args: True)
        spec = GroupSpec(factors)
        num_pairs = (spec.order - 1) // 2
        _, full = scan_prefixes(spec, n, [()], reduce_orbits=reduce_orbits)
        leaves = pair_indices_of(spec, full)
        assert bool(leaves) == (factors in [(51,), (3, 3, 3)])
        for k in range(4):
            for prefix in combinations(range(num_pairs), k):
                tested, solutions = scan_prefixes(spec, n, [prefix], reduce_orbits=reduce_orbits)
                last = prefix[-1] if prefix else -1
                assert tested == comb(num_pairs - 1 - last, n - k)
                assert pair_indices_of(spec, solutions) == [
                    leaf for leaf in leaves if leaf[:k] == prefix
                ]

    def test_scan_leaves_no_reference_cycle(self):
        # each call's closures and lists are freed when it returns, not left
        # for the cycle collector
        spec = GroupSpec((73,))
        scan_prefixes(spec, 6, [(0, 1)], reduce_orbits=False)
        gc.collect()
        gc.disable()
        try:
            for prefix in [(0, 1), (2, 9), (5, 30)]:
                scan_prefixes(spec, 6, [prefix], reduce_orbits=False)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_prefixes_partition_the_space(self):
        spec = GroupSpec((19,))
        tested, _ = scan_prefixes(spec, 3, [(i,) for i in range(7)])
        assert tested == comb(9, 3)

    @pytest.mark.parametrize("reduce_orbits", [False, True])
    def test_prefix_tasks_start_a_run_at_each_live_prefix(self, reduce_orbits):
        # The runs of Z_51 at n = 4 cover every two-pair prefix in scan
        # order, and each starts at the one prefix in it that holds a
        # candidate the orbit floors leave (all of them with the identity's
        # floors), counted here one candidate at a time.
        spec = GroupSpec((51,))
        tables = latile.search.scan_tables(spec, 4, reduce_orbits)
        floors = tuple(orbit_floors(tables.perms))
        assert (floors == tuple(range(25))) != reduce_orbits

        def weight(c, j):
            return sum(
                floors[c] == c and all(floors[k] >= c for k in (j, *rest))
                for rest in combinations(range(j + 1, 25), 2)
            )

        tasks = latile.search._prefix_tasks(tables, 4)
        assert [prefix for task in tasks for prefix in task] == list(combinations(range(23), 2))
        for task in tasks:
            weights = [weight(*prefix) for prefix in task]
            assert weights[0] > 0
            assert not any(weights[1:])

    @pytest.mark.parametrize("factors, n", [((51,), 4), ((51,), 5), ((73,), 6)])
    @pytest.mark.parametrize("reduce_orbits", [False, True])
    def test_each_run_scans_as_its_prefixes_one_by_one(
        self, monkeypatch, factors, n, reduce_orbits
    ):
        # With leaf re-verification stubbed out, so that leaves show (Z_51
        # at n = 4 has packings; n = 5 and 6 have none), every run of the
        # parallel split walks its prefixes as the scan walks each of them
        # alone: the counts add up and the solutions concatenate in prefix
        # order, and the runs together give the serial scan.  Only the
        # orbit floors leave dead prefixes to ride along in a run.
        monkeypatch.setattr(latile.search, "dual_verify_candidate", lambda *args: True)
        spec = GroupSpec(factors)
        tasks = latile.search._prefix_tasks(latile.search.scan_tables(spec, n, reduce_orbits), n)
        assert any(len(run) > 1 for run in tasks) == reduce_orbits
        total, every = 0, []
        for run in tasks:
            tested, solutions = scan_prefixes(spec, n, run, reduce_orbits=reduce_orbits)
            alone = [scan_prefixes(spec, n, [prefix], reduce_orbits=reduce_orbits) for prefix in run]
            assert tested == sum(count for count, _ in alone)
            assert solutions == [sol for _, found in alone for sol in found]
            total += tested
            every += solutions
        assert (total, every) == scan_prefixes(spec, n, [()], reduce_orbits=reduce_orbits)
        assert total == comb((spec.order - 1) // 2, n)
        assert bool(every) == (n == 4)

    def test_every_leaf_is_reached_once_in_increasing_order(self, monkeypatch):
        # The counts cannot show which pairs a node enters: every subtree
        # books its whole weight, and the orbit check drops a leaf whose
        # pairs are out of order.  So the leaves themselves are checked:
        # below every two-pair prefix of Z_51 at n = 4, unreduced, each
        # leaf the scan reaches is increasing and becomes one solution.
        monkeypatch.setattr(latile.search, "dual_verify_candidate", lambda *args: True)
        reached = []
        real = latile.search.candidate_orbit
        monkeypatch.setattr(
            latile.search,
            "candidate_orbit",
            lambda perms, candidate: reached.append(candidate) or real(perms, candidate),
        )
        spec = GroupSpec((51,))
        _, solutions = scan_prefixes(spec, 4, combinations(range(25), 2), reduce_orbits=False)
        assert reached and reached == [tuple(sorted(leaf)) for leaf in reached]
        assert reached == pair_indices_of(spec, solutions)

    @pytest.mark.parametrize("factors", [(7,), ()])
    @pytest.mark.parametrize(
        "n, message",
        [
            (1, "n must be >= 2, got 1"),
            (0, "n must be >= 2, got 0"),
            (-3, "n must be >= 2, got -3"),
            (2.0, "n must be integers, got 2.0"),
            ("3", "n must be integers, got '3'"),
        ],
    )
    def test_n_below_two_or_not_an_integer_rejected(self, factors, n, message):
        # the leaf's ball B(n,2,1,1) needs n >= 2, so any n is checked
        # before the scan starts, even where no leaf would be reached
        with pytest.raises(ValueError) as exc:
            scan_prefixes(GroupSpec(factors), n, [()])
        assert str(exc.value) == message

    @pytest.mark.parametrize("prefix", [(1, 0), (0, 0), (9,), (-1,), (0, 1, 2, 3)])
    def test_malformed_prefix_rejected(self, prefix):
        with pytest.raises(ValueError):
            scan_prefixes(GroupSpec((19,)), 3, [prefix])

    @pytest.mark.parametrize(
        "prefix, message",
        [
            ((1.0,), "prefix indices must be integers, got 1.0"),
            ((0, 2.5), "prefix indices must be integers, got 2.5"),
            (("a",), "prefix indices must be integers, got 'a'"),
        ],
    )
    def test_non_integer_prefix_index_rejected_naming_it(self, prefix, message):
        # checked before the order and range test and the table lookups
        with pytest.raises(ValueError) as exc:
            scan_prefixes(GroupSpec((19,)), 3, [prefix])
        assert str(exc.value) == message

    def test_bool_prefix_index_is_its_integer(self):
        spec = GroupSpec((19,))
        assert scan_prefixes(spec, 3, [(False, True)]) == scan_prefixes(spec, 3, [(0, 1)])

    def assert_packing_matches_ring_checker(self, monkeypatch, spec, n, prefixes, leaves):
        # With leaf re-verification stubbed out, a leaf is a solution exactly
        # when the packing step accepts it.
        monkeypatch.setattr(latile.search, "dual_verify_candidate", lambda *args: True)
        tested, solutions = scan_prefixes(spec, n, prefixes, reduce_orbits=False)
        assert tested == len(leaves)
        accepted = [tuple(sorted(map(rank_of, sol.elements))) for sol in solutions]
        passing = [
            tuple(sorted(map(rank_of, elements_of(spec, leaf))))
            for leaf in leaves
            if check_tiling_conditions(elements_of(spec, leaf), n).passed
        ]
        assert accepted == passing
        assert len(passing) == (1 if spec.order == 243 else 0)

    @pytest.mark.parametrize(
        "factors, n", [((19,), 3), ((99,), 7), ((3, 33), 7), ((3, 3, 3, 3, 3), 11)]
    )
    def test_packing_agrees_with_the_ring_checker(self, monkeypatch, factors, n):
        # Full-length prefixes, one leaf each: every candidate of Z_19, and
        # seeded random sets elsewhere, plus the Golay set and near-misses
        # with one of its pairs swapped out.
        spec = GroupSpec(factors)
        num_pairs = (spec.order - 1) // 2
        rng = random.Random(2023)
        if spec.order == 19:
            leaves = list(combinations(range(num_pairs), n))
        else:
            leaves = [tuple(sorted(rng.sample(range(num_pairs), n))) for _ in range(40)]
        if spec.order == 243:
            golay = golay_pair_indices()
            leaves.append(tuple(golay))
            for _ in range(40):
                out = rng.choice(golay)
                into = rng.choice([i for i in range(num_pairs) if i not in golay])
                leaves.append(tuple(sorted(set(golay) - {out} | {into})))
        leaves = sorted(set(leaves))
        self.assert_packing_matches_ring_checker(monkeypatch, spec, n, leaves, leaves)

    @pytest.mark.parametrize("factors, n, k", [((19,), 3, 0), ((33,), 4, 0), ((3,) * 5, 11, 10)])
    def test_scan_accepts_exactly_what_the_ring_checker_passes(self, monkeypatch, factors, n, k):
        # Every leaf below one prefix (empty, or the first k Golay pairs),
        # reached through the scan's own extension steps.
        spec = GroupSpec(factors)
        num_pairs = (spec.order - 1) // 2
        prefix = tuple(golay_pair_indices()[:k])
        start = prefix[-1] + 1 if prefix else 0
        leaves = [prefix + rest for rest in combinations(range(start, num_pairs), n - k)]
        self.assert_packing_matches_ring_checker(monkeypatch, spec, n, [prefix], leaves)

    @pytest.mark.parametrize(
        "factors, k", [((51,), 3), ((99,), 4), ((3, 33), 4), ((3, 3, 3, 3, 3), 6)]
    )
    def test_node_rule_matches_the_two_translation_reference(self, monkeypatch, factors, k):
        # Seeded increasing k-tuples, scanned with k as the scan depth so
        # that some are packings.  Full-length prefixes are tested wholly
        # at prefix depths; prefixes one pair short take one step below.
        monkeypatch.setattr(latile.search, "dual_verify_candidate", lambda *args: True)
        spec = GroupSpec(factors)
        pairs = inverse_pairs(spec)
        num_pairs = len(pairs)
        rng = random.Random(4)
        tuples = sorted({tuple(sorted(rng.sample(range(num_pairs), k))) for _ in range(30)})
        shorts = sorted({t[:-1] for t in tuples})
        for prefixes, leaves in [
            (tuples, tuples),
            (shorts, [s + (j,) for s in shorts for j in range(s[-1] + 1, num_pairs)]),
        ]:
            tested, solutions = scan_prefixes(spec, k, prefixes, reduce_orbits=False)
            assert tested == len(leaves)
            expected = [leaf for leaf in leaves if two_translation_accepts(pairs, leaf)]
            assert pair_indices_of(spec, solutions) == expected
            assert 0 < len(expected) < len(leaves)

    def test_orbit_filter_reports_one_canonical_leaf_per_orbit(self, monkeypatch):
        # Three pairs of Z_51, or of the non-cyclic Z_3 x Z_33, are a partial
        # packing often enough for the multiplier filter to meet many leaves.
        monkeypatch.setattr(latile.search, "dual_verify_candidate", lambda *args: True)
        for spec in (GroupSpec((51,)), GroupSpec((3, 33))):
            num_pairs = (spec.order - 1) // 2
            full_tested, full = scan_prefixes(spec, 3, [()], reduce_orbits=False)
            reduced_tested, reduced = scan_prefixes(spec, 3, [()], reduce_orbits=True)
            assert full_tested == reduced_tested == comb(num_pairs, 3)
            perms = pair_multiplier_permutations(spec)
            leaves = set(pair_indices_of(spec, full))
            covered = set()
            for sol, candidate in zip(reduced, pair_indices_of(spec, reduced)):
                orbit = candidate_orbit(perms, candidate)
                assert min(orbit) == candidate
                assert sol.orbit_size == len(orbit)
                covered |= orbit
            assert covered == leaves
            assert len(reduced) < len(full)

    @pytest.mark.parametrize("factors, n", [((51,), 3), ((51,), 4), ((99,), 3), ((3, 33), 3)])
    def test_orbit_floors_prune_only_non_canonical_subtrees(self, monkeypatch, factors, n):
        # With leaf re-verification stubbed out, every prefix of at most two
        # pairs still counts C(P - 1 - last, n - k) when its subtree falls to
        # an orbit floor, and the reduced scan reports exactly the orbit
        # minima among the unreduced scan's leaves below it.
        monkeypatch.setattr(latile.search, "dual_verify_candidate", lambda *args: True)
        spec = GroupSpec(factors)
        num_pairs = (spec.order - 1) // 2
        perms = pair_multiplier_permutations(spec)
        _, full = scan_prefixes(spec, n, [()], reduce_orbits=False)
        canonical = canonical_only(perms, pair_indices_of(spec, full))
        assert 0 < len(canonical) < len(full)
        for k in range(3):
            for prefix in combinations(range(num_pairs), k):
                tested, solutions = scan_prefixes(spec, n, [prefix])
                last = prefix[-1] if prefix else -1
                assert tested == comb(num_pairs - 1 - last, n - k)
                assert pair_indices_of(spec, solutions) == [
                    leaf for leaf in canonical if leaf[:k] == prefix
                ]
                for sol, leaf in zip(solutions, pair_indices_of(spec, solutions)):
                    assert sol.orbit_size == len(candidate_orbit(perms, leaf))

    def test_prefix_the_floors_leave_out_is_rejected_at_the_prefix(self, monkeypatch):
        # In Z_51 at n = 3 a multiplier maps pair 3 to pair 0, below pair 2,
        # so no canonical candidate starts (2, 3), though the unreduced scan
        # finds leaves below it.  The reduced scan drops the prefix's 21
        # candidates at the prefix and reaches no leaf's orbit test.
        monkeypatch.setattr(latile.search, "dual_verify_candidate", lambda *args: True)
        orbits = []
        real = latile.search.candidate_orbit
        monkeypatch.setattr(
            latile.search,
            "candidate_orbit",
            lambda perms, candidate: orbits.append(candidate) or real(perms, candidate),
        )
        spec = GroupSpec((51,))
        floors = tuple(orbit_floors(latile.search.scan_tables(spec, 3, True).perms))
        assert floors[2] == 2 and floors[3] < 2
        tested, leaves = scan_prefixes(spec, 3, [(2, 3)], reduce_orbits=False)
        assert tested == 21 and leaves
        orbits.clear()
        assert scan_prefixes(spec, 3, [(2, 3)]) == (21, [])
        assert orbits == []

    def test_orbit_floors_are_the_least_images(self):
        # Z_19's units act transitively on its nine pairs, so every floor is
        # pair 0; in Z_3^5 the only multiplier is the identity, so no floor
        # lies below its own pair and the reduced scan prunes nothing.
        assert orbit_floors(pair_multiplier_permutations(GroupSpec((19,)))) == [0] * 9
        for factors in [(51,), (99,), (3, 33)]:
            perms = pair_multiplier_permutations(GroupSpec(factors))
            floors = orbit_floors(perms)
            assert floors == [min(perm[j] for perm in perms) for j in range(len(floors))]
            assert any(f < j for j, f in enumerate(floors))
        # allowed[c] holds the pairs j > c whose floor is at least c, and
        # nothing when a multiplier maps c itself lower
        for factors in [(19,), (51,), (99,), (3, 33)]:
            spec = GroupSpec(factors)
            floors = orbit_floors(pair_multiplier_permutations(spec))
            allowed = latile.search.scan_tables(spec, 4, True).allowed
            assert allowed == tuple(
                tuple(j for j in range(c + 1, len(floors)) if floors[j] >= c)
                if floors[c] == c
                else ()
                for c in range(len(floors))
            )
            unreduced = latile.search.scan_tables(spec, 4, False).allowed
            assert unreduced == tuple(tuple(range(c + 1, len(floors))) for c in range(len(floors)))
        spec = GroupSpec((3, 3, 3, 3, 3))
        assert orbit_floors(pair_multiplier_permutations(spec)) == list(range(121))
        prefix = tuple(golay_pair_indices()[:6])
        assert scan_prefixes(spec, 11, [prefix]) == scan_prefixes(
            spec, 11, [prefix], reduce_orbits=False
        )

    @pytest.mark.parametrize("reduce_orbits", [False, True])
    def test_live_first_pairs_and_dead_count_make_up_the_space(self, reduce_orbits):
        # The empty prefix walks only the first pairs whose start has
        # survivors and counts every candidate below the others at once.
        # For each group of order 2n^2+1 with n = 3..8, and the seven of
        # order 243 at n = 11, those pairs are the c with starts[c] != 0,
        # all that leave n - 1 pairs after them when nothing is reduced,
        # and the two counts make up C(P, n).
        for n in [3, 4, 5, 6, 7, 8, 11]:
            for spec in enumerate_abelian_groups(2 * n * n + 1):
                tables = latile.search.scan_tables(spec, n, reduce_orbits)
                num_pairs = len(tables.pair_ranks)
                live = tuple(c for c in range(num_pairs) if tables.starts[c])
                assert tables.live == live
                if not reduce_orbits:
                    assert live == tuple(range(num_pairs - n + 1))
                below_live = sum(comb(num_pairs - 1 - c, n - 1) for c in live)
                assert tables.dead + below_live == comb(num_pairs, n)

    def test_leaf_tables_are_made_once_and_only_for_leaves(self, monkeypatch):
        # The scan tables are kept per process for each group, n and
        # reduction setting (the fixture starts this test with none), so a
        # reducing search and a later reducing scan of the same group share
        # one set of multiplier permutations, a scan without reduction never
        # makes them, and the ball is made only at the first leaf.
        balls, perms = [], []
        real_ball = latile.search.generate_ball
        real_perms = latile.search.pair_multiplier_permutations
        monkeypatch.setattr(
            latile.search, "generate_ball", lambda *args: balls.append(args) or real_ball(*args)
        )
        monkeypatch.setattr(
            latile.search,
            "pair_multiplier_permutations",
            lambda spec: perms.append(spec) or real_perms(spec),
        )
        search_tilings(5)
        scan_prefixes(GroupSpec((51,)), 5, [(i,) for i in range(21)])
        assert perms == [GroupSpec((51,))]
        search_tilings(5, reduce_orbits=False)
        scan_prefixes(GroupSpec((33,)), 4, [()], reduce_orbits=False)
        assert perms == [GroupSpec((51,))]
        assert balls == []
        spec = GroupSpec((3, 3, 3, 3, 3))
        perms.clear()
        _, solutions = scan_prefixes(spec, 11, [tuple(golay_pair_indices()[:6])])
        assert len(solutions) > 1
        assert balls == [(11, 2, 1, 1)]
        assert perms == [spec]

    @pytest.mark.parametrize("factors, n", [((51,), 4), ((51,), 5), ((3, 33), 7), ((99,), 7)])
    def test_two_worker_tasks_share_one_set_of_tables(self, monkeypatch, factors, n):
        # Every task of a 2-worker split, run in this process the way a
        # worker runs it, reads the tables the split was cut by: they are
        # made once per group, not once per task and once more for the
        # split, and the tasks together give the serial scan's count and
        # its solutions in order.  With leaf re-verification stubbed out,
        # Z_51 at n = 4 has canonical leaves to order.
        monkeypatch.setattr(latile.search, "dual_verify_candidate", lambda *args: True)
        made = []
        for helper in ("_folds", "pair_multiplier_permutations"):
            real = getattr(latile.search, helper)
            monkeypatch.setattr(
                latile.search, helper, lambda spec, real=real: made.append(spec) or real(spec)
            )
        spec = GroupSpec(factors)
        tables = latile.search.scan_tables(spec, n, True)
        tasks = latile.search._prefix_tasks(tables, n)
        outcomes = [latile.search._prefix_worker((spec, n, True, task)) for task in tasks]
        assert len(tasks) > 2
        assert made == [spec, spec]
        tested, solutions = scan_prefixes(spec, n, [()])
        assert made == [spec, spec]
        assert sum(count for count, _ in outcomes) == tested == comb((spec.order - 1) // 2, n)
        assert [sol for _, found in outcomes for sol in found] == solutions
        assert bool(solutions) == (n == 4)

    @pytest.mark.parametrize(
        "factors", [(19,), (33,), (3, 33), (5, 25), (17, 17), (3, 3, 3, 3, 3)]
    )
    def test_one_shift_translates_a_chosen_mask(self, factors):
        # For every x and seeded random sets S, the mask of S shifted by x
        # stays within the layout's bits, a radix of 2d per coordinate, and
        # folded down once per coordinate it is exactly the mask of S + x.
        spec = GroupSpec(factors)
        shifts, folds = padded_layout(spec).positions, latile.search._folds(spec)
        span = prod(2 * d for d in factors)

        def folded(mask):
            for low, shift in folds:
                mask = (mask | mask >> shift) & low
            return mask

        rng = random.Random(12)
        for _ in range(3):
            chosen = rng.sample(range(spec.order), rng.randint(1, spec.order // 3))
            mask = sum(1 << shifts[s] for s in chosen)
            for x in range(spec.order):
                translated = {
                    rank_of(add(element_at(spec, s), element_at(spec, x))) for s in chosen
                }
                shifted = mask << shifts[x]
                assert shifted >> span == 0
                assert folded(shifted) == sum(1 << shifts[t] for t in translated)

    @pytest.mark.parametrize(
        "factors", [(19,), (33,), (3, 33), (5, 25), (17, 17), (3, 3, 3, 3, 3)]
    )
    def test_fail_mask_rejects_exactly_what_the_packing_test_rejects(self, factors):
        # On seeded random packed states (S, C): S the identity and some
        # pairs, C its non-identity sums of two distinct elements, all
        # distinct.  For every unchosen y and every other unchosen z that
        # passed the node (2z not in C, S + z missing C), the fail mask of
        # the child entering y marks z exactly when the direct test rejects
        # it there: 2z in C' or S' + z meeting C', for S' = S + {y, -y} and
        # C' its sums.  The child's masks are those of S', C' and 2S', and S'/2.
        spec = GroupSpec(factors)
        positions, fold = padded_layout(spec).positions, padded_layout(spec).fold
        tables = latile.search.scan_tables(spec, 3, False)
        fail_mask, grow = tables.fail_mask, tables.grow
        ranks = range(spec.order)
        negated = dict(zip(ranks, latile.search.scaled_ranks(spec, ranks, -1)))
        halved = dict(zip(ranks, latile.search.scaled_ranks(spec, ranks, (spec.order + 1) // 2)))

        def plus(g, h):
            return fold[positions[g] + positions[h]]

        def sums(chosen):
            return [plus(s, t) for s, t in combinations(chosen, 2) if plus(s, t)]

        def bits(elements):
            return sum(1 << positions[g] for g in set(elements))

        def passes(chosen, covered, z):
            return plus(z, z) not in covered and not any(plus(s, z) in covered for s in chosen)

        rng = random.Random(35)
        pairs = list(enumerate(tables.pair_ranks))
        checked = rejected = 0
        for size in [0, 1, 1, 2, 2, 3]:
            chosen, covered = [0], set()
            for j, (x, negx) in rng.sample(pairs, len(pairs)):
                if len(chosen) > 2 * size or not passes(chosen, covered, x):
                    continue
                chosen += [x, negx]
                covered = set(sums(chosen))
            assert len(covered) == len(sums(chosen))
            masks = bits(chosen), bits([*covered, *(plus(s, s) for s in chosen)]), bits(
                halved[s] for s in chosen
            )
            live = [(j, x) for j, (x, _) in pairs if x not in chosen and passes(chosen, covered, x)]
            for y, x in live:
                child = [*chosen, x, negated[x]]
                child_covered = set(sums(child))
                fail = fail_mask(masks, y)
                for z, w in live:
                    if z != y:
                        rejects = not passes(child, child_covered, w)
                        assert bool(fail & tables.bits[z]) == rejects
                        checked, rejected = checked + 1, rejected + rejects
                assert grow(masks, y) == (
                    bits(child),
                    bits([*child_covered, *(plus(s, s) for s in child)]),
                    bits(halved[s] for s in child),
                )
        assert 0 < rejected < checked

    @pytest.mark.parametrize("factors", [(51,), (3, 15), (7, 7)])
    def test_four_pair_scan_keeps_exactly_the_packings(self, monkeypatch, factors):
        # Every four-pair set of Z_51, Z_3 x Z_15 or Z_7^2, with leaf
        # re-verification stubbed out: the leaves sit at depth 4, below the
        # first pair, where the scan inherits each node's survivors and, in
        # the last two, folds its masks on two coordinates.  The unreduced
        # scan's leaves are exactly the sets the two-translation rule
        # accepts, and the reduced scan reports exactly their orbit minima.
        monkeypatch.setattr(latile.search, "dual_verify_candidate", lambda *args: True)
        spec = GroupSpec(factors)
        pairs = inverse_pairs(spec)
        space = list(combinations(range(len(pairs)), 4))
        packings = [leaf for leaf in space if two_translation_accepts(pairs, leaf)]
        assert 0 < len(packings) < len(space) == comb((spec.order - 1) // 2, 4)
        tested, full = scan_prefixes(spec, 4, [()], reduce_orbits=False)
        assert tested == len(space)
        assert pair_indices_of(spec, full) == packings
        tested, reduced = scan_prefixes(spec, 4, [()])
        assert tested == len(space)
        perms = pair_multiplier_permutations(spec)
        assert pair_indices_of(spec, reduced) == canonical_only(perms, packings)

    def test_scan_below_five_golay_pairs_finds_its_162_tilings(self):
        # Every leaf that survives the packing is re-verified by both
        # verifiers; this scan has many, so it pins that per-leaf cost.
        spec = GroupSpec((3, 3, 3, 3, 3))
        golay = golay_pair_indices()
        started = time.perf_counter()
        tested, solutions = scan_prefixes(spec, 11, [tuple(golay[:5])], reduce_orbits=False)
        assert time.perf_counter() - started < 10
        assert tested == comb(120 - golay[4], 6)
        assert len(solutions) == 162
        assert tuple(golay) in pair_indices_of(spec, solutions)
