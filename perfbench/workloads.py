"""The three benchmark workloads and their input generators.

Each workload exercises a different group of `src/latile` modules:

- search-n7: `search_tilings(7)` with the CLI defaults, once serial and once
  with two workers, checked and timed; then serial `search_tilings(5)` and
  `search_tilings(4)` over a hundred passes, for the bounded metrics.  The
  search engine does nearly all of the work; the certificate and analysis
  modules do none.  Order 99 includes the non-cyclic Z_3 x Z_33, and the
  two-worker run exercises chunk splitting, fork and the ordered merge.
- certify-sweep: `certify_nonexistence(n)` for n = 3..1000, then
  `validate_certificate` on every certificate.  Only `certify` works here.
  The builder and the validator share the same O(p) arithmetic, so they are
  timed apart: a change that speeds one at the cost of the other shows.
  The range stops at 1000 because the validator's a-scan makes n <= 2000
  take several minutes.
- map-pipeline: a seeded stream of homomorphisms pushed through the calls
  `latile verify` and `latile analyze` make, plus `kernel_basis`, and
  in-process `construct golay11 -o f` / `verify f` round trips.  `ball`,
  `tiling`, `groupring`, `analysis`, `construct` and `cli` work here;
  `search` and `certify` do not.  Accepted and rejected maps take different
  paths through the verifier and the checker, so latency is kept per class.

Every workload reports two timed jobs, a and b, made of operations:

    workload        job a                          job b
    search-n7       serial search_tilings(5)       serial search_tilings(4)
    certify-sweep   certify_nonexistence, per n    validate_certificate, per certificate
    map-pipeline    golay maps, per map            near_miss maps, per map

On a machine shared with other tenants, their load can slow every core by
up to 2x for seconds or minutes at a time, so raw times move between runs
far more than any bound a regression test can use.  The end-to-end times
are therefore given in units of a fixed loop (`Reference`) that is timed
between operations all through the run.  Each workload names the loop whose
speed follows its own under load: modular powers for certify-sweep;
tuples, dicts and frozen dataclasses for search-n7 and map-pipeline.  Each
execution of an operation is divided by the median of the loop samples
taken just before and after it, and an operation's time is the median of
those ratios over its executions.  Executions and samples that close in
time fall in the same speed regime, so the ratio stays put while the
seconds move.  The seconds are printed as well.  (setup_s is normalised
the same way, by `ReferenceImport` and the workload's loop; see run.py.)
Jobs make several passes over their operations; because operations repeat,
a cache keyed on the inputs would be rewarded here although a one-shot user
would never hit it.

Inputs come from the seed alone and are built before timing starts; the
program only ever sees the generated maps.  search-n7 and certify-sweep are
deterministic: the seed does not change their inputs.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import os
import random
import resource
import statistics
import sys
import traceback
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from math import comb, inf
from time import perf_counter, process_time
from typing import NamedTuple

from tracer import Tracer


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_level(count: int) -> float:
    """The highest quantile with ten operations beyond it; the maximum below 100."""
    return 1.0 - 10.0 / count if count >= 100 else 1.0


def _reference_loop() -> int:
    """Modular powers of small integers, each making fresh int objects.

    On a shared 2-vCPU machine, measured in 4 s windows over eight minutes,
    the logarithms of the search, builder and validator times moved 0.8 to
    1.1 times as much as this loop's.  Against a dict-and-list loop over
    small cached ints they moved only 0.5 to 0.7 times as much, so ratios to
    that loop rose whenever the machine sped up.
    """
    total = 0
    for k in range(600):
        total += pow(4, k * 3001, 1000003)
    return total


@dataclass(frozen=True)
class _Residues:
    """A stand-in for a group element: frozen, hashed, made afresh per sum."""

    moduli: tuple
    residues: tuple


def _object_reference_loop() -> int:
    """Counting tuple keys in a dict, and sums of frozen elements of Z_3^5.

    map-pipeline spends its time making frozen dataclasses, tuples and dict
    entries, and other tenants' load moves its speed with that of this loop,
    not with `_reference_loop`: over fifty 3 s windows on a shared 2-vCPU
    machine, the log of the map times divided by this loop's time varied
    with standard deviation 0.03-0.05, and by `_reference_loop`'s 0.10.
    """
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13, i % 7)
        counts[key] = counts.get(key, 0) + 1
    scaled = [tuple((x * 3) % 11 for x in key) for key in counts]
    moduli = (3, 3, 3, 3, 3)
    gens = [_Residues(moduli, tuple((i * j + 1) % 3 for j in range(5))) for i in range(11)]
    acc = _Residues(moduli, (0,) * 5)
    seen: dict = {}
    for k in range(600):
        g = gens[k % 11]
        acc = _Residues(moduli, tuple((a + b) % q for a, b, q in zip(acc.residues, g.residues, moduli)))
        seen[acc] = seen.get(acc, 0) + 1
    return len(scaled) + len(seen)


class Timing(NamedTuple):
    """One execution of an operation: its seconds and when it started."""

    seconds: float
    start: float


class Reference:
    """Times operations, sampling a reference loop between them.

    Before an operation, the loop runs once if the last sample is older
    than `interval` seconds.  `unit` is the median sample.  An execution is
    given in units of the loop by `units`, against the median of the
    WINDOW samples just before it started and the WINDOW just after:
    other tenants' load changes within a run too, and over 20 s stretches
    of map-pipeline this local unit spread the normalised totals about five
    times less than the run's median sample did.
    """

    WINDOW = 3

    def __init__(self, loop, interval: float):
        self.loop = loop
        self.interval = interval
        self.samples: list[float] = []
        self.stamps: list[float] = []
        self.due = 0.0

    def time(self, fn):
        """Run fn once; return its result and its Timing."""
        if perf_counter() >= self.due:
            start = perf_counter()
            self.loop()
            self.stamps.append(start)
            self.samples.append(perf_counter() - start)
            self.due = perf_counter() + self.interval
        start = perf_counter()
        result = fn()
        return result, Timing(perf_counter() - start, start)

    @property
    def unit(self) -> float:
        return statistics.median(self.samples)

    def units(self, timing: Timing) -> float:
        """The execution's time over the median of the samples around it."""
        j = bisect_right(self.stamps, timing.start)
        near = self.samples[max(0, j - self.WINDOW):j + self.WINDOW]
        return timing.seconds / statistics.median(near)

    def op_units(self, ops: list[list[Timing]]) -> list[float]:
        """Each operation's time in units of the loop: the median of its executions."""
        return [statistics.median(self.units(t) for t in times) for times in ops]


def _reference_module_source() -> str:
    """Source of a module shaped like latile's: frozen dataclasses and
    loop-heavy functions, so importing it compiles and runs the same kinds
    of code as importing latile."""
    parts = ["from dataclasses import dataclass\n"]
    for i in range(6):
        parts.append(
            f"@dataclass(frozen=True)\n"
            f"class Record{i}:\n"
            f"    n: int\n"
            f"    residues: tuple\n"
            f"    label: str = ''\n\n"
            f"    def total(self) -> int:\n"
            f"        return sum(r * {i + 1} for r in self.residues) % (self.n or 1)\n"
        )
    for i in range(40):
        parts.append(
            f"def scan{i}(values, n):\n"
            f"    counts = {{}}\n"
            f"    for k, x in enumerate(values):\n"
            f"        if x % {i + 2} == 0:\n"
            f"            counts[k] = [y * {i} for y in range(n) if y != x]\n"
            f"        elif x > n:\n"
            f"            counts.setdefault(x, []).append(tuple(sorted(values)))\n"
            f"        else:\n"
            f"            counts[x] = counts.get(x, 0) if isinstance(counts.get(x), int) else 0\n"
            f"    return {{k: v for k, v in counts.items() if v}}\n"
        )
    return "\n\n".join(parts)


class ReferenceImport:
    """Imports a fresh copy of a generated module; the reference for set-up.

    Set-up is mostly importing latile: reading its source, compiling it
    unless a bytecode cache is used, running the module bodies and making
    their dataclasses.  The generated module is written next to the run's
    output and imported from there through the same loader, so it is
    compiled or read from cache exactly when latile is, and other tenants'
    load slows both alike.
    """

    NAME = "perfbench_reference_module"

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, self.NAME + ".py")
        source = _reference_module_source()
        try:
            with open(self.path) as fh:
                current = fh.read()
        except OSError:
            current = None
        if current != source:  # rewriting would invalidate a bytecode cache
            with open(self.path, "w") as fh:
                fh.write(source)

    def __call__(self) -> float:
        """CPU seconds of two fresh imports."""
        start = process_time()
        for _ in range(2):
            spec = importlib.util.spec_from_file_location(self.NAME, self.path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[self.NAME] = module  # dataclasses look their module up here
            try:
                spec.loader.exec_module(module)
            finally:
                del sys.modules[self.NAME]
        return process_time() - start


def loop_cpu(loop) -> float:
    """Mean CPU seconds of one run of a reference loop, over three runs."""
    start = process_time()
    for _ in range(3):
        loop()
    return (process_time() - start) / 3


def op_seconds(ops: list[list[Timing]]) -> list[float]:
    """Each operation's time in seconds: the median of its executions."""
    return [statistics.median(t.seconds for t in times) for times in ops]


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.fail(f"{what}: {'; '.join(problems)}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)
            print(f"perfbench: FAILED {message}", file=sys.stderr)

    def error(self, what: str) -> None:
        """An operation raised: count it as attempted and failed, keep the traceback."""
        self.attempted += 1
        self.fail(f"{what} raised\n{traceback.format_exc()}")


def _span_ms_p50(tracer: Tracer, name: str, tag=None) -> float:
    return quantile(tracer.durations(name, tag), 0.5) * 1e3


# --------------------------------------------------------------------------
# search-n7


class _GroupTimer:
    """The `progress` callback of a serial search: time per group, from the
    call's start to each group's report."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.mark = 0.0
        self.seconds: dict[str, float] = {}

    def __call__(self, line: str) -> None:
        now = perf_counter()
        key = line.split(":", 1)[0].replace("_", "").replace(" ", "")
        self.seconds[key] = now - self.mark
        if self.tracer.enabled:
            self.tracer.record("search.group", self.mark, now, key)
        self.mark = now


class SearchN7:
    name = "search-n7"
    workers = {"serial": 1, "parallel": 2}
    # In two sets of fifty 3 s windows, search times over this loop's varied
    # a little less than over `_reference_loop` (log standard deviations
    # 0.03-0.06 against 0.04-0.07).
    reference_loop = staticmethod(_object_reference_loop)
    reference_loop_s = 0.0078  # about its median time inside runs, for setup_s
    # Calls take 10-100 ms, so a sample before each is cheap and keeps
    # the samples around every execution close in time.
    reference_interval = 0.0
    # candidates_tested per group is C(n^2, n); orders 33 and 51 have one
    # group each, order 99 has two (Z_3 x Z_33 and Z_99).
    _EXPECTED = {4: (comb(16, 4),), 5: (comb(25, 5),), 7: (comb(49, 7), comb(49, 7))}
    group_keys = ("Z3xZ33", "Z99")

    def prepare(self, lt, opts, tracer, tag):
        if opts.smoke:
            return {"exhaust_n": 4, "timed_n": (4, 4), "passes": 2}
        # n = 7 takes 20 s, too long to time against other tenants' load;
        # n = 5 and n = 4 calls are short enough to repeat and normalise.  A
        # 2-worker call also waits on the second core, which the reference
        # loop does not sample, so 2-worker times are printed, not bounded.
        return {"exhaust_n": 7, "timed_n": (5, 4), "passes": 100}

    def _search(self, lt, tracer, tally, ref, n, threads, groups=None, reference=None):
        """One checked call; returns the result and its Timing, or (None, None) if it raised."""
        what = f"search_tilings({n}, threads={threads})"
        kwargs = {"threads": threads}
        if groups is not None:
            kwargs["progress"] = groups

        def call():
            if groups is not None:
                groups.mark = perf_counter()
            return tracer.call(
                "search.search_tilings", f"n={n},threads={threads}", lt.search_tilings, n, **kwargs
            )

        try:
            result, timing = ref.time(call)
        except Exception:
            tally.error(what)
            return None, None
        problems = []
        expected = self._EXPECTED[n]
        if result.candidates_tested != expected:
            problems.append(f"candidates_tested {result.candidates_tested} != {expected}")
        if result.solutions:
            problems.append(f"{len(result.solutions)} solutions, expected none")
        if reference is not None:
            ours, theirs = result.as_dict(), reference.as_dict()
            ours.pop("meta")
            theirs.pop("meta")
            if ours != theirs:
                problems.append("2-worker output differs from the serial output")
        tally.check(what, problems)
        return result, timing

    def run(self, lt, inputs, tracer, tally, ref):
        groups = _GroupTimer(tracer)
        n = inputs["exhaust_n"]
        serial, exhaust_serial = self._search(lt, tracer, tally, ref, n, 1, groups)
        _, exhaust_parallel = self._search(lt, tracer, tally, ref, n, 2, reference=serial)

        times = {m: [] for m in inputs["timed_n"]}
        for _ in range(inputs["passes"]):
            for m in inputs["timed_n"]:
                _, timing = self._search(lt, tracer, tally, ref, m, 1)
                if timing is not None:
                    times[m].append(timing)
        a, b = inputs["timed_n"]
        return {
            "a_ops": [times[a]],
            "b_ops": [times[b]],
            "exhaust_serial": exhaust_serial.seconds if exhaust_serial is not None else inf,
            "exhaust_parallel": exhaust_parallel.seconds if exhaust_parallel is not None else inf,
            "group_times": groups.seconds,
            "candidates": sum(self._EXPECTED[n]),
        }

    def named_metrics(self, reps, median):
        serial = median([r["exhaust_serial"] for r in reps])
        return {
            "search_serial_s": (serial, "s"),
            "search_2w_s": (median([r["exhaust_parallel"] for r in reps]), "s"),
            "search.group_sum_gap_frac": (
                abs(median([sum(r["group_times"].values()) for r in reps]) - serial) / serial,
                "ratio",
            ),
        }

    def layer_metrics(self, lt, inputs, tracer, reps, median):
        serial = median([r["exhaust_serial"] for r in reps])
        metrics = {
            f"search.group_s.{key}": median([r["group_times"].get(key, 0.0) for r in reps])
            for key in self.group_keys
        }
        metrics["search.candidates_per_s"] = reps[0]["candidates"] / serial
        metrics["search.parallel_speedup"] = serial / median(
            [r["exhaust_parallel"] for r in reps]
        )
        # Peak of any waited-for child: the 2-worker runs' pool processes.
        metrics["search.children_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        return metrics


# --------------------------------------------------------------------------
# certify-sweep


class CertifySweep:
    name = "certify-sweep"
    workers = {"serial": 1}
    reference_loop = staticmethod(_reference_loop)
    reference_loop_s = 0.0012  # about its median time inside runs, for setup_s
    reference_interval = 0.05
    _EXPECTED = {
        1000: (
            {"NONEXISTENCE": 752, "INAPPLICABLE": 239, "INCONCLUSIVE": 7},
            {282, 312, 434, 442, 517, 684, 714},
        ),
        60: ({"NONEXISTENCE": 45, "INAPPLICABLE": 13}, set()),
    }

    def prepare(self, lt, opts, tracer, tag):
        return {"last": 60 if opts.smoke else 1000, "build_passes": 2}

    def run(self, lt, inputs, tracer, tally, ref):
        last = inputs["last"]
        expected_totals, expected_open = self._EXPECTED[last]
        build_times: dict[int, list[float]] = {}
        validate_ops = []
        verdicts: Counter = Counter()
        for pass_index in range(inputs["build_passes"]):
            for n in range(3, last + 1):
                try:
                    cert, timing = ref.time(
                        lambda: tracer.call(
                            "certify.certify_nonexistence", "", lt.certify_nonexistence, n
                        )
                    )
                except Exception:
                    tally.error(f"certify_nonexistence({n})")
                    continue
                build_times.setdefault(n, []).append(timing)
                if pass_index:
                    continue  # later passes only time the builder again
                conclusion = "INAPPLICABLE" if cert is None else cert.conclusion
                verdicts[conclusion] += 1
                tally.check(
                    f"certify_nonexistence({n})",
                    []
                    if (conclusion == "INCONCLUSIVE") == (n in expected_open)
                    else [f"conclusion {conclusion} against the known INCONCLUSIVE set"],
                )
                if cert is None:
                    continue
                try:
                    problems, timing = ref.time(
                        lambda: tracer.call(
                            "certify.validate_certificate", "", lt.validate_certificate, cert
                        )
                    )
                except Exception:
                    tally.error(f"validate_certificate(n={n})")
                    continue
                validate_ops.append([timing])
                tally.check(f"validate_certificate(n={n})", problems)
        if dict(verdicts) != expected_totals:
            tally.fail(f"verdict totals {dict(verdicts)} != {expected_totals}")
        return {"a_ops": list(build_times.values()), "b_ops": validate_ops}

    def named_metrics(self, reps, median):
        return {
            "certify_sweep_s": (median([sum(op_seconds(r["a_ops"])) for r in reps]), "s"),
            "validate_sweep_s": (median([sum(op_seconds(r["b_ops"])) for r in reps]), "s"),
        }

    def layer_metrics(self, lt, inputs, tracer, reps, median):
        # The builder's parameters are internal to certify_nonexistence, so
        # they are timed by calling the public pieces again from outside,
        # over every admissible prime.
        for n in range(3, inputs["last"] + 1):
            primes = tracer.call("certify.admissible_primes", "probe", lt.admissible_primes, n)
            for p in primes:
                tracer.call(
                    "certify.certificate_parameters", "probe", lt.certificate_parameters, n, p
                )
        build = [x for r in reps for x in op_seconds(r["a_ops"])]
        validate = [x for r in reps for x in op_seconds(r["b_ops"])]
        return {
            "certify.admissible_primes_s": sum(tracer.durations("certify.admissible_primes")),
            "certify.parameters_s": sum(tracer.durations("certify.certificate_parameters")),
            "certify.build_p50_ms": quantile(build, 0.5) * 1e3,
            "certify.build_p99_ms": quantile(build, 0.99) * 1e3,
            "certify.validate_p50_ms": quantile(validate, 0.5) * 1e3,
            "certify.validate_p99_ms": quantile(validate, 0.99) * 1e3,
        }


# --------------------------------------------------------------------------
# map-pipeline

# Columns of the parity-check matrix of the ternary Golay [11, 6, 5] code:
# the images of the standard basis under the order-243 tiling of Z^11.  Kept
# here as reference data so that `construct golay11` is checked against an
# independent copy.
GOLAY11_COLUMNS = (
    (1, 0, 0, 0, 0), (2, 1, 0, 0, 0), (2, 2, 1, 0, 0), (2, 2, 2, 1, 0),
    (1, 2, 2, 2, 1), (0, 1, 2, 2, 2), (1, 0, 1, 2, 2), (0, 1, 0, 1, 2),
    (0, 0, 1, 0, 1), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
)

# Invariant factors of every abelian group of order 2n^2 + 1.
GROUPS_BY_N = {
    5: ((51,),),
    6: ((73,),),
    7: ((3, 33), (99,)),
    11: (
        (3, 3, 3, 3, 3), (3, 3, 3, 9), (3, 3, 27), (3, 9, 9), (3, 81), (9, 27), (243,),
    ),
}

MAP_CLASSES = ("golay", "near_miss", "random")

# (metric prefix, span name) for the per-class layer timings.
_MAP_LAYER_CALLS = (
    ("tiling.verify_ms", "tiling.verify_tiling"),
    ("tiling.kernel_basis_ms", "tiling.kernel_basis"),
    ("groupring.check_conditions_ms", "groupring.check_tiling_conditions"),
    ("analysis.spectrum_ms", "analysis.spectrum_identity_checks"),
    ("analysis.cube_ms", "analysis.cube_multiplicity_check"),
    ("analysis.congruence_ms", "analysis.congruence_check"),
    ("construct.check_pds_ms", "construct.check_pds"),
)


def _invertible_mod3(rows) -> bool:
    m = [list(r) for r in rows]
    size = len(m)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] % 3), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 if m[col][col] % 3 == 1 else 2
        for r in range(col + 1, size):
            f = m[r][col] * inv % 3
            m[r] = [(x - f * y) % 3 for x, y in zip(m[r], m[col])]
    return True


def golay_variant(rng: random.Random) -> list[tuple[int, ...]]:
    """The Golay images moved by a random automorphism of Z_3^5, with the
    basis permuted and some images negated.  Still a tiling."""
    while True:
        matrix = [[rng.randrange(3) for _ in range(5)] for _ in range(5)]
        if _invertible_mod3(matrix):
            break
    images = [
        tuple(sum(row[k] * col[k] for k in range(5)) % 3 for row in matrix)
        for col in GOLAY11_COLUMNS
    ]
    rng.shuffle(images)
    return [tuple((-x) % 3 for x in g) if rng.random() < 0.5 else g for g in images]


def near_miss_variant(rng: random.Random) -> list[tuple[int, ...]]:
    """A Golay variant with one image replaced.  The replacement avoids 0 and
    every +-image, so the code set still exists and the full suite runs; every
    such replacement breaks bijectivity on the ball."""
    images = golay_variant(rng)
    taken = {(0,) * 5}
    for g in images:
        taken.add(g)
        taken.add(tuple((-x) % 3 for x in g))
    while True:
        replacement = tuple(rng.randrange(3) for _ in range(5))
        if replacement not in taken:
            break
    images[rng.randrange(len(images))] = replacement
    return images


def generate_stream(seed: int, per_class: int, cli_trips: int) -> list[tuple]:
    """(class, n, invariant factors, images) items, shuffled; `cli` items are round trips.

    golay and near_miss get `per_class` maps each, enough for a tail with
    ten maps beyond it; random maps only feed a median, so they get half.
    """
    rng = random.Random(seed)
    golay_factors = (3, 3, 3, 3, 3)
    items = [("golay", 11, golay_factors, golay_variant(rng)) for _ in range(per_class)]
    items += [("near_miss", 11, golay_factors, near_miss_variant(rng)) for _ in range(per_class)]
    combos = [(n, factors) for n, groups in GROUPS_BY_N.items() for factors in groups]
    for i in range(per_class // 2):
        n, factors = combos[i % len(combos)]
        images = [tuple(rng.randrange(d) for d in factors) for _ in range(n)]
        items.append(("random", n, factors, images))
    items += [("cli", 0, (), [])] * cli_trips
    rng.shuffle(items)
    return items


class MapPipeline:
    name = "map-pipeline"
    workers = {"serial": 1}
    reference_loop = staticmethod(_object_reference_loop)
    reference_loop_s = 0.0078  # about its median time inside runs, for setup_s
    reference_interval = 0.05

    def prepare(self, lt, opts, tracer, tag):
        per_class, cli_trips, passes = (12, 3, 2) if opts.smoke else (120, 10, 5)
        raw = generate_stream(opts.seed, per_class, cli_trips)
        specs = {}
        stream = []
        for cls, n, factors, images in raw:
            if cls == "cli":
                stream.append((cls, None))
                continue
            if factors not in specs:
                specs[factors] = tracer.call("abelian.GroupSpec", tag, lt.GroupSpec, factors)
            spec = specs[factors]
            elements = tracer.call(
                "abelian.GroupElement", tag,
                lambda: tuple(lt.GroupElement(spec, g) for g in images),
            )
            phi = tracer.call(
                "tiling.TilingHomomorphism", tag, lt.TilingHomomorphism, n, spec, elements
            )
            stream.append((cls, phi))
        balls = {
            n: tracer.call("ball.generate_ball", tag, lt.generate_ball, n, 2, 1, 1)
            for n in GROUPS_BY_N
        }
        golay_dict = {
            "n": 11,
            "group": {"invariant_factors": [3, 3, 3, 3, 3]},
            "images": [list(col) for col in GOLAY11_COLUMNS],
        }
        return {
            "stream": stream,
            "balls": balls,
            "golay_dict": golay_dict,
            "out_dir": opts.out_dir,
            "passes": passes,
        }

    def run(self, lt, inputs, tracer, tally, ref):
        balls = inputs["balls"]
        stream = inputs["stream"]
        times: list[list[Timing]] = [[] for _ in stream]
        outcomes = Counter()
        path = os.path.join(inputs["out_dir"], f"golay11-{os.getpid()}.json")
        try:
            for pass_index in range(inputs["passes"]):
                for i, (cls, phi) in enumerate(stream):
                    try:
                        if cls == "cli":
                            (rcs, text), timing = ref.time(
                                lambda: tracer.call(
                                    "bench.cli_roundtrip", "", _cli_roundtrip, lt, tracer, path
                                )
                            )
                        else:
                            result, timing = ref.time(
                                lambda: tracer.call(
                                    "bench.map", cls, _pipeline, lt, tracer, cls, phi, balls[phi.n]
                                )
                            )
                    except Exception:
                        tally.error(f"{cls} operation")
                        continue
                    times[i].append(timing)
                    if cls == "cli":
                        tally.check("cli round trip", _check_cli(path, rcs, text, inputs["golay_dict"]))
                        continue
                    tally.check(f"{cls} map {phi.as_dict()}", _check_map(lt, cls, phi, result))
                    if pass_index == 0:
                        outcomes["maps"] += 1
                        outcomes["codeset_rejected"] += result["code"] is None
                        outcomes["accepted"] += result["report"].bijective
        finally:
            if os.path.exists(path):
                os.remove(path)
        ops = {cls: [] for cls in (*MAP_CLASSES, "cli")}
        for (cls, _), op_times in zip(stream, times):
            if op_times:
                ops[cls].append(op_times)
        return {
            "a_ops": ops["golay"],
            "b_ops": ops["near_miss"],
            "random_ops": ops["random"],
            "cli_ops": ops["cli"],
            "outcomes": outcomes,
        }

    def named_metrics(self, reps, median):
        def ms(key, q):
            return median([quantile(op_seconds(r[key]), q) for r in reps]) * 1e3, "ms"

        maps_per_s = median(
            [
                r["outcomes"]["maps"]
                / sum(sum(op_seconds(r[k])) for k in ("a_ops", "b_ops", "random_ops"))
                for r in reps
            ]
        )
        return {
            "maps_per_s": (maps_per_s, "1/s"),
            "golay_p50_ms": ms("a_ops", 0.5),
            "near_miss_p50_ms": ms("b_ops", 0.5),
            "random_p50_ms": ms("random_ops", 0.5),
            "cli_roundtrip_ms": ms("cli_ops", 0.5),
        }

    def layer_metrics(self, lt, inputs, tracer, reps, median):
        # T*T at n = 11 and the construction itself are internal to the
        # pipeline calls, so they are timed by calling them from outside.
        for phi in (phi for cls, phi in inputs["stream"] if cls == "golay"):
            code = lt.as_code_set(lt.induced_code_set(phi))
            tracer.call("groupring.multiply", "probe", lt.multiply, code, code)
        for _ in range(200):
            tracer.call("construct.golay11_tiling", "probe", lt.golay11_tiling)

        metrics = {}
        for prefix, span in _MAP_LAYER_CALLS:
            for cls in MAP_CLASSES:
                metrics[f"{prefix}.{cls}"] = _span_ms_p50(tracer, span, cls)
        # One ball-cache fill per set-up, tagged by set-up.
        setups = {t for n, t in zip(tracer.names, tracer.tags) if n == "ball.generate_ball"}
        metrics["ball.generate_ms"] = 1e3 * median(
            [sum(tracer.durations("ball.generate_ball", tag)) for tag in setups]
        )
        metrics["groupring.multiply_ms"] = _span_ms_p50(tracer, "groupring.multiply")
        metrics["construct.golay11_ms"] = _span_ms_p50(tracer, "construct.golay11_tiling")
        metrics["cli.construct_ms"] = _span_ms_p50(tracer, "cli.main", "construct")
        metrics["cli.verify_ms"] = _span_ms_p50(tracer, "cli.main", "verify")
        outcomes = Counter()
        for r in reps:
            outcomes.update(r["outcomes"])
        metrics["map.maps"] = outcomes["maps"]
        metrics["map.codeset_reject_frac"] = outcomes["codeset_rejected"] / outcomes["maps"]
        metrics["map.accept_frac"] = outcomes["accepted"] / outcomes["maps"]
        return metrics


def _pipeline(lt, tracer, cls, phi, ball) -> dict:
    """The calls `latile verify` and `latile analyze` make, plus kernel_basis."""
    call = tracer.call
    n = phi.n
    result = {
        "report": call("tiling.verify_tiling", cls, lt.verify_tiling, phi, ball),
        "basis": call("tiling.kernel_basis", cls, lt.kernel_basis, phi),
        "code": None,
    }
    raw = call("tiling.induced_code_set", cls, lt.induced_code_set, phi)
    try:
        code = call("groupring.as_code_set", cls, lt.as_code_set, raw)
    except ValueError:
        return result  # `latile analyze` stops here with a code_set_error
    result["code"] = code
    result["conditions"] = call(
        "groupring.check_tiling_conditions", cls, lt.check_tiling_conditions, code, n
    )
    result["spectrum"] = call(
        "analysis.spectrum_identity_checks", cls, lt.spectrum_identity_checks, code, n
    )
    result["cube"] = call(
        "analysis.cube_multiplicity_check", cls, lt.cube_multiplicity_check, code
    )
    result["congruences"] = call("analysis.congruence_check", cls, lt.congruence_check, code, n)
    starred = call("groupring.star", cls, lt.star, code)
    params = lt.PdsParameters(2 * n * n + 1, 2 * n, 1, 2)
    result["pds"] = call("construct.check_pds", cls, lt.check_pds, starred, params)
    return result


def _check_map(lt, cls, phi, result) -> list[str]:
    problems = []
    bijective = result["report"].bijective
    if result["code"] is None:
        if bijective:
            problems.append("as_code_set refused a map the verifier accepts")
        if cls != "random":
            problems.append("code set refused, but this class always has one")
        return problems
    passed = result["conditions"].passed
    if bijective != passed:
        problems.append(f"verify_tiling says {bijective}, check_tiling_conditions says {passed}")
    if cls == "golay" and not (bijective and passed):
        problems.append("Golay map rejected")
    if cls == "near_miss" and bijective:
        problems.append("near-miss map accepted")
    if bijective:
        order = phi.spec.order
        det = abs(lt.kernel_determinant(result["basis"]))
        if det != order:
            problems.append(f"|det kernel_basis| = {det} != |G| = {order}")
        if not result["spectrum"].all_hold:
            problems.append("spectrum identities fail on a tiling")
        if not result["cube"].matches:
            problems.append("cube multiplicity fails on a tiling")
        if not result["congruences"].all_hold:
            problems.append("mod-3 congruences fail on a tiling")
    if cls == "golay" and not result["pds"].passed:
        problems.append("star(T) of a Golay map is not a (243, 22, 1, 2) PDS")
    return problems


def _cli_roundtrip(lt, tracer, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc_construct = tracer.call(
            "cli.main", "construct", lt.cli.main, ["construct", "golay11", "-o", path]
        )
        rc_verify = tracer.call("cli.main", "verify", lt.cli.main, ["verify", path])
    return (rc_construct, rc_verify), out.getvalue()


def _check_cli(path, rcs, text, golay_dict) -> list[str]:
    problems = []
    if rcs != (0, 0):
        problems.append(f"exit codes {rcs}, expected (0, 0)")
    with open(path) as fh:
        if json.load(fh) != golay_dict:
            problems.append("construct golay11 wrote a map other than the Golay map")
    try:
        if json.loads(text).get("bijective") is not True:
            problems.append("verify did not report bijective")
    except ValueError:
        problems.append("verify printed no JSON")
    return problems


WORKLOADS = {w.name: w for w in (SearchN7(), CertifySweep(), MapPipeline())}
