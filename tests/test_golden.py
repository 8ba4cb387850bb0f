"""The CLI's JSON, byte for byte, against files in tests/golden/.

Each CLI case runs `python -m latile` as a process, as a user does, and
checks its exit status as well as its stdout.  Each file is the full
stdout of one run: `latile analyze -` and `latile verify -` on the Golay
map (`latile construct golay11 | latile analyze -`, the map read from a
`construct golay11` process), on the Golay map with one image swapped and
on an n = 7 map over Z_3 x Z_33 (a non-cyclic group whose map does not
tile), `latile analyze -` on an n = 5 map over the cyclic Z_51 (no
tiling; T^(2) != T, and both congruences fail past rank 0), on an n = 11
map over Z_9 x Z_27 (no tiling; T^(2) != T, and T^(3) repeats ranks) and
on the Golay map with its second image set to its first (a code set with
a coefficient 2, reported as a code_set_error), and `latile certify -n N`
for N = 3 (a infinite), 14 (a = 26), 282 (INCONCLUSIVE, with a witness),
11 (INAPPLICABLE) and 10000014 (2n^2+1 prime, so trial division runs past
the prime table's cap).  The swapped map's verify file pins the first
collision witness and the order of the uncovered elements, and that run
exits 1, as does the Z_3 x Z_33 one.  `latile verify --ball 1,1,60,60` on
the one-image map x -> 11x into Z_121 exits 1 too; its accumulators need
a 14-bit field, wider than the verifier's 12-bit chunks.  A change that
alters one of them changes the JSON that users read.  Two refusals print
nothing on stdout: `latile analyze -` on a map whose group order is not
2n^2+1 exits 2, and `latile search -n 2000` exits 3 with "budget" on
stderr.

kernel_golay11.json is not CLI output: kernel_basis of the Golay map, of
the Golay map with one image swapped and of the n = 11 map over
Z_9 x Z_27, one map per key and one basis row per line.

scan_z3e5_golay5_n11.json is the search's positive control, not CLI
output: the 162 solutions that scan_prefixes finds below the first five
Golay pairs of Z_3^5 without orbit reduction, one as_dict() per line in
the order the scan reports them.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latile
from latile.abelian import GroupSpec
from latile.certify import certify_nonexistence
from latile.construct import golay11_tiling
from latile.search import scan_prefixes
from latile.tiling import TilingHomomorphism, kernel_basis
from helpers import naive_kernel_basis
from test_search import golay_pair_indices, golay_with_one_image_swapped

GOLDEN = Path(__file__).parent / "golden"


def z3xz33_n7_map() -> TilingHomomorphism:
    """An n = 7 map over Z_3 x Z_33 whose code set exists (its 14 images
    and their negations are distinct and non-zero); it does not tile."""
    return TilingHomomorphism.from_dict(
        {
            "n": 7,
            "group": {"invariant_factors": [3, 33]},
            "images": [[0, 1], [1, 2], [2, 5], [0, 7], [1, 11], [2, 14], [1, 20]],
        }
    )


def z51_n5_map() -> TilingHomomorphism:
    """An n = 5 map into the cyclic Z_51 whose code set exists; it does not
    tile.  Z_51 has exponent 51, so T^(2) != T and the analysis's products
    take the cross route, not the square's."""
    return TilingHomomorphism.from_dict(
        {"n": 5, "group": {"invariant_factors": [51]}, "images": [[1], [2], [3], [4], [6]]}
    )


def z9xz27_n11_map() -> TilingHomomorphism:
    """An n = 11 map into Z_9 x Z_27 whose code set exists; it does not
    tile.  Its exponent is 27, so T^(2) != T, and its images (3, 0) and
    (0, 9) have order 3, so T^(3) lists rank 0 five times."""
    return TilingHomomorphism.from_dict(
        {
            "n": 11,
            "group": {"invariant_factors": [9, 27]},
            "images": [
                [0, 1], [1, 0], [1, 1], [3, 0], [0, 9], [2, 3],
                [4, 5], [1, 7], [3, 4], [5, 11], [2, 13],
            ],
        }
    )


def golay_with_two_equal_images() -> TilingHomomorphism:
    """The Golay map with images[1] set to images[0]: its code set counts
    that image twice, so `latile analyze` reports a code_set_error."""
    phi = golay11_tiling()
    images = list(phi.images)
    images[1] = images[0]
    return TilingHomomorphism(11, phi.spec, images)


def run_latile(*argv: str, stdin: bytes = b"") -> subprocess.CompletedProcess:
    """One `python -m latile` process, run as a user runs it, with the
    latile under test first on its path."""
    path = [os.path.dirname(os.path.dirname(latile.__file__)), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-m", "latile", *argv], input=stdin, capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


@functools.cache
def constructed_golay() -> bytes:
    """The Golay map as `latile construct golay11` prints it."""
    result = run_latile("construct", "golay11")
    assert result.returncode == 0, result.stderr
    return result.stdout


def map_json(phi) -> bytes:
    """The map a case pipes in: the Golay map through `construct golay11`,
    any other as its as_dict()."""
    return constructed_golay() if phi is golay11_tiling else json.dumps(phi().as_dict()).encode()


@pytest.mark.parametrize(
    "name, phi",
    [
        ("analyze_golay11.json", golay11_tiling),
        ("analyze_golay11_one_image_swapped.json", golay_with_one_image_swapped),
        ("analyze_golay11_collision.json", golay_with_two_equal_images),
        ("analyze_z3xz33_n7.json", z3xz33_n7_map),
        ("analyze_z51_n5.json", z51_n5_map),
        ("analyze_z9xz27_n11.json", z9xz27_n11_map),
    ],
)
def test_analyze_output_is_golden(name, phi):
    result = run_latile("analyze", "-", stdin=map_json(phi))
    assert (result.returncode, result.stdout) == (0, (GOLDEN / name).read_bytes())


def z121_map() -> TilingHomomorphism:
    return TilingHomomorphism.from_dict(
        {"n": 1, "group": {"invariant_factors": [121]}, "images": [[11]]}
    )


@pytest.mark.parametrize(
    "name, phi, exit_code",
    [
        ("verify_golay11.json", golay11_tiling, 0),
        ("verify_golay11_one_image_swapped.json", golay_with_one_image_swapped, 1),
        ("verify_z3xz33_n7.json", z3xz33_n7_map, 1),
    ],
)
def test_verify_output_is_golden(name, phi, exit_code):
    result = run_latile("verify", "-", stdin=map_json(phi))
    assert (result.returncode, result.stdout) == (exit_code, (GOLDEN / name).read_bytes())


def test_verify_with_a_14_bit_field_is_golden():
    result = run_latile("verify", "--ball", "1,1,60,60", "-", stdin=map_json(z121_map))
    golden = (GOLDEN / "verify_z121_wide_field.json").read_bytes()
    assert (result.returncode, result.stdout) == (1, golden)


@pytest.mark.parametrize("n", [3, 11, 14, 282, 10000014])
def test_certify_output_is_golden(n):
    result = run_latile("certify", "-n", str(n))
    assert (result.returncode, result.stdout) == (0, (GOLDEN / f"certify_n{n}.json").read_bytes())


def test_analyze_refuses_an_order_other_than_2n2_plus_1():
    z7_n3 = {"n": 3, "group": {"invariant_factors": [7]}, "images": [[1], [2], [4]]}
    result = run_latile("analyze", "-", stdin=json.dumps(z7_n3).encode())
    assert (result.returncode, result.stdout) == (2, b"")


def test_search_refuses_a_count_too_long_to_print():
    result = run_latile("search", "-n", "2000")
    assert (result.returncode, result.stdout) == (3, b"")
    assert b"budget" in result.stderr


@pytest.mark.parametrize("n", [3, 14, 282])
def test_certificate_dict_equals_its_golden_json(n):
    """as_dict() gives lists where the JSON has arrays, not tuples."""
    golden = json.loads((GOLDEN / f"certify_n{n}.json").read_text())
    assert certify_nonexistence(n).as_dict() == golden


def test_scan_below_five_golay_pairs_is_golden():
    """The planted positive control: all 162 tilings below the first five
    Golay pairs of Z_3^5, unreduced, as the scan reports them, in order."""
    golay = golay_pair_indices()
    assert golay[:5] == [0, 1, 5, 18, 39]
    _, solutions = scan_prefixes(GroupSpec((3,) * 5), 11, [tuple(golay[:5])], reduce_orbits=False)
    golden = (GOLDEN / "scan_z3e5_golay5_n11.json").read_text()
    assert len(json.loads(golden)) == 162
    # one solution's as_dict() per line, keys sorted
    lines = ",\n".join(json.dumps(sol.as_dict(), sort_keys=True) for sol in solutions)
    assert f"[\n{lines}\n]\n" == golden


def test_kernel_bases_are_golden():
    """kernel_basis of three n = 11 maps, one basis row per line."""
    maps = [
        ("golay11", golay11_tiling()),
        ("golay11_one_image_swapped", golay_with_one_image_swapped()),
        ("z9xz27_n11", z9xz27_n11_map()),
    ]
    lines = ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(map(json.dumps, kernel_basis(phi))) + "\n]"
        for name, phi in maps
    )
    golden = (GOLDEN / "kernel_golay11.json").read_text()
    assert f"{{\n{lines}\n}}\n" == golden
    assert json.loads(golden) == {name: naive_kernel_basis(phi) for name, phi in maps}
