"""Shared test utilities: reference oracles and input generators."""

from latile.abelian import (
    GroupSpec,
    decode_rank,
    encode_residues,
    enumerate_abelian_groups,
)
from latile.groupring import GroupRingElement


def naive_multiply(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Reference convolution: the full |G|^2 double loop, no support tricks."""
    spec = a.spec
    factors = spec.invariant_factors
    decoded = [decode_rank(spec, r) for r in range(spec.order)]
    out = [0] * spec.order
    for ta, ca in zip(decoded, a.coefficients):
        for tb, cb in zip(decoded, b.coefficients):
            s = tuple((x + y) % d for x, y, d in zip(ta, tb, factors))
            out[encode_residues(spec, s)] += ca * cb
    return GroupRingElement(spec, tuple(out))


def naive_power_map(a: GroupRingElement, t: int) -> GroupRingElement:
    """Reference power map: decode each rank, scale, encode."""
    spec = a.spec
    factors = spec.invariant_factors
    out = [0] * spec.order
    for r, c in enumerate(a.coefficients):
        image = tuple(t * x % d for x, d in zip(decode_rank(spec, r), factors))
        out[encode_residues(spec, image)] += c
    return GroupRingElement(spec, tuple(out))


def all_specs_up_to(max_order: int) -> list[GroupSpec]:
    specs = []
    for order in range(1, max_order + 1):
        specs.extend(enumerate_abelian_groups(order))
    return specs


def random_ring_element(rng, spec: GroupSpec, low: int = -3, high: int = 3) -> GroupRingElement:
    return GroupRingElement(
        spec, tuple(rng.randint(low, high) for _ in range(spec.order))
    )
