"""Every public operation on every domain family: success or its exact refusal.

The families are a disc, an annulus, a Moebius image of each, a nested
image (whose map pole lies in the hole, so the inner circle becomes the
outer boundary), a polygon and the polar complement.  Each is paired with
an interior pole w and a second interior point z.  An entry of EXPECTED
names the refusal class of an operation on a family; every pair not
listed must succeed.  A second matrix puts the pole outside the domain,
and a table of refusals gives a supported family a level range, a level,
a window, a radius, an order or a count that the operation cannot serve;
the table reaches every `raise InvalidArgument` of the package.  The
inputs are small, so all of it runs in about a second.
"""

import numpy as np
import pytest

from suita_lab import bergman as bg
from suita_lab import geometry as geo
from suita_lab import green as gr
from suita_lab import oracles as oc
from suita_lab import sublevel as sl
from suita_lab import verify as vf
from suita_lab import weights as wt
from suita_lab.errors import BelowResolution, InvalidArgument, InvalidDomain, PointOutsideDomain, UnsupportedDomain
from suita_lab.geometry import Annulus, Disc, MoebiusImage, PolarComplement, Polygon

_DISC = Disc(0j, 1.0)
_RING = Annulus(0.5)
_IMAGE_RING = MoebiusImage(_RING, 1 + 0j, 0.15 + 0j, 0.15 + 0j, 1 + 0j)

# family -> (domain, pole w, second point z, a point outside)
FAMILIES = {
    "disc": (_DISC, 0.3 + 0.1j, -0.4 + 0.2j, 1.5 + 0j),
    "annulus": (_RING, 0.7 + 0.1j, -0.6 - 0.2j, 0.2 + 0j),
    "disc image": (MoebiusImage(_DISC, 1 + 0j, -0.3 + 0j, -0.3 + 0j, 1 + 0j), 0.2 + 0.1j, -0.5 + 0.3j, 1.5 + 0j),
    "annulus image": (_IMAGE_RING, 0.75 + 0j, -0.7 + 0.1j, 0.1 + 0j),
    "nested image": (MoebiusImage(_IMAGE_RING, 0j, 1 + 0j, 1 + 0j, -0.1 + 0j), 1 / 0.65 + 0j, -1.2 + 0.3j, 0.5 + 0j),
    "polygon": (Polygon([0, 1, 1 + 1j, 1j]), 0.5 + 0.5j, 0.25 + 0.3j, 2 + 2j),
    "polar complement": (PolarComplement(), 1 + 0j, 0.5 - 0.5j, 0j),
}


def _literal_round_trip(domain, w, z):
    assert geo.parse_domain(geo.domain_literal(domain)) == domain


def _disc_max(domain, w, z):
    r = 0.5 * geo.boundary_distance(domain, w) if geo.contains(domain, w) else 0.1
    return gr.disc_max_green(domain, w, r)


OPERATIONS = {
    "contains": lambda d, w, z: geo.contains(d, w),
    "boundary_distance": lambda d, w, z: geo.boundary_distance(d, w),
    "boundary_sample": lambda d, w, z: geo.boundary_sample(d, 64),
    "bounding_box": lambda d, w, z: geo.bounding_box(d),
    "domain_literal": _literal_round_trip,
    "green_eval": lambda d, w, z: gr.green_eval(d, w, z),
    "robin_capacity": lambda d, w, z: gr.robin_capacity(d, w),
    "critical_points": lambda d, w, z: gr.critical_points(d, w),
    "disc_max_green": _disc_max,
    "boundary_flux": lambda d, w, z: gr.boundary_flux(d, w, 64),
    "kernel_j": lambda d, w, z: bg.kernel_j(d, w, 0),
    "pinned_kernel": lambda d, w, z: bg.pinned_kernel(d, w, 1, z),
    "laplacian_identity_check": lambda d, w, z: bg.laplacian_identity_check(d, w, 1, 1e-3),
    "suita_defect": lambda d, w, z: bg.suita_defect(d, w),
    "sublevel_area": lambda d, w, z: sl.LevelField(d, w).area(-1.5),
    "wos_green": lambda d, w, z: oc.wos_green(d, w, z, 64, 1),
    "mc_area": lambda d, w, z: oc.mc_area(d, w, [-1.5], 1000, 1),
    "grid_area": lambda d, w, z: oc.grid_area(d, w, -1.5, 32),
    "grid_min_gradient": lambda d, w, z: oc.grid_min_gradient(d, w, 48),
}

_SERIES = (
    "green_eval", "robin_capacity", "critical_points", "disc_max_green", "boundary_flux",
    "kernel_j", "pinned_kernel", "laplacian_identity_check", "suita_defect",
)  # fmt: skip
_LEVELS = ("sublevel_area", "mc_area", "grid_area", "grid_min_gradient")

# (operation, family) -> refusal class; every other pair succeeds
EXPECTED = {
    **{("wos_green", family): UnsupportedDomain for family in ("disc image", "annulus image", "nested image")},
    **{(op, "polygon"): UnsupportedDomain for op in _SERIES + _LEVELS},
    **{(op, "polar complement"): UnsupportedDomain for op in _SERIES + _LEVELS + ("boundary_sample", "bounding_box", "wos_green")},
}
del EXPECTED[("robin_capacity", "polar complement")]  # c = 0: the complement is polar
del EXPECTED[("kernel_j", "polar complement")]  # K_j = 0: no square-integrable holomorphic function


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("operation", list(OPERATIONS))
def test_operation_on_family(operation, family):
    domain, w, z, _ = FAMILIES[family]
    assert geo.contains(domain, w) and geo.contains(domain, z)
    expected = EXPECTED.get((operation, family))
    if expected is None:
        OPERATIONS[operation](domain, w, z)
        return
    with pytest.raises(expected) as info:
        OPERATIONS[operation](domain, w, z)
    assert type(info.value) is expected


# The operations that take a pole refuse one outside the domain, after
# refusing the family.  grid_min_gradient, a lattice scan, is left out: a
# scan seeded from an outside pole has been allowed to run.
_POLE_FREE = ("contains", "boundary_sample", "bounding_box", "domain_literal", "grid_min_gradient")


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("operation", [op for op in OPERATIONS if op not in _POLE_FREE])
def test_pole_outside(operation, family):
    domain, _, z, outside = FAMILIES[family]
    assert not geo.contains(domain, outside)
    expected = EXPECTED.get((operation, family)) or PointOutsideDomain
    with pytest.raises(expected) as info:
        OPERATIONS[operation](domain, outside, z)
    assert type(info.value) is expected


def test_polar_complement_values():
    # the two operations that succeed on the polar complement return its zeros
    domain, w, _, _ = FAMILIES["polar complement"]
    cap = gr.robin_capacity(domain, w)
    assert (cap.capacity, cap.robin_constant) == (0.0, -np.inf)
    assert bg.kernel_j(domain, w, 2).value == 0.0
    assert geo.boundary_distance(domain, w) == np.inf


# Refusals of the inputs themselves, on a supported family: a level range,
# a level, a window, a radius, an order or a count that the operation cannot
# serve, a point that must be interior and is not (a query at the pole, a
# stencil point past the boundary), and a domain that breaks its invariants.
# Each entry names the class and a piece of the message, which tells two
# refusals of one class apart.  An InvalidArgument is also a ValueError, for
# callers that catch one.
_TWELVE_GON = Polygon([np.exp(2j * np.pi * k / 12) for k in range(12)])
_LEVELS_ARG = "need t_min < t_max < 0"

REFUSALS = {
    "profile_scan t_max = 0": (lambda: sl.profile_scan(_RING, 0.7 + 0j, -2.0, 0.0, 8), InvalidArgument, _LEVELS_ARG),
    "profile_scan t_max > 0": (lambda: sl.profile_scan(_RING, 0.7 + 0j, -2.0, 0.5, 8), InvalidArgument, _LEVELS_ARG),
    "profile_scan t_min = t_max": (lambda: sl.profile_scan(_RING, 0.7 + 0j, -1.0, -1.0, 8), InvalidArgument, _LEVELS_ARG),
    "profile_scan t_min > t_max": (lambda: sl.profile_scan(_RING, 0.7 + 0j, -1.0, -2.0, 8), InvalidArgument, _LEVELS_ARG),
    "profile_scan 7 steps": (lambda: sl.profile_scan(_RING, 0.7 + 0j, -2.0, -1.0, 7), InvalidArgument, "8 profile steps"),
    "area t = 0": (lambda: sl.LevelField(_RING, 0.7 + 0j).area(0.0), InvalidArgument, "need t < 0"),
    "contours t > 0": (lambda: sl.LevelField(_RING, 0.7 + 0j).contours(0.1, 64), InvalidArgument, "need t < 0"),
    "convexity_report far window": (
        lambda: sl.convexity_report(
            sl.profile_scan(_RING, 0.7 + 0j, -2.0, -1.0, 8), gr.critical_points(_RING, 0.7 + 0j)[0].level
        ),
        InvalidArgument,
        "usable samples",
    ),
    "mc_area t = 0": (lambda: oc.mc_area(_RING, 0.7 + 0j, [0.0], 1000, 1), InvalidArgument, "need t < 0"),
    "mc_area 0 samples": (lambda: oc.mc_area(_RING, 0.7 + 0j, [-1.5], 0, 1), InvalidArgument, "at least 1 sample"),
    "grid_area t = 0": (lambda: oc.grid_area(_RING, 0.7 + 0j, 0.0, 64), InvalidArgument, "need t < 0"),
    "grid_area resolution -0.5": (lambda: oc.grid_area(_RING, 0.7 + 0j, -0.5, -0.5), InvalidArgument, "resolution of at least 1"),
    # no corner of a grid this coarse falls below t: it cannot see the set
    **{
        f"grid_area resolution {n} blind": (lambda n=n: oc.grid_area(_RING, 0.7 + 0j, -0.5, n), BelowResolution, "falls below")
        for n in (1, 2, 3, 4)
    },
    "grid_min_gradient grid 1": (lambda: oc.grid_min_gradient(_RING, 0.7 + 0j, 1), InvalidArgument, "at least 2 points"),
    "wos_green 1 walk": (lambda: oc.wos_green(_RING, 0.7 + 0j, -0.6 + 0j, 1, 1), InvalidArgument, "at least 2 walks"),
    "poisson r = delta": (
        lambda: vf.poisson_step_check(vf.Pole(_RING, 0.7 + 0j), geo.boundary_distance(_RING, 0.7 + 0j)),
        InvalidArgument,
        "need 0 < r < delta",
    ),
    "poisson r > delta": (lambda: vf.poisson_step_check(vf.Pole(_RING, 0.7 + 0j), 0.3), InvalidArgument, "need 0 < r < delta"),
    "disc_max_green r > delta": (lambda: gr.disc_max_green(_RING, 0.7 + 0j, 0.3), InvalidArgument, "exceeds boundary distance"),
    "boundary_flux 63 nodes": (lambda: gr.boundary_flux(_RING, 0.7 + 0j, 63), InvalidArgument, "64 quadrature nodes"),
    "boundary_sample 7 nodes": (lambda: geo.boundary_sample(_RING, 7), InvalidArgument, "n >= 8"),
    "boundary_sample 8 nodes on 12 edges": (lambda: geo.boundary_sample(_TWELVE_GON, 8), InvalidArgument, "cannot cover"),
    "kernel_j order 13": (lambda: bg.kernel_j(_RING, 0.7 + 0j, 13), InvalidArgument, "derivative order"),
    "pinned_kernel order 13": (lambda: bg.pinned_kernel(_RING, 0.7 + 0j, 13, 0.7 + 0j), InvalidArgument, "derivative order"),
    "pinned_kernel order -1": (lambda: bg.pinned_kernel(_RING, 0.7 + 0j, -1, 0.7 + 0j), InvalidArgument, "derivative order"),
    "pinned_kernel pole outside, order 0": (
        lambda: bg.pinned_kernel(_RING, 5.0 + 0j, 0, 0.7 + 0j),
        PointOutsideDomain,
        "outside domain",
    ),
    "laplacian step h = 0": (
        lambda: bg.laplacian_identity_check(_RING, 0.7 + 0j, 0, 0.0),
        InvalidArgument,
        "positive finite step",
    ),
    # delta c = inf * 0 on the polar complement: no bound, as for thm1 and poisson
    "thm2_check polar complement": (
        lambda: vf.thm2_check(vf.Pole(PolarComplement(), 1 + 0j)),
        UnsupportedDomain,
        "no series Green function",
    ),
    "suita_check j_max 7": (lambda: vf.suita_check(vf.Pole(_RING, 0.7 + 0j), 7), InvalidArgument, "j_max"),
    # a line family that is not a row family has no rows either
    **{f"run_suite suite {suite}": (lambda suite=suite: vf.run_suite(suite=suite), InvalidArgument, "no suite") for suite in ("flx", "blb_lower")},
    "eval_weights s = 0": (lambda: wt.eval_weights(0.0), InvalidArgument, "s < 0"),
    "green_eval z = w": (lambda: gr.green_eval(_RING, 0.7 + 0j, 0.7 + 0j), PointOutsideDomain, "z == w"),
    "laplacian stencil past the boundary": (
        lambda: bg.laplacian_identity_check(_DISC, 0.9995 + 0j, 0, 1e-3),
        PointOutsideDomain,
        "leaves the domain",
    ),
    "disc centre not finite": (lambda: Disc(complex(np.inf, 0), 1.0), InvalidDomain, "finite"),
    "bow-tie polygon": (lambda: Polygon([0, 2, 2 + 2j, 1 - 1j, 2j]), InvalidDomain, "simple"),
    **{
        f"literal {literal}": (lambda literal=literal: geo.parse_domain(literal), InvalidDomain, "not a number")
        for literal in ("annulus:abc", "disc:0,x,1", "moebius:1,0,0,zz;base=disc:0,0,1", "polygon:0,0;1,q;1,1")
    },
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_input_refused(case):
    call, expected, match = REFUSALS[case]
    with pytest.raises(expected, match=match) as info:
        call()
    assert type(info.value) is expected
    assert isinstance(info.value, ValueError) == (expected is InvalidArgument)

