import numpy as np
import pytest
from hypothesis import settings

from suita_lab.geometry import Annulus, Disc, MoebiusImage, Polygon

settings.register_profile("numeric", deadline=None, max_examples=50)
settings.load_profile("numeric")


@pytest.fixture(scope="session")
def unit_disc():
    return Disc(0j, 1.0)


@pytest.fixture(scope="session")
def annulus_half():
    return Annulus(0.5)


@pytest.fixture(scope="session")
def annulus_thin():
    # thin ring: G decays like exp(-pi^2 / log(1/q)) ~ 1e-19 across it
    return Annulus(0.8)


@pytest.fixture(scope="session")
def blaschke_disc(unit_disc):
    # (z - 0.3)/(1 - 0.3 z): automorphism of the unit disc
    return MoebiusImage(unit_disc, 1 + 0j, -0.3 + 0j, -0.3 + 0j, 1 + 0j)


@pytest.fixture(scope="session")
def moebius_annulus(annulus_half):
    # (z + 0.15)/(0.15 z + 1): eccentric ring, pole of the map at -1/0.15
    return MoebiusImage(annulus_half, 1 + 0j, 0.15 + 0j, 0.15 + 0j, 1 + 0j)


@pytest.fixture(scope="session")
def nested_moebius(moebius_annulus):
    # 1/(z - 0.1) of the eccentric ring: the composed map has c != 0 and its
    # pole in the hole, so the inner circle becomes the outer boundary
    return MoebiusImage(moebius_annulus, 0j, 1 + 0j, 1 + 0j, -0.1 + 0j)


@pytest.fixture(scope="session")
def unit_square():
    return Polygon([0, 1, 1 + 1j, 1j])


def interior_points(domain, count, seed=7):
    """Deterministic interior points for property checks."""
    from suita_lab import geometry as geo
    from suita_lab.oracles import counter_uniform

    x0, x1, y0, y1 = geo.bounding_box(domain)
    pts = []
    k = 0
    while len(pts) < count and k < 100 * count + 1000:
        u = counter_uniform(seed, 0xA11, np.arange(2 * k, 2 * k + 2))
        k += 1
        p = complex(x0 + (x1 - x0) * u[0], y0 + (y1 - y0) * u[1])
        if geo.contains(domain, p):
            pts.append(p)
    return pts
