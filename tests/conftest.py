import numpy as np
import pytest

import foamlab as fl


@pytest.fixture(scope="session")
def double():
    return fl.double_bubble(1.0, 0.6)


@pytest.fixture(scope="session")
def triple():
    return fl.triple_bubble()


@pytest.fixture(scope="session")
def four():
    return fl.four_bubble()


@pytest.fixture(scope="session")
def two_lens():
    return fl.two_lens()


@pytest.fixture(scope="session")
def necklace6():
    return fl.necklace(6)


@pytest.fixture(scope="session")
def necklace7():
    return fl.necklace(7)


@pytest.fixture(scope="session")
def flower():
    return fl.flower()


@pytest.fixture(scope="session")
def quasi_recurved():
    return fl.quasi_variant("two_lens_recurved")


@pytest.fixture(scope="session")
def quasi_stretched():
    return fl.quasi_variant("four_stretched")


@pytest.fixture(scope="session")
def equilibrium_presets(double, triple, four, two_lens, necklace6, necklace7, flower):
    return {
        "double": double,
        "triple": triple,
        "four": four,
        "two_lens": two_lens,
        "necklace6": necklace6,
        "necklace7": necklace7,
        "flower": flower,
    }


@pytest.fixture(scope="session")
def quasi_presets(quasi_recurved, quasi_stretched):
    return {
        "two_lens_recurved": quasi_recurved,
        "four_stretched": quasi_stretched,
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(20260825)


def half_edge_arc(c, k):
    """The arc of half-edge k = 2j + end, traversed from its start vertex."""
    arc = c.arc_of(k >> 1)
    return arc.reversed() if k & 1 else arc


def face_area(c, walk):
    """Signed area enclosed by a walk of half-edges, summed along it: each
    half-edge's bulge plus the shoelace term of its chord."""
    total = 0.0
    for k in walk:
        arc = half_edge_arc(c, k)
        total += arc.bulge + 0.5 * (arc.tail.x * arc.head.y - arc.tail.y * arc.head.x)
    return total


def tiny_decorated_image():
    """A Mobius image of the double bubble, of diameter about 7e-8, decorated
    by a bubble 1e-8 of its junction's chord across.  The outer carriers of
    its three-sided regions 1 and 2 meet in two points well within
    ``PENCIL_TOL`` diameters of each other: their two common points coincide."""
    c = fl.double_bubble(1.0, 0.6)
    image = fl.mobius_apply_cluster(fl.random_mobius(c, np.random.default_rng(3)), c)
    return fl.decorate(fl.mobius_apply_cluster(fl.MobiusMap.scaling(1e-6), image), 1, 1e-8)
