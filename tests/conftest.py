import numpy as np
import pytest

from aqh import QuatStructure, standard_structure, random_W_element, components


@pytest.fixture(scope="session")
def s2():
    return standard_structure(2)


@pytest.fixture(scope="session")
def s3():
    return standard_structure(3)


@pytest.fixture(scope="session")
def frame3(s3):
    """A random orthogonal change of frame g of R^12 and the structure
    s' = (g I g^T, g J g^T) it gives, whose operators have no zero pattern
    to lean on."""
    g, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((12, 12)))
    return g, QuatStructure(3, g @ s3.I @ g.T, g @ s3.J @ g.T)


@pytest.fixture(scope="session")
def pool2(s2):
    """Six pure components of a random torsion tensor at n=2."""
    return components(random_W_element(s2, 424242), s2, check=False)


@pytest.fixture(scope="session")
def pool3(s3):
    return components(random_W_element(s3, 424242), s3, check=False)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
