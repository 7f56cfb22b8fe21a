import numpy as np
import pytest

from hstorsion.backends import build_complex, parse_model
from hstorsion.metric import HermitianStructure
from hstorsion.models import IWASAWA_TEXT, SPECTRAL_TEXT, TORUS_TEXT  # noqa: F401


@pytest.fixture(scope="session")
def torus_cx():
    return build_complex(parse_model(TORUS_TEXT))


@pytest.fixture(scope="session")
def torus_H(torus_cx):
    return HermitianStructure(torus_cx, omega=torus_cx.metric_form())


@pytest.fixture(scope="session")
def iwasawa_cx():
    return build_complex(parse_model(IWASAWA_TEXT))


@pytest.fixture(scope="session")
def iwasawa_H(iwasawa_cx):
    return HermitianStructure(iwasawa_cx, omega=iwasawa_cx.metric_form())


@pytest.fixture(scope="session")
def spectral_cx():
    return build_complex(parse_model(SPECTRAL_TEXT))


@pytest.fixture(scope="session")
def spectral_H(spectral_cx):
    return HermitianStructure(spectral_cx, omega=spectral_cx.metric_form())


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_hermitian_structure(cx, rng, amp=0.2):
    """A random positive invariant metric on cx."""
    n = cx.n
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = np.eye(n) + amp * (A @ A.conj().T) / n
    return HermitianStructure(cx, h=h)
