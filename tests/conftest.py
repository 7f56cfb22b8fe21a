import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from hstorsion import cohomology
from hstorsion.backends import build_complex, parse_model
from hstorsion.metric import HermitianStructure
from hstorsion.models import IWASAWA_TEXT, SPECTRAL_TEXT, TORUS_TEXT  # noqa: F401

# property tests draw the same examples on every run and store none, so the
# suite stays deterministic and writes no .hypothesis/ directory
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# hypothesis caches the constants it reads from the source files in its
# storage directory, from test collection on; keep that in a temporary
# directory removed at exit
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


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


def coefficient_laplacian(H, which, p, q):
    """The Laplacian of kind which ("bc" or "dbar") on Lambda^{p,q} in the
    coefficient frame, R^{-1} L~ R, from the whitened L~ that cohomology
    returns and the Cholesky factor R of the Gram."""
    return H.chol_inv(p, q) @ cohomology._LAPLACIANS[which](H, p, q) @ H.chol(p, q)


def weyl_certifies(H, floor):
    """Whether lambda_min(h_0) - sum_{m != 0} ||h_m||_2, for the Hermitian
    mode coefficients h_m of H's metric, clears the floor by 1e-12
    max(1, sum_m ||h_m||_2), each norm the largest singular value."""
    cat = H.complex.catalog
    zero = cat.mode_pos[cat.zero_mode]
    norms = [np.linalg.svd(h, compute_uv=False)[0] for h in H._herm]
    rest = sum(norms) - norms[zero]
    return np.linalg.eigvalsh(H._herm[zero])[0] - rest > floor + 1e-12 * max(1.0, sum(norms))
