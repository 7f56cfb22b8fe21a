import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from hstorsion import cohomology, metric
from hstorsion.backends import build_complex, parse_model
from hstorsion.metric import HermitianStructure
from hstorsion.models import IWASAWA_TEXT, SPECTRAL_TEXT, TORUS_TEXT  # noqa: F401

# family texts shared by several test modules

# an invariant family whose structure changes at t != 0: d phi^3 = -t phi^1
# ^ phi^2, the flat torus at t = 0
FAMILY_TEXT = """kind invariant
n 3
d 3 := poly(0, -1) * e(1,2)
t_samples := 0 0.5 1
"""

# acceptance criterion 10's potential family on the spectral n = 3, K = 1
# torus
POTENTIAL_FAMILY = """kind spectral
n 3
modes axis K 1
potential 1 0 0 0 0 0 u 2 := poly(0, 0.08)
potential 0 1 0 0 0 0 u 3 := poly(0, 0.06+0.04i)
t_samples := 0 0.0625 0.125 0.25 0.5
"""

# a potential family of the same shape on the spectral n = 2, K = 2 torus
# (9^4 nodes)
N2K2_FAMILY = """kind spectral
n 2
modes axis K 2
potential 2 0 0 0 u 2 := poly(0, 0.04)
potential 0 2 0 0 u 1 := poly(0, 0.03+0.02i)
t_samples := 0 0.0625 0.125 0.25 0.5
"""

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


@pytest.fixture
def node_passes(monkeypatch):
    """The mode coefficients of every pass that forms node values
    (metric._node_slabs) while the test runs, in order."""
    passes, slabs = [], metric._node_slabs
    monkeypatch.setattr(metric, "_node_slabs", lambda cx, c: passes.append(c) or slabs(cx, c))
    return passes


def node_values(cx, coeffs):
    """sum_m coeffs_m exp(2 pi i m . x) at every node x, shape (X, k, k),
    in node order, for coeffs of shape (modes, k, k): the slabs of
    metric._node_slabs, joined."""
    return np.concatenate(list(metric._node_slabs(cx, coeffs)))


def h_nodes(H):
    """h(x) at every node of H's grid, shape (X, n, n), in node order."""
    return node_values(H.complex, H._herm)


def weyl_certifies(H, floor):
    """Whether lambda_min(h_0) - sum_{m != 0} ||h_m||_2, for the Hermitian
    mode coefficients h_m of H's metric, clears the floor by 1e-12
    max(1, sum_m ||h_m||_2), each norm the largest singular value."""
    cat = H.complex.catalog
    zero = cat.mode_pos[cat.zero_mode]
    norms = [np.linalg.svd(h, compute_uv=False)[0] for h in H._herm]
    rest = sum(norms) - norms[zero]
    return np.linalg.eigvalsh(H._herm[zero])[0] - rest > floor + 1e-12 * max(1.0, sum(norms))
