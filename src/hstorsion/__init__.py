"""Numerical operator calculus for Hermitian-symplectic torsion forms.

The package works on finite-dimensional bigraded complexes of (p,q)-forms
on Fourier-truncated tori (an invariant Lie-algebra model is the torus with
no axes), and provides metric structures, Bott-Chern / Dolbeault cohomology,
torsion forms of Hermitian-symplectic metrics, the associated energy
functional with its gradient flow, and Kahler deformation tools.
"""

from .forms import Bidegree, DegreeError, Form, conjugate, wedge, zero_form
from .backends import (
    FormComplex,
    Model,
    ModelError,
    build_complex,
    parse_model,
)
from .metric import (
    HermitianStructure,
    MetricError,
    PositivityReport,
    check_weak_positivity,
)

__version__ = "0.1.0"

__all__ = [
    "Bidegree",
    "DegreeError",
    "Form",
    "conjugate",
    "wedge",
    "zero_form",
    "FormComplex",
    "Model",
    "ModelError",
    "build_complex",
    "parse_model",
    "HermitianStructure",
    "MetricError",
    "PositivityReport",
    "check_weak_positivity",
    "__version__",
]
