"""Build the minimal-potential Kahler representative of an Aeppli class.

For a metric omega whose del(omega) is del-dbar-exact, the construction
solves for the smallest (1,0) potential u with omega + del(conj u)
+ dbar(u) d-closed, and certifies closedness and positivity.  On a model
violating the exactness hypothesis it refuses with the measured distance.
"""

import numpy as np

from hstorsion.backends import build_complex, parse_model
from hstorsion.deform import HypothesisError, kahler_in_class
from hstorsion.forms import conjugate
from hstorsion.metric import HermitianStructure
from hstorsion.models import IWASAWA_TEXT

SPECTRAL = """kind spectral
n 3
modes axis K 1
potential 1 0 0 0 0 0 u 2 := 0.05
potential 0 1 0 0 0 0 u 3 := 0.02+0.03i
"""


def main():
    cx = build_complex(parse_model(SPECTRAL))
    base = HermitianStructure(cx, omega=cx.metric_form())
    # a one-parameter family inside one Aeppli class
    rng = np.random.default_rng(1)
    v = 0.01 * cx.random_form(1, 0, rng)
    gamma = cx.apply_del(conjugate(v)) + cx.apply_dbar(v)
    for t in (0.0, 0.1, 0.2, 0.4):
        H = HermitianStructure(cx, omega=base.omega + t * gamma)
        kr = kahler_in_class(H)
        print(f"t={t:4.2f}  |u_min|={kr.u_norm:.4e}  "
              f"d-residual={kr.d_residual:.2e}  "
              f"positivity={kr.positivity.verdict}")

    print("\nIwasawa (hypothesis fails):")
    iwa = build_complex(parse_model(IWASAWA_TEXT))
    H = HermitianStructure(iwa, omega=iwa.metric_form())
    try:
        kahler_in_class(H)
    except HypothesisError as e:
        print(f"  refused: {e}")


if __name__ == "__main__":
    main()
