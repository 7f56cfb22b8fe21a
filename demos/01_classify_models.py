"""Classify three built-in models and print their cohomology tables.

The flat torus is Kahler (every flag set); the Iwasawa nilmanifold is
balanced but neither SKT nor Hermitian-symplectic; a potential-perturbed
spectral torus is Hermitian-symplectic and SKT but not Kahler.
"""

import numpy as np

from hstorsion.backends import build_complex, parse_model
from hstorsion.cohomology import cohomology_table
from hstorsion.metric import HermitianStructure
from hstorsion.models import IWASAWA_TEXT, TORUS_TEXT
from hstorsion.torsion import classify

MODELS = {
    "flat torus": TORUS_TEXT,
    "iwasawa": IWASAWA_TEXT,
    "perturbed spectral torus": """kind spectral
n 3
modes axis K 1
potential 1 0 0 0 0 0 u 2 := 0.04
potential 0 1 0 0 0 0 u 3 := 0.03+0.02i
""",
}


def main():
    for name, text in MODELS.items():
        cx = build_complex(parse_model(text))
        H = HermitianStructure(cx, omega=cx.metric_form())
        print(f"== {name} (volume {H.volume():.4f}, "
              f"positivity margin {H.positivity_margin:.3f})")
        print(classify(H))
        print()
        print(cohomology_table(H))
        print()


if __name__ == "__main__":
    main()
