"""Drive a Hermitian-symplectic metric to a Kahler one by gradient descent
of the torsion energy F over its Aeppli potential class, and check the
analytic differential against finite differences first.
"""

import numpy as np

from hstorsion.backends import build_complex, parse_model
from hstorsion.energy import (AeppliPoint, differential, energy,
                              fd_step_sweep, gradient_descent)
from hstorsion.metric import HermitianStructure
from hstorsion.models import SPECTRAL_TEXT
from hstorsion.torsion import classify


def main():
    cx = build_complex(parse_model(SPECTRAL_TEXT))
    H = HermitianStructure(cx, omega=cx.metric_form())
    point = AeppliPoint(cx, H.omega)
    f0, _ = energy(point)
    print(f"initial energy F = {f0:.6f}")

    rng = np.random.default_rng(0)
    v = cx.random_form(1, 0, rng)
    errors, best = fd_step_sweep(point, v, steps=(1e-2, 1e-3, 1e-4))
    print(f"dF along a random direction: {differential(point, v):+.6e}")
    for h, e in errors.items():
        print(f"  finite-difference mismatch at step {h:.0e}: {e:.2e}")

    res = gradient_descent(point, max_iters=200)
    print(f"\nflow: {res.status} in {len(res.history) - 1} iterations "
          f"({res.elapsed:.1f}s)")
    for row in res.history:
        print(f"  it {row['iter']:3d}  F={row['energy']:.3e}  "
              f"|grad|={row['grad_norm']:.2e}  d-res={row['d_residual']:.2e}  "
              f"margin={row['margin']:.3f}")

    final = res.point.structure()
    print("\nfinal metric classification:")
    print(classify(final))


if __name__ == "__main__":
    main()
