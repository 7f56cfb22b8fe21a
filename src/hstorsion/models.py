"""The built-in models, as model-file texts.

TORUS_TEXT is the flat torus (Kahler), IWASAWA_TEXT the Iwasawa manifold
(balanced, neither SKT nor Hermitian-symplectic), and SPECTRAL_TEXT the flat
spectral torus perturbed inside its Aeppli class by a (1,0) potential, which
keeps it Hermitian-symplectic but not Kahler.
"""

TORUS_TEXT = "kind invariant\nn 3\n"

IWASAWA_TEXT = "kind invariant\nn 3\nd 3 := -1 * e(1,2)\n"

SPECTRAL_TEXT = """kind spectral
n 3
modes axis K 1
potential 1 0 0 0 0 0 u 2 := 0.04
potential 0 1 0 0 0 0 u 3 := 0.03+0.02i
potential 0 0 0 1 0 0 u 1 := 0.02i
"""
