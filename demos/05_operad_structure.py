"""The cooperad maps, the odd ternary operation, and the pairing argument.

A label map f: S -> T induces a coproduct from the skew ring on S into the
tensor product over the target and the fibers; iterating these is how the
ternary operation composes.  The script checks coassociativity, evaluates
composed functionals, reproduces the 10-term identity's matrix facts, and
prints the unit-triangular pairing that witnesses split injectivity.
"""

from forestalg.forests import TernaryForest
from forestalg.lambda_alg import Presentation
from forestalg.operad import (FiniteMap, coassociativity_check, delta_f,
                              jacobi_10term_check, tau_compose,
                              triangular_pairing_certificate)

f = FiniteMap.make({1: 101, 2: 101, 3: 101, 4: 101, 5: 102},
                   target=(101, 102))
quad5 = Presentation("quad", range(1, 6))
print("coproduct of a generator concentrated in one fiber:")
print(" ", delta_f(f, quad5.monomial([(1, 2, 3, 4)]), "quad"))
print("a 3+1 split survives via the attach point:")
print(" ", delta_f(f, quad5.monomial([(1, 2, 3, 5)]), "quad"))

g = FiniteMap.make({101: 201, 102: 201}, target=(201,))
print("coassociativity of the iterated coproducts:", coassociativity_check(f, g))

print()
print("the ternary functional on three labels:")
G = TernaryForest.make([("n", 1, 2, 3)])
tri3 = Presentation("tri", [1, 2, 3])
print("  on the generator:", tau_compose(G, tri3.monomial([(1, 2, 3)]), [1, 2, 3]))
print("  on 1:", tau_compose(G, tri3.monomial([]), [1, 2, 3]))

print()
print("10-term identity:", jacobi_10term_check())

print()
rep = triangular_pairing_certificate(6)
print("pairing certificate for six labels (degree 2 block):")
for row in rep["degrees"][2]["matrix"]:
    print("  ", row)
print("unit-diagonal upper triangular:", rep["triangular"])
