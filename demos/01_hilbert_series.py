"""Dimensions of the skew rings, three ways.

The ring on four-index antisymmetric generators, its three-index quadratic
presentation, and the twisted (symmetric-generator) version all share one
Hilbert series: a product of (1 + k^2 t) over the odd (or even) squares.
This script computes the quotient dimensions degree by degree from the actual
ideal slices and lines them up against both the closed product formula and
the exponential generating function exp(arcsin(u sqrt t)/sqrt t).
"""

from math import factorial

from forestalg.lambda_alg import Presentation, hilbert_polynomial
from forestalg.series import basic_forest_egf, odd_square_product_poly

P = basic_forest_egf(8)

print(f"{'n':>3} {'computed dimensions':<28} {'product formula':<28} egf row")
for n in range(3, 9):
    pres = Presentation("tri", range(1, n))
    dims = hilbert_polynomial(pres)
    formula = odd_square_product_poly(n - 1)
    want = [formula.get(d, 0) for d in range(max(formula) + 1)]
    egf_row = [int(P.coefficient(n - 1, d) * factorial(n - 1))
               for d in range(len(want))]
    mark = "ok" if dims == want == egf_row else "MISMATCH"
    print(f"{n:>3} {str(dims):<28} {str(want):<28} {egf_row}  {mark}")

print()
print("the four-index presentation agrees after eliminating its linear relations:")
for n in (5, 6, 7):
    quad = hilbert_polynomial(Presentation("quad", range(1, n + 1)))
    print(f"  n={n}: {quad}")

print()
print("Euler characteristics at t = -1 (zero for even n, signed double")
print("factorials for odd n):")
from forestalg.lambda_alg import expected_euler_characteristic
for n in range(3, 10):
    poly = odd_square_product_poly(n - 1)
    value = sum(c * (-1) ** d for d, c in poly.items())
    print(f"  n={n}: {value} (expected {expected_euler_characteristic(n)})")
