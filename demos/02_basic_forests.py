"""Basic triangle forests: the monomial basis behind everything.

A triangle forest is a 3-uniform hypergraph without cycles; it is *basic*
when every component's two smallest vertices share a triangle, recursively
after removing it.  Basic forests with e edges on n labels are counted by
n! [t^e u^n] exp(arcsin(u sqrt t)/sqrt t), and their monomials form a basis
of the skew ring: non-basic monomials reduce, cyclic monomials die.
"""

from forestalg.forests import (canonical_ternary_forest,
                               enumerate_basic_forests, is_basic,
                               tree_statistics)
from forestalg.lambda_alg import Presentation, forest_normal_form

print("the nine 2-edge basic trees on {1..5}:")
for f in enumerate_basic_forests(range(1, 6), 2):
    comp = f.sorted_edges
    rank, stepchild, keystone, mu = tree_statistics(f.vertices, comp)
    print(f"  {comp}  rank={rank} stepchild={stepchild} "
          f"keystone={keystone} mu={mu}")

print()
print("reduction of a non-basic tree into the basis (five labels):")
pres = Presentation("tri", range(1, 6))
x = pres.monomial([(1, 4, 5), (2, 3, 5)])
print("  g(1,4,5) g(2,3,5)  -->")
for g, c in sorted(forest_normal_form(x, pres).items(),
                   key=lambda kv: kv[0].sorted_edges):
    print(f"    {'+' if c > 0 else '-'}{abs(c)} * {g.sorted_edges}")

print()
print("a monomial whose graph has a cycle is zero:")
y = pres.monomial([(2, 3, 4), (2, 4, 5)])
print(f"  g(2,3,4) g(2,4,5) --> {forest_normal_form(y, pres)}")

print()
print("canonical ternary partner of a basic forest (the composition recipe")
print("whose functional pairs +-1 with it):")
f = enumerate_basic_forests(range(1, 8), 3)[0]
print(f"  forest {f.sorted_edges}")
print(f"  partner {canonical_ternary_forest(f).to_json()}")
print(f"  basic: {is_basic(f)}")
