"""
Deciding isomorphism with certificates
======================================

Two tuples are isomorphic exactly when some invertible matrix
intertwines every coordinate simultaneously.  The decision procedure is
deterministic: compute the intertwiner space and try each basis element,
their sum, and then the first dim Hom(s, t) vectors of a fixed grid of
coefficient vectors, skipping zero and multiples of one basis element,
which were tried already.  When none is invertible, answer "absent" if
dim Hom(s, t), dim End(s), dim End(t) and dim Hom(t, s) are not all equal
(an isomorphism would make them equal), and otherwise scan the rest of the
grid for an invertible combination, refusing (GRID_BUDGET_EXCEEDED)
rather than guessing when that grid is larger than the configured budget.
No non-isomorphic pair with four equal dimensions is known, so the pairs
below are all decided before that scan.  A certificate is returned and can
be re-verified independently; "absent" is only ever reported from the
characteristic polynomials, from the dimensions or after the full grid
came up empty.
"""
from fractions import Fraction

from commvar import (
    GF,
    QQ,
    Matrix,
    RunConfig,
    aut_dim,
    hom_basis,
    is_isomorphic,
    min_generators,
    validate,
)

J2 = Matrix.from_rows(QQ, [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
Z = Matrix.zero(QQ, 2, 2)

# the two modules of length 2 supported at the origin: k[x,y]/(x^2, y)
# acting through (J2, 0), and k[x,y]/(x, y)^... the square of the maximal
# ideal, acting through (0, 0)
t_jordan = validate([J2, Z])
t_square = validate([Z, Z])

print("hom dim between them:", hom_basis(t_jordan, t_square).dim)
print("aut dims:", aut_dim(t_jordan), "vs", aut_dim(t_square))
print("minimal generators:", min_generators(t_jordan), "vs", min_generators(t_square))

g = is_isomorphic(t_jordan, t_square)
print("isomorphic?", g is not None)
assert g is None  # different module structures, same dimension vector

# a positive case with a verified certificate: the same module in two bases
p = Matrix.from_rows(QQ, [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
pinv = Matrix.from_rows(QQ, [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]])
t_other = validate([p * J2 * pinv, Z])
g = is_isomorphic(t_jordan, t_other)
assert g is not None
for a, b in zip(t_jordan.mats, t_other.mats):
    assert (g.matrix * a).entries == (b * g.matrix).entries
print("certificate intertwines all coordinates")

# the dimension check: (J3, 0) and (J3, J3^2) share size, characteristic
# polynomials and support cycle, and no element of the 2-dimensional Hom
# between them is invertible; each has a 3-dimensional endomorphism
# algebra, so the dimensions answer "absent" after the first two grid
# vectors and even a grid budget of 1 does
J3 = Matrix(QQ, 3, 3, tuple(Fraction(x) for x in (0, 1, 0, 0, 0, 1, 0, 0, 0)))
Z3 = Matrix.zero(QQ, 3, 3)
s = validate([J3, Z3])
t = validate([J3, J3 * J3])
print("J3 pair: hom dim", hom_basis(s, t).dim, "vs aut dims", aut_dim(s), aut_dim(t))
g = is_isomorphic(s, t, RunConfig(grid_budget=1))
print("J3 pair isomorphic with grid budget 1?", g is not None)
assert g is None

# the fourth dimension: this F_2 pair has hom and both aut dims 3, and only
# dim Hom(t, s) = 4 tells it apart, again before the grid and within any
# budget
F2 = GF(2)
A = Matrix.from_rows(F2, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
s = validate([A, Matrix.from_rows(F2, [[0, 0, 0], [1, 0, 1], [0, 0, 0]])])
t = validate([A, Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 0], [0, 1, 0]])])
print("F_2 pair: hom dims", hom_basis(s, t).dim, "and", hom_basis(t, s).dim,
      "vs aut dims", aut_dim(s), aut_dim(t))
g = is_isomorphic(s, t, RunConfig(grid_budget=1))
print("F_2 pair isomorphic with grid budget 1?", g is not None)
assert g is None
