"""
Framed modules and the atlas of charts
======================================

A frame is a list of vectors that must generate the module.  Framed
modules with n generating vectors whose frame matrix is invertible form
an atlas of charts; two framed points are equal exactly when a module
isomorphism carries frame to frame, and that isomorphism is unique.
"""
from fractions import Fraction

from commvar import (
    QQ,
    FramedModule,
    Matrix,
    conjugate,
    forget_frame,
    gl_action_on_atlas,
    group_element,
    is_atlas_point,
    is_generating,
    quot_equal,
    validate,
)

J2 = Matrix.from_rows(QQ, [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
t = validate([J2])

# e2 is a cyclic vector for J2 (it generates), e1 is not: J2 e1 = 0
e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
print("frame (e1) generates?", is_generating(FramedModule(t, (e1,))))
print("frame (e2) generates?", is_generating(FramedModule(t, (e2,))))

# with two vectors the frame matrix is square; invertible frame = chart point
basis_frame = FramedModule(t, (e1, e2))
print("(e1, e2) is an atlas point?", is_atlas_point(basis_frame))

# transporting a framed point by g and asking for equality returns g back:
# the Krylov words on the frame pin the only candidate h = K_t K_s^-1
g = group_element(Matrix.from_rows(QQ, [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]))
transported = FramedModule(
    conjugate(t, g), tuple(g.matrix.mat_vec(v) for v in basis_frame.frame)
)
h = quot_equal(basis_frame, transported)
assert h is not None and h.matrix.entries == g.matrix.entries
print("transport certificate recovered exactly")

# same module, incompatibly rotated frame: the only linear map carrying
# frame to frame is h = [[1,1],[0,1]], and for diag(1,2) it fails to
# intertwine, so the framed points differ even though the modules agree
d12 = validate([Matrix.from_rows(QQ, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]])])
straight = FramedModule(d12, (e1, e2))
rotated = FramedModule(d12, (e1, (Fraction(1), Fraction(1))))
assert quot_equal(straight, rotated) is None
print("rotated frame on diag(1,2) equal?", quot_equal(straight, rotated) is not None)

# the group acts on a chart by mixing the frame vectors; the underlying
# module point is untouched
moved = gl_action_on_atlas(basis_frame, g)
assert is_atlas_point(moved)
assert forget_frame(moved) == forget_frame(basis_frame)
print("frame action preserves the chart and the underlying point")
