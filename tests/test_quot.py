import itertools
import random
import sys
from fractions import Fraction

import pytest

import oracles
from commvar.errors import (
    NotSurjectiveError,
    SizeMismatchError,
    WrongFrameCountError,
)
from commvar import matrices, quot
from commvar.fields import GF, QQ
from commvar.matrices import Matrix
from commvar.modules import (
    companion,
    compose,
    conjugate,
    empty_tuple,
    from_staircase,
    group_element,
    identity_element,
    staircase,
    validate,
)
from commvar.polynomials import UniPoly
from commvar.quot import (
    FramedModule,
    forget_frame,
    gl_action_on_atlas,
    is_atlas_point,
    is_generating,
    quot_equal,
)
from commvar.sampling import random_group_element, random_split_tuple


def qmat(rows):
    return Matrix.from_rows(QQ, [[QQ.of(x) for x in r] for r in rows])


def qvec(*xs):
    return tuple(QQ.of(x) for x in xs)


J2 = qmat([[0, 1], [0, 0]])
COMP = companion(UniPoly.make(QQ, [QQ.of(2), QQ.of(-3), QQ.of(1)]))


def test_frame_length_checked():
    with pytest.raises(SizeMismatchError):
        FramedModule(COMP, (qvec(1, 0, 0),))


def test_standard_basis_generates():
    f = FramedModule(COMP, (qvec(1, 0), qvec(0, 1)))
    assert is_generating(f)


def test_empty_frame_on_positive_module_does_not_generate():
    assert not is_generating(FramedModule(COMP, ()))
    assert is_generating(FramedModule(empty_tuple(QQ, 1), ()))


def test_cyclic_vector_generates_companion():
    # Krylov span of e1 under the companion matrix is everything
    f = FramedModule(COMP, (qvec(1, 0),))
    assert is_generating(f)
    # hand oracle: [e1 | A e1] invertible
    a = COMP.mats[0]
    k = [[Fraction(1), a.entry(0, 0)], [Fraction(0), a.entry(1, 0)]]
    assert oracles.cofactor_det(k, None) != 0


def test_non_cyclic_vector_fails():
    # J2 fixes span{e1}, so e1 does not generate
    t = validate([J2])
    assert not is_generating(FramedModule(t, (qvec(1, 0),)))
    assert is_generating(FramedModule(t, (qvec(0, 1),)))


def test_generation_needs_saturation_not_one_step():
    # e1 under a 3x3 shift: one multiplication is not enough, the Krylov
    # closure must iterate
    j3 = qmat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    t = validate([j3])
    assert is_generating(FramedModule(t, (qvec(1, 0, 0),)))


@pytest.mark.parametrize("n,q,generating", [(2, 2, 24), (2, 3, 432), (3, 2, 1344)])
def test_is_generating_matches_word_rank_exhaustive_d1(n, q, generating):
    # one matrix, one vector: the frame generates iff the words A^k v,
    # k <= n, have hand rank n.  The generating count is q^n |GL_n(F_q)|:
    # a cyclic module k[t]/(f) with f monic of degree n, times its bases.
    F = GF(q)
    vecs = list(itertools.product(range(q), repeat=n))
    count = 0
    for rows in oracles.all_matrices_f(n, q):
        t = validate([Matrix.from_rows(F, rows)])
        for v in vecs:
            got = is_generating(FramedModule(t, (v,)))
            assert got == oracles.frame_generates([rows], [v], n, q)
            count += got
    assert count == generating


@pytest.mark.parametrize("q,max_n", [(2, 4), (3, 3)])
def test_is_generating_matches_nakayama_on_staircases(q, max_n):
    # punctual staircase modules: a frame generates iff it spans M / mM,
    # i.e. rank [frame | A_1 | A_2] = n (Nakayama)
    F = GF(q)
    checked = 0
    for n in range(1, max_n + 1):
        for parts in oracles._partitions(n, n):
            cells = [(i, j) for i, row in enumerate(parts) for j in range(row)]
            t = from_staircase(staircase(cells), F)
            mats = [oracles.rows_of(a) for a in t.mats]
            for r in (1, 2):
                for frame in itertools.product(itertools.product(range(q), repeat=n), repeat=r):
                    cols = [list(v) for v in frame] + [
                        [a[i][j] for i in range(n)] for a in mats for j in range(n)
                    ]
                    nakayama = oracles.hand_rank(cols, q) == n
                    assert is_generating(FramedModule(t, frame)) == nakayama
                    checked += 1
    assert checked > 1000


def test_forget_frame_requires_generation():
    f = FramedModule(validate([J2]), (qvec(1, 0),))
    with pytest.raises(NotSurjectiveError):
        forget_frame(f)
    ok = FramedModule(validate([J2]), (qvec(0, 1),))
    assert forget_frame(ok) == validate([J2])


def test_atlas_point_requires_square_frame():
    with pytest.raises(WrongFrameCountError):
        is_atlas_point(FramedModule(COMP, (qvec(1, 0),)))


def test_atlas_point_detects_dependent_frames():
    assert not is_atlas_point(FramedModule(COMP, (qvec(1, 0), qvec(1, 0))))
    assert is_atlas_point(FramedModule(COMP, (qvec(1, 0), qvec(0, 1))))


def test_atlas_cyclic_krylov_frame():
    # frame (e1, A e1): atlas iff A e1 not proportional to e1
    a = COMP.mats[0]
    v = qvec(1, 0)
    av = tuple(a.entry(i, 0) for i in range(2))
    f = FramedModule(COMP, (v, av))
    assert is_atlas_point(f)
    hand = [[1, av[0]], [0, av[1]]]
    assert oracles.cofactor_det([[Fraction(x) for x in r] for r in hand], None) != 0


def test_atlas_implies_generating_exhaustive_f2():
    # all 2x2 modules (d=1) and all 2-vector frames over F_2
    F2 = GF(2)
    vecs = list(itertools.product([0, 1], repeat=2))
    mats = [
        Matrix.from_rows(F2, [[a, b], [c, d]])
        for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)
    ]
    checked = 0
    for m in mats:
        t = validate([m])
        for v1 in vecs:
            for v2 in vecs:
                f = FramedModule(t, (v1, v2))
                if is_atlas_point(f):
                    assert is_generating(f)
                    checked += 1
    assert checked == 16 * 6  # every module, every invertible frame


def test_quot_equal_reflexive_identity():
    f = FramedModule(COMP, (qvec(1, 0), qvec(0, 1)))
    h = quot_equal(f, f)
    assert h is not None
    assert h.matrix == Matrix.identity(QQ, 2)


def test_quot_equal_transported_recovers_group_element():
    rng = random.Random(40)
    for _ in range(20):
        t, _ = random_split_tuple(QQ, 2, rng, max_pieces=2, max_piece_size=2)
        if t.n == 0:
            continue
        frame = tuple(
            tuple(QQ.of(1) if i == j else QQ.of(0) for i in range(t.n))
            for j in range(t.n)
        )
        f = FramedModule(t, frame)
        g0 = random_group_element(QQ, t.n, rng)
        moved = FramedModule(
            conjugate(t, g0),
            tuple(tuple(g0.matrix.mat_vec(v)) for v in frame),
        )
        h = quot_equal(f, moved)
        assert h is not None
        # frames generate, so the certificate is unique and equals g0
        assert h.matrix == g0.matrix


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_krylov_levels_eliminate_int_rows_and_build_no_r(monkeypatch, field):
    # each Krylov level is one elimination of int rows; ``rref``, which
    # divides the whole matrix into its reduced row echelon form R, is never
    # called.  Calls are counted by wrapping every binding of ``rref`` in the
    # package and the field's ``eliminate``, whose calls count as levels only
    # when ``_krylov`` makes them (``inverse`` eliminates too).
    rref_calls, levels = [], []
    real_rref, real_eliminate = matrices.rref, type(field).eliminate

    def counting_rref(m):
        rref_calls.append(m)
        return real_rref(m)

    def eliminating(F, rows, ncols):
        if sys._getframe(1).f_code is quot._krylov.__code__:
            levels.append(ncols)
        return real_eliminate(F, rows, ncols)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "commvar" and getattr(module, "rref", None) is real_rref:
            monkeypatch.setattr(module, "rref", counting_rref)
    monkeypatch.setattr(type(field), "eliminate", eliminating)
    j3 = Matrix.from_rows(field, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    e2, e3 = (field.of(0), field.of(1), field.of(0)), (field.of(0), field.of(0), field.of(1))
    g0 = random_group_element(field, 3, random.Random(41))
    # (module, frame, Krylov levels): e3, e2, e1 on J3; e3, then e2 and e1
    # together on (J3, J3^2); e2, e1, then a level that adds nothing
    cases = [([j3], e3, 3), ([j3, j3 * j3], e3, 2), ([j3], e2, 3)]
    for mats, v, count in cases:
        f = FramedModule(validate(mats), (v,))
        levels.clear()
        assert is_generating(f) == (v == e3)
        assert len(levels) == count
        if v == e3:
            moved = FramedModule(conjugate(f.module, g0), (g0.matrix.mat_vec(v),))
            levels.clear()
            assert quot_equal(f, moved).matrix == g0.matrix
            assert len(levels) == count
    assert rref_calls == []


def test_quot_equal_absent_when_no_automorphism_matches():
    # swapped full frames on a module with distinct eigenvalues: the forced
    # map is the swap permutation, which fails to intertwine
    t = validate([qmat([[0, 0], [0, 3]])])
    f = FramedModule(t, (qvec(1, 0), qvec(0, 1)))
    g = FramedModule(t, (qvec(0, 1), qvec(1, 0)))
    assert is_generating(f) and is_generating(g)
    assert quot_equal(f, g) is None
    # hand check: h e1 = e2, h e2 = e1 forces the swap; swap does not
    # commute with diag(0,3)
    swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    a = oracles.rows_of(t.mats[0])
    assert oracles.mat_mul(swap, a, None) != oracles.mat_mul(a, swap, None)


def test_quot_equal_cyclic_generators_always_match():
    # two generating 1-vector frames on the same cyclic module are always
    # the same quotient point: every generator of R/I has annihilator I
    t = companion(UniPoly.make(QQ, [QQ.of(0), QQ.of(-3), QQ.of(1)]))  # t(t-3)
    f = FramedModule(t, (qvec(1, 0),))
    g = FramedModule(t, (qvec(1, 1),))
    assert is_generating(f) and is_generating(g)
    h = quot_equal(f, g)
    assert h is not None
    assert tuple(h.matrix.mat_vec(qvec(1, 0))) == qvec(1, 1)


def test_quot_equal_absent_on_rotated_frame():
    # same module, frame turned by a non-intertwining invertible map
    frame = (qvec(1, 0), qvec(0, 1))
    f = FramedModule(COMP, frame)
    hmat = qmat([[1, 1], [0, 1]])
    g = FramedModule(COMP, tuple(tuple(hmat.mat_vec(v)) for v in frame))
    # hand oracle: candidate h is forced to be hmat, check intertwining fails
    a = oracles.rows_of(COMP.mats[0])
    hr = oracles.rows_of(hmat)
    assert oracles.mat_mul(hr, a, None) != oracles.mat_mul(a, hr, None)
    assert quot_equal(f, g) is None


def test_quot_equal_absent_when_transported_basis_singular():
    # f's Krylov words are e1 then e2 (both frame vectors); on g's frame
    # (e1, e1) they give a singular K_t although e1 alone generates COMP
    f = FramedModule(COMP, (qvec(1, 0), qvec(0, 1)))
    g = FramedModule(COMP, (qvec(1, 0), qvec(1, 0)))
    assert is_generating(g)
    assert quot_equal(f, g) is None


def test_quot_equal_checks_frame_vectors_the_basis_skipped():
    # the second frame vector repeats the first, so the Krylov basis skips
    # it; h = 1 intertwines and matches the first vectors, but not 1 -> 2
    f = FramedModule(COMP, (qvec(1, 0), qvec(1, 0)))
    g = FramedModule(COMP, (qvec(1, 0), qvec(2, 0)))
    assert is_generating(f) and is_generating(g)
    assert quot_equal(f, g) is None
    assert quot_equal(f, f).matrix == Matrix.identity(QQ, 2)


def test_quot_equal_absent_on_rotated_frame_of_diagonal():
    # demo 05: the only frame-matching map [[1,1],[0,1]] does not commute
    # with diag(1, 2), so the transported candidate fails its check
    t = validate([qmat([[1, 0], [0, 2]])])
    straight = FramedModule(t, (qvec(1, 0), qvec(0, 1)))
    rotated = FramedModule(t, (qvec(1, 0), qvec(1, 1)))
    assert quot_equal(straight, rotated) is None
    assert quot_equal(rotated, straight) is None


def test_quot_equal_matches_brute_force_classes_f2():
    # (n, d, q, r) = (2, 2, 2, 1): the generating framed points are the
    # F_2-points of Hilb^2(A^2) times GL_2(F_2), freely; Goettsche's series
    # prod_k (1 - q^(k+1) t^k)^-1 gives q^4 + q^3 = 24 classes of 6 points
    F2 = GF(2)
    classes = oracles.framed_classes(2, 2, 2, 1)
    assert len(classes) == 24 and sum(map(len, classes)) == 144
    framed = {}
    class_of = {}
    for c, members in enumerate(classes):
        for mats, frame in members:
            t = validate([Matrix.from_rows(F2, a) for a in mats])
            framed[(mats, frame)] = FramedModule(t, frame)
            class_of[(mats, frame)] = c
    calls = 0
    for pt in framed:
        for other in [members[0] for members in classes] + classes[class_of[pt]]:
            h = quot_equal(framed[pt], framed[other])
            calls += 1
            if class_of[pt] != class_of[other]:
                assert h is None
                continue
            assert h is not None
            hr, hi = oracles.rows_of(h.matrix), oracles.rows_of(h.inv)
            assert oracles.mat_mul(hr, hi, 2) == oracles.mat_identity(2, 2)
            for a, b in zip(pt[0], other[0]):
                assert oracles.mat_mul(hr, [list(x) for x in a], 2) == oracles.mat_mul(
                    [list(x) for x in b], hr, 2
                )
            for v, w in zip(pt[1], other[1]):
                assert oracles.mat_vec(hr, list(v), 2) == list(w)
    assert calls == 4320


def test_quot_equal_error_precedence():
    # left NOT_SURJECTIVE, then right NOT_SURJECTIVE, then sizes differ
    bad2 = FramedModule(validate([J2]), (qvec(1, 0),))
    ok2 = FramedModule(validate([J2]), (qvec(0, 1),))
    ok3 = FramedModule(validate([qmat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])]), (qvec(1, 0, 0),))
    bad3 = FramedModule(validate([Matrix.zero(QQ, 3, 3)]), (qvec(1, 0, 0),))
    with pytest.raises(NotSurjectiveError, match="left"):
        quot_equal(bad2, bad3)
    with pytest.raises(NotSurjectiveError, match="right"):
        quot_equal(ok2, bad3)
    with pytest.raises(NotSurjectiveError, match="left"):
        quot_equal(bad3, ok2)
    assert quot_equal(ok2, ok3) is None


def test_quot_equal_requires_generation():
    t = validate([J2])
    bad = FramedModule(t, (qvec(1, 0),))
    ok = FramedModule(t, (qvec(0, 1),))
    with pytest.raises(NotSurjectiveError):
        quot_equal(bad, ok)
    with pytest.raises(NotSurjectiveError):
        quot_equal(ok, bad)


def test_quot_equal_distinguishes_modules():
    t1 = validate([J2])
    t2 = validate([Matrix.zero(QQ, 2, 2)])
    f1 = FramedModule(t1, (qvec(0, 1),))
    # zero module needs two generators; use full frames on both
    f1b = FramedModule(t1, (qvec(1, 0), qvec(0, 1)))
    f2 = FramedModule(t2, (qvec(1, 0), qvec(0, 1)))
    assert quot_equal(f1b, f2) is None
    with pytest.raises(Exception):
        quot_equal(f1, f2)  # frame counts differ


def test_gl_action_right_multiplies_frame():
    f = FramedModule(COMP, (qvec(1, 0), qvec(0, 1)))
    g = group_element(qmat([[1, 2], [0, 1]]))
    fg = gl_action_on_atlas(f, g)
    assert fg.module == f.module
    assert fg.frame_matrix() == f.frame_matrix() * g.matrix
    assert is_atlas_point(fg)


def test_gl_action_composition_and_identity():
    f = FramedModule(COMP, (qvec(1, 0), qvec(0, 1)))
    e = identity_element(QQ, 2)
    assert gl_action_on_atlas(f, e) == f
    g = group_element(qmat([[1, 2], [0, 1]]))
    h = group_element(qmat([[2, 0], [1, 1]]))
    assert gl_action_on_atlas(gl_action_on_atlas(f, g), h) == gl_action_on_atlas(
        f, compose(g, h)
    )


def test_gl_action_preserves_forgetful_image():
    f = FramedModule(COMP, (qvec(1, 0), qvec(0, 1)))
    g = group_element(qmat([[3, 1], [2, 1]]))
    assert forget_frame(gl_action_on_atlas(f, g)) == forget_frame(f)


def test_gl_action_requires_square_frame():
    f = FramedModule(COMP, (qvec(1, 0),))
    with pytest.raises(WrongFrameCountError):
        gl_action_on_atlas(f, identity_element(QQ, 2))


def test_atlas_fiber_is_single_combined_orbit_f2():
    # over a fixed module, every atlas frame is reachable from the standard
    # one by the frame action alone; across the isomorphism class, a module
    # transport followed by a frame action reaches every atlas point
    F2 = GF(2)
    j2 = Matrix.from_rows(F2, [[0, 1], [0, 0]])
    base = validate([j2])
    all_mats = [
        Matrix.from_rows(F2, [[a, b], [c, d]])
        for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)
    ]
    invertible = [m for m in all_mats if oracles.cofactor_det(oracles.rows_of(m), 2) != 0]
    id_frame = ((F2.one(), F2.zero()), (F2.zero(), F2.one()))
    start = FramedModule(base, id_frame)
    reached = set()
    for h in invertible:
        hg = group_element(h)
        transported = FramedModule(
            conjugate(base, hg),
            tuple(tuple(hg.matrix.mat_vec(v)) for v in id_frame),
        )
        for g in invertible:
            fg = gl_action_on_atlas(transported, group_element(g))
            reached.add((tuple(m.entries for m in fg.module.mats), fg.frame))
    # enumerate all atlas points with module isomorphic to J2
    expect = set()
    for m in all_mats:
        t = validate([m])
        in_orbit = any(
            (group_element(h).matrix * j2 * group_element(h).inv) == m
            for h in invertible
        )
        if not in_orbit:
            continue
        for fr in invertible:
            fm = FramedModule(t, tuple(tuple(fr.entry(i, j) for i in range(2)) for j in range(2)))
            if is_atlas_point(fm):
                expect.add((tuple(mm.entries for mm in fm.module.mats), fm.frame))
    assert reached == expect
