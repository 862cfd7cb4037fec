import dataclasses
import functools
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from commvar import census, matrices
from commvar.census import (
    CensusRequest,
    CensusResult,
    _classes,
    _conjugation_map,
    _nilpotent,
    burnside_count,
    enumerate_census,
    gl_order,
    orbit_census,
)
from commvar.config import DEFAULT_CONFIG
from commvar.cycles import cycle, partition_notation, stratum
from commvar.errors import BudgetExceededError, NonprimeQError, NotSplitError
from commvar.fields import GF, PrimeField
from commvar.matrices import Matrix, _intertwining_rows, block_diag, inverse, rank
from commvar.modules import CommutingTuple, check_relations, companion, is_punctual
from commvar.polynomials import UniPoly, parse_multipoly


def test_gl_order_small_values():
    assert gl_order(1, 2) == 1
    assert gl_order(1, 5) == 4
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168
    assert gl_order(0, 2) == 1


def test_gl_order_matches_brute_count():
    for n, q in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        assert gl_order(n, q) == oracles.count_invertible(n, q)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_classes_match_brute_force_orbits(n, q):
    # every matrix is conjugate to exactly one representative, and each
    # weight is the size of its orbit
    orbits = oracles.similarity_classes(n, q)
    where = {key: i for i, orbit in enumerate(orbits) for key in orbit}
    hits = []
    for m, size, dim, nilpotent in _classes(n, q):
        i = where[tuple(map(tuple, oracles.rows_of(Matrix(GF(q), n, n, m))))]
        assert size == len(orbits[i])
        hits.append(i)
    assert sorted(hits) == list(range(len(orbits)))


@pytest.mark.parametrize("n,q", [(0, 2), (1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5),
                                 (3, 2), (3, 3), (3, 5), (4, 2), (4, 3)])
def test_class_counts_match_closed_forms(n, q):
    classes = _classes(n, q)
    closed = [1, q, q**2 + q, q**3 + q**2 + q, q**4 + q**3 + 2 * q**2 + q][n]
    assert len(classes) == closed
    assert len({m for m, size, dim, nilpotent in classes}) == closed
    assert sum(size for m, size, dim, nilpotent in classes) == q ** (n * n)


@pytest.mark.parametrize("degree", [1, 2])
def test_classes_refuse_a_missing_irreducible(monkeypatch, degree):
    # each class type places irreducibles on its blocks in exactly as many
    # ways as _types counts classes, checked with no assert
    real = census._irreducibles

    def short(q, n):
        out = real(q, n)
        out.remove(next(f for f in out if len(f) - 1 == degree))
        return out

    monkeypatch.setattr(census, "_irreducibles", short)
    with pytest.raises(RuntimeError, match="placements"):
        _classes(3, 2)
    with pytest.raises(RuntimeError, match="placements"):
        orbit_census(3, 2, 2)


@pytest.mark.parametrize("n,q", [(0, 2), (1, 3), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_class_records_match_elimination(n, q):
    # each class row (m, size, dim, nilpotent) reads dim and nilpotent off
    # the partitions, and the orbits take dim = n^2 for scalar m; each must
    # be what elimination and a matrix power find on m (the nullity the
    # nilpotent counts read is checked in oracles.census_by_classes)
    F = GF(q)
    identity = Matrix.identity(F, n)
    for m, size, dim, nilpotent in _classes(n, q):
        a = Matrix(F, n, n, m)
        assert dim == len(matrices._kernel(_intertwining_rows(a, a), n * n, F))
        assert nilpotent == _nilpotent(a)
        assert (dim == n * n) == any(a == identity.scale(x) for x in range(q))


@pytest.mark.parametrize("n,q", [(n, q) for n in range(4) for q in (2, 3, 5, 7)] + [(4, 2), (4, 3)])
def test_class_representative_is_the_block_sum_of_companions(n, q):
    # the canonical form written from int coefficients is the block sum of
    # the companion matrices of phi^k, built from polynomials and matrices,
    # for every list of parts (phi, lam) on distinct irreducibles in order;
    # those forms are the classes' first matrices
    F = GF(q)

    def parts_of(irr, size):
        if size == 0:
            yield []
        for i, phi in enumerate(irr):
            e = len(phi) - 1
            for k in range(1, size // e + 1):
                for lam in census._partitions(k, k):
                    for rest in parts_of(irr[i + 1:], size - e * k):
                        yield [(phi, lam)] + rest

    forms = []
    for parts in parts_of(census._irreducibles(q, n), n):
        blocks, polys = [], []
        for phi, lam in parts:
            for k in lam:
                f = UniPoly.one(F)
                for _ in range(k):
                    f = f * UniPoly(F, phi)
                blocks.append(companion(f).mats[0])
                polys.append(f.coeffs)
        forms.append(census._canonical_form(q, polys))
        assert Matrix(F, n, n, forms[-1]) == block_diag(blocks, F)
    assert sorted(forms) == sorted(m for m, size, dim, nilpotent in _classes(n, q))


def test_census_n1_is_affine_space():
    # single 1x1 matrices always commute: q^d points, one per tuple
    for d in (1, 2, 3):
        for q in (2, 3, 5):
            res = enumerate_census(CensusRequest(n=1, d=d, q=q))
            assert res.raw_count == q**d
            assert res.groupoid_count == Fraction(q**d, q - 1)


def test_census_matrices_d1():
    # d = 1 never constrains: q^(n^2) raw
    res = enumerate_census(CensusRequest(n=2, d=1, q=2))
    assert res.raw_count == 16
    assert res.gl_order == 6
    assert res.groupoid_count == Fraction(16, 6)


def test_census_pairs_matches_double_loop_oracle():
    res = enumerate_census(CensusRequest(n=2, d=2, q=2))
    assert res.raw_count == oracles.count_commuting_pairs(2, 2) == 88
    assert res.groupoid_count == Fraction(88, 6)


def test_census_nilpotent_filter():
    res = enumerate_census(CensusRequest(n=2, d=2, q=2, nilpotent=True))
    # hand count: pairs of commuting nilpotents over F_2
    brute = 0
    for a in oracles.all_matrices_f(2, 2):
        a2 = oracles.mat_mul(a, a, 2)
        if not oracles.mat_is_zero(a2, 2):
            continue
        for b in oracles.all_matrices_f(2, 2):
            b2 = oracles.mat_mul(b, b, 2)
            if not oracles.mat_is_zero(b2, 2):
                continue
            if oracles.mat_is_zero(oracles.mat_commutator(a, b, 2), 2):
                brute += 1
    assert res.raw_count == brute == 10


def test_census_nilpotent_d1_closed_form():
    # nilpotent matrices over F_q number q^(n^2 - n)
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        res = enumerate_census(CensusRequest(n=n, d=1, q=q, nilpotent=True))
        assert res.raw_count == q ** (n * n - n)


def test_census_per_stratum_partition():
    res = enumerate_census(CensusRequest(n=2, d=2, q=2, per_stratum=True))
    assert res.per_stratum is not None
    assert res.per_stratum[(0, 1)] == 40  # one double point
    assert res.per_stratum[(2, 0)] == 36  # two distinct rational points
    assert res.unsplit_count == 12
    assert sum(res.per_stratum.values()) + res.unsplit_count == res.raw_count
    assert (res.per_stratum, res.unsplit_count) == oracles.pair_strata(2, 2)


def test_census_per_stratum_files_no_split_tuple_as_unsplit():
    # 1^3 needs three distinct points of F_2^2, which no linear form over
    # F_2 separates
    res = enumerate_census(CensusRequest(n=3, d=2, q=2, per_stratum=True))
    strata = {partition_notation(a): c for a, c in res.per_stratum.items()}
    assert strata == {"1^3": 672, "1^1 2^1": 3360, "3^1": 1600}
    assert res.unsplit_count == 1824
    assert (res.per_stratum, res.unsplit_count) == oracles.pair_strata(3, 2)
    assert res.raw_count == oracles.feit_fine_pairs(3, 2, punctual=False)[3]


def test_census_unsplit_oracle_f2_pairs():
    # a 2x2 pair fails to split over F_2 exactly when some coordinate has
    # an irreducible quadratic characteristic polynomial
    def splits(rows):
        f = oracles.hand_char_poly(rows, 2)
        # quadratic over F_2 splits iff it has a root
        return any(oracles.poly_eval(f, x, 2) == 0 for x in (0, 1))

    brute = 0
    for a in oracles.all_matrices_f(2, 2):
        for b in oracles.all_matrices_f(2, 2):
            if not oracles.mat_is_zero(oracles.mat_commutator(a, b, 2), 2):
                continue
            if not splits(a) or not splits(b):
                brute += 1
    res = enumerate_census(CensusRequest(n=2, d=2, q=2, per_stratum=True))
    assert res.unsplit_count == brute


def all_tuples(n, d, q, coordinates=lambda a: True):
    """every commuting d-tuple over F_q with every coordinate passing
    coordinates, in lexicographic order"""
    return [CommutingTuple(GF(q), n, d, tuple(chain))
            for chain, _ in oracles.walk(n, d, q, oracles.all_matrices, coordinates)]


def per_tuple_census(n, d, q, keep=lambda t: True, coordinates=lambda a: True):
    """raw count, per-stratum histogram (in first-seen order) and unsplit
    count from cycle() on every kept tuple of the enumeration of
    all_tuples(n, d, q, coordinates)"""
    raw, per, unsplit = 0, Counter(), 0
    for t in all_tuples(n, d, q, coordinates):
        if not keep(t):
            continue
        raw += 1
        try:
            per[stratum(cycle(t))] += 1
        except NotSplitError:
            unsplit += 1
    return raw, list(per.items()), unsplit


@pytest.mark.parametrize("n,d,q", [(2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_shared_walk_matches_per_tuple_cycle(n, d, q):
    # the strata are counted from the support morphism and the nilpotent
    # second coordinates from the centralizer dimension; both must count
    # exactly what the per-tuple predicates count, in first-seen order
    raw, per, unsplit = per_tuple_census(n, d, q)
    res = enumerate_census(CensusRequest(n=n, d=d, q=q, per_stratum=True))
    assert (res.raw_count, list(res.per_stratum.items()), res.unsplit_count) == (
        raw, per, unsplit)
    nil = enumerate_census(CensusRequest(n=n, d=d, q=q, nilpotent=True))
    assert nil.raw_count == sum(
        1 for t in all_tuples(n, d, q) if is_punctual(t))


@pytest.mark.parametrize("n,q,rel", [(2, 3, "x1 + x2"), (3, 2, "x1^2 + x2^2")])
def test_census_nilpotent_with_relation(n, q, rel):
    rels = (parse_multipoly(rel, GF(q), 2),)
    raw, per, unsplit = per_tuple_census(
        n, 2, q, lambda t: is_punctual(t) and check_relations(t, rels))
    res = enumerate_census(
        CensusRequest(n=n, d=2, q=q, nilpotent=True, per_stratum=True, relations=rels))
    assert 0 < res.raw_count < enumerate_census(
        CensusRequest(n=n, d=2, q=q, nilpotent=True)).raw_count
    # nilpotent tuples sit at the origin: one point of multiplicity n
    assert per == [((0,) * (n - 1) + (1,), raw)] and unsplit == 0
    assert (res.raw_count, list(res.per_stratum.items()), res.unsplit_count) == (
        raw, per, unsplit)


@pytest.mark.parametrize("n,d,q,rel", [
    (2, 2, 3, "x1*x2"), (3, 2, 2, "x1^2 + x2"), (2, 3, 2, "x1*x2 + x3^2")])
def test_census_per_stratum_with_relation(n, d, q, rel):
    # relations are not translation invariant, so their strata come from
    # the support cycle of every kept tuple
    rels = (parse_multipoly(rel, GF(q), d),)
    raw, per, unsplit = per_tuple_census(n, d, q, lambda t: check_relations(t, rels))
    res = enumerate_census(CensusRequest(n=n, d=d, q=q, per_stratum=True, relations=rels))
    assert (res.raw_count, list(res.per_stratum.items()), res.unsplit_count) == (
        raw, per, unsplit)


_RELATION = {1: "x1^2 + x1", 2: "x1*x2", 3: "x1*x2 + x3^2"}


@pytest.mark.parametrize("n,d,q", [(0, 1, 2), (0, 2, 3), (1, 2, 3), (1, 3, 2), (2, 1, 3),
                                   (2, 2, 2), (2, 3, 2), (3, 2, 2)])
def test_census_matches_per_tuple_on_every_filter(n, d, q):
    # all eight combinations of nilpotent, per_stratum and a relation
    # against cycle() on every tuple, the histogram in first-seen order; at
    # n = 0 the one empty tuple has the empty stratum (), also when nilpotent
    rels = (parse_multipoly(_RELATION[d], GF(q), d),)
    facts = []
    for t in all_tuples(n, d, q):
        try:
            alpha = stratum(cycle(t))
        except NotSplitError:
            alpha = None
        facts.append((is_punctual(t), check_relations(t, rels), alpha))
    for nilpotent, per_stratum, relation in itertools.product((False, True), repeat=3):
        kept = [a for nil, ok, a in facts if (nil or not nilpotent) and (ok or not relation)]
        per = Counter(a for a in kept if a is not None)
        want = (len(kept), list(per.items()), kept.count(None)) if per_stratum else (
            len(kept), None, None)
        res = enumerate_census(CensusRequest(
            n=n, d=d, q=q, nilpotent=nilpotent, per_stratum=per_stratum,
            relations=rels if relation else ()))
        got_per = None if res.per_stratum is None else list(res.per_stratum.items())
        assert (res.raw_count, got_per, res.unsplit_count) == want, (
            nilpotent, per_stratum, relation)


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2)])
def test_census_per_stratum_feit_fine_beyond_brute_force(n, q):
    # strata from the support morphism against the Feit-Fine series
    res = enumerate_census(CensusRequest(n=n, d=2, q=q, per_stratum=True))
    assert (res.per_stratum, res.unsplit_count) == oracles.pair_strata(n, q)


def test_census_nilpotent_feit_fine_beyond_brute_force():
    # 809433 commuting 3x3 pairs over F_3 and 2526976 4x4 pairs over F_2;
    # the second coordinate is counted in the centralizer of each
    # nilpotent class, never walked
    for n, q, count in [(3, 3, 9153), (4, 2, 71296)]:
        res = enumerate_census(CensusRequest(n=n, d=2, q=q, nilpotent=True))
        assert res.raw_count == oracles.feit_fine_pairs(n, q, punctual=True)[n] == count


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2)])
def test_census_all_pairs_feit_fine_beyond_brute_force(n, q):
    # 3^9 and 2^16 first coordinates, walked as 39 and 34 classes
    res = enumerate_census(CensusRequest(n=n, d=2, q=q))
    assert res.raw_count == oracles.feit_fine_pairs(n, q, punctual=False)[n]
    assert res.raw_count == {(3, 3): 809433, (4, 2): 2526976}[(n, q)]


@pytest.mark.parametrize("n,q", [(5, 2), (6, 2), (4, 3), (5, 3), (7, 2), (8, 2), (6, 3)])
def test_census_pairs_feit_fine_past_the_default_budget(n, q):
    # 2^128 nominal pairs at n = 8: the census reads one dimension per block
    config = dataclasses.replace(DEFAULT_CONFIG, census_budget=q ** (2 * n * n))
    for nilpotent in (False, True):
        res = enumerate_census(CensusRequest(n=n, d=2, q=q, nilpotent=nilpotent), config)
        assert res.raw_count == oracles.feit_fine_pairs(n, q, punctual=nilpotent)[n]


@pytest.mark.parametrize("n,d,q", [(2, 4, 2), (2, 3, 5)])
def test_census_scalar_prefixes_match_leaf_walk(n, d, q):
    # each scalar first coordinate adds the (d - 1)-census once per class
    for nilpotent in (False, True):
        res = enumerate_census(CensusRequest(n=n, d=d, q=q, nilpotent=nilpotent))
        assert res.raw_count == oracles.census_leaf_walk(n, d, q, nilpotent)


@pytest.mark.parametrize("n,d,q,per_stratum,most", [
    (2, 2, 5, False, 0), (4, 2, 2, True, 0), (2, 3, 3, False, 0), (3, 3, 2, False, 33)])
def test_census_counts_from_class_data(monkeypatch, n, d, q, per_stratum, most):
    # pairs read dim Z(A) off the partitions; at d = 3 scalar and cyclic
    # blocks are counted in closed form, so at n = 2 nothing eliminates
    # (90 eliminations at (2,3,3) when every non-scalar class walks), and at
    # (3,3,2) only the block t^(2,1) is walked, 1 + 2^5 eliminations (132
    # when each of the four classes with dim Z(A) = 5 walks, 204 when the
    # cyclic classes walk too).  Every elimination over F_q, each
    # kernel and rank included, is the field's ``eliminate``, so patching the
    # class counts them all.
    real = PrimeField.eliminate
    calls = []

    def counting(field, rows, ncols):
        calls.append((rows, ncols))
        return real(field, rows, ncols)

    monkeypatch.setattr(PrimeField, "eliminate", counting)
    enumerate_census(CensusRequest(n=n, d=d, q=q, per_stratum=per_stratum))
    assert len(calls) <= most
    if most:
        assert calls


@pytest.mark.parametrize("nilpotent", [False, True])
def test_cyclic_classes_counted_in_closed_form_match_leaf_walk(nilpotent):
    # at (3,3,2) cyclic, scalar and other first coordinates mix; the cyclic
    # ones add q^(n (d - 1)), or q^((n - 1)(d - 1)) beside a Jordan block
    n, d, q = 3, 3, 2
    kinds = {(dim == n * n, dim == n) for m, size, dim, nil in _classes(n, q)
             if nil or not nilpotent}
    assert kinds == {(True, False), (False, True), (False, False)}
    res = enumerate_census(CensusRequest(n=n, d=d, q=q, nilpotent=nilpotent))
    assert res.raw_count == oracles.census_leaf_walk(n, d, q, nilpotent)


def _counting(monkeypatch, module, name, calls):
    """Patch module.name to record each call's arguments in calls."""
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("req", [
    CensusRequest(n=3, d=3, q=2, nilpotent=True),
    CensusRequest(n=3, d=3, q=2, relations=(parse_multipoly("x1*x2 + x3^2", GF(2), 3),)),
], ids=["nilpotent", "relation"])
def test_chains_eliminate_one_pair_per_extension(monkeypatch, req):
    # each level of a chain eliminates only its new pair's n^2 rows against
    # the prefix's eliminated rows: one _intertwining_rows block per
    # centralizer kernel, where rebuilding the prefix's system takes one
    # block per coordinate
    blocks, kernels = [], []
    _counting(monkeypatch, matrices, "_intertwining_rows", blocks)
    monkeypatch.setattr(census, "_intertwining_rows", matrices._intertwining_rows, raising=False)
    _counting(monkeypatch, census, "_kernel", kernels)
    enumerate_census(req)
    assert kernels
    assert len(blocks) == len(kernels)


_FILTERS = ["none", "nilpotent", "per_stratum", "relation", "all"]


def _by_leaf_walk(monkeypatch, req):
    """enumerate_census(req) with no class data and no orbits: every count
    from the leaf walk over all matrices, weight 1, and under relations
    check_relations and cycle() on every tuple of the weight-1 walk, the
    nilpotent filter applied to each coordinate"""
    n, d, q = req.n, req.d, req.q
    if req.relations:
        raw, per, unsplit = per_tuple_census(
            n, d, q, lambda t: check_relations(t, req.relations),
            _nilpotent if req.nilpotent else lambda a: True)
        glo = gl_order(n, q)
        return CensusResult(n, d, q, raw, glo, Fraction(raw, glo),
                            dict(per) if req.per_stratum else None,
                            unsplit if req.per_stratum else None)
    return _with_counts(monkeypatch, req, oracles.census_leaf_walk)


def _with_counts(monkeypatch, req, count, config=DEFAULT_CONFIG):
    """enumerate_census(req, config) with every count of its request, raw
    and per stratum, taken from count(n, d, q, nilpotent)"""
    with monkeypatch.context() as m:
        m.setattr(census, "_counts", lambda n, q: lambda m, d, nilpotent: count(m, d, q, nilpotent))
        return enumerate_census(req, config)


# the weight-1 walk takes 12-15 s at (3,3,2) with the relation alone; "all"
# walks it there behind the nilpotent filter
@pytest.mark.parametrize("n,d,q,name", [(2, 3, 2, f) for f in _FILTERS] + [
    (2, 3, 3, f) for f in _FILTERS] + [
    (3, 3, 2, f) for f in ("none", "nilpotent", "all", "per_stratum")])
def test_class_weighted_census_matches_all_matrices_walk(monkeypatch, n, d, q, name):
    # no closed form at d = 3: walk every first coordinate with weight 1
    rel = (parse_multipoly("x1*x2 + x3^2", GF(q), 3),)
    kw = {
        "none": {},
        "nilpotent": {"nilpotent": True},
        "per_stratum": {"per_stratum": True},
        "relation": {"relations": rel},
        "all": {"nilpotent": True, "per_stratum": True, "relations": rel},
    }[name]
    req = CensusRequest(n=n, d=d, q=q, **kw)
    assert enumerate_census(req) == _by_leaf_walk(monkeypatch, req)


def test_relation_census_reads_one_representative_per_orbit(monkeypatch):
    # a relation and the support cycle are constant on orbits, so each is
    # read once per orbit, where walking every chain reads both per chain
    n, d, q = 3, 3, 2
    rels = (parse_multipoly("x1*x2 + x3^2", GF(q), d),)
    orbits = orbit_census(n, d, q)
    kept = sum(1 for o in orbits if check_relations(o.representative, rels))
    checks, cycles = [], []
    _counting(monkeypatch, census, "check_relations", checks)
    _counting(monkeypatch, census, "cycle", cycles)
    enumerate_census(CensusRequest(n=n, d=d, q=q, relations=rels))
    assert 0 < len(checks) <= len(orbits) and cycles == []
    enumerate_census(CensusRequest(n=n, d=d, q=q, per_stratum=True, relations=rels))
    assert 0 < len(cycles) <= kept


@pytest.mark.parametrize("d,nilpotent", [(2, False), (2, True), (3, False), (3, True)])
def test_leaf_walk_comparison_sees_a_class_dim_off_by_one(monkeypatch, d, nilpotent):
    # the comparison above must notice any one block whose centralizer dim
    # is wrong, and so the dim of every class that has that block: at
    # d = 3 through the (d - 1)-census beside the scalar classes
    n, q = 2, 3
    req = CensusRequest(n=n, d=d, q=q, nilpotent=nilpotent)
    want = _by_leaf_walk(monkeypatch, req)
    assert enumerate_census(req) == want
    real = census._blocks
    blocks = real(n, q)
    assert [(b.e, b.lam) for b in blocks] == [(1, (1,)), (1, (2,)), (1, (1, 1)), (2, (1,))]
    for i, b in enumerate(blocks):
        if nilpotent and (b.e, sum(b.lam)) != (1, n):  # not a nilpotent class
            continue

        def off_by_one(n, q, i=i):
            out = real(n, q)
            out[i] = dataclasses.replace(out[i], dim=out[i].dim + 1)
            return out

        monkeypatch.setattr(census, "_blocks", off_by_one)
        assert enumerate_census(req) != want, (b.e, b.lam)


@pytest.mark.parametrize("nilpotent", [False, True])
def test_census_refuses_a_centralizer_order_off_by_one(monkeypatch, nilpotent):
    # the class sizes read off a_lam(q^e) must add up to all q^(n^2)
    # matrices, or to the q^(n^2 - n) nilpotent ones, checked with no assert;
    # the orbit and relation censuses list their classes through the types
    n, q = 3, 2
    rel = (parse_multipoly("x1*x2", GF(q), 2),)
    real = census._blocks
    for i, b in enumerate(real(n, q)):
        if nilpotent and (b.e, sum(b.lam)) != (1, n):  # not a nilpotent class
            continue

        def off_by_one(n, q, i=i):
            out = real(n, q)
            out[i] = dataclasses.replace(out[i], order=out[i].order + 1)
            return out

        monkeypatch.setattr(census, "_blocks", off_by_one)
        with pytest.raises(RuntimeError, match="class sizes|centralizer order"):
            enumerate_census(CensusRequest(n=n, d=2, q=q, nilpotent=nilpotent))
        with pytest.raises(RuntimeError, match="class sizes|centralizer order"):
            orbit_census(n, 2, q)
        with pytest.raises(RuntimeError, match="class sizes|centralizer order"):
            enumerate_census(CensusRequest(n=n, d=2, q=q, nilpotent=nilpotent, relations=rel))


def test_census_with_relations():
    # relation x1 forces the first coordinate to vanish
    F3 = GF(3)
    rel = parse_multipoly("x1", F3, 2)
    res = enumerate_census(CensusRequest(n=1, d=2, q=3, relations=(rel,)))
    assert res.raw_count == 3
    # x1*x2 on 1x1: one coordinate must vanish: 3 + 3 - 1 points
    rel2 = parse_multipoly("x1*x2", F3, 2)
    res2 = enumerate_census(CensusRequest(n=1, d=2, q=3, relations=(rel2,)))
    assert res2.raw_count == 5


def test_census_budget_guard():
    tiny = dataclasses.replace(DEFAULT_CONFIG, census_budget=100)
    with pytest.raises(BudgetExceededError):
        enumerate_census(CensusRequest(n=2, d=2, q=2), tiny)


def test_census_nonprime_rejected():
    with pytest.raises(NonprimeQError):
        enumerate_census(CensusRequest(n=1, d=1, q=4))
    with pytest.raises(NonprimeQError):
        orbit_census(1, 1, 6)


def test_orbit_census_partitions_the_variety():
    orbits = orbit_census(2, 2, 2)
    res = enumerate_census(CensusRequest(n=2, d=2, q=2))
    assert sum(o.orbit_size for o in orbits) == res.raw_count
    for o in orbits:
        assert o.orbit_size * o.aut_order == gl_order(2, 2)


def test_orbit_census_burnside_matches_groupoid_count():
    for n, d, q in [(2, 1, 2), (2, 2, 2), (1, 2, 3)]:
        orbits = orbit_census(n, d, q)
        res = enumerate_census(CensusRequest(n=n, d=d, q=q))
        assert burnside_count(orbits) == res.groupoid_count


# n = 0 and n = 1 are the sizes where cutting the conjugates by n^2 breaks first
_BRUTE_FORCE_ORBITS = [(0, 1, 2), (0, 2, 3), (1, 2, 3), (2, 1, 2), (2, 1, 3), (2, 2, 2),
                       (2, 2, 3), (2, 3, 2), (3, 1, 2)]


def _assert_orbits_from_canonical_forms(n, d, q, want):
    # want holds (orbit, aut order, nilpotent) per orbit, the orbit as the
    # set of its tuples.  The census finds the same orbits, with the same
    # sizes, aut orders and flags, in ascending order of representatives.
    # Each representative starts with its class's canonical form.  Its first
    # non-scalar coordinate, if any, is a canonical form m, and it is the
    # lex-first tuple of its orbit with m there; conjugation fixes the
    # scalars before m, so with a non-scalar first coordinate that is the
    # lex-first tuple of its orbit starting with that form
    forms = {m for m, size, dim, nilpotent in _classes(n, q)}
    one = Matrix.identity(GF(q), n).entries
    scalars = {tuple(c * x for x in one) for c in range(q)}
    where = {t: orbit for orbit, _, _ in want for t in orbit}
    keys, got = [], {}
    for o in orbit_census(n, d, q):
        key = tuple(m.entries for m in o.representative.mats)
        orbit = where[key]
        assert key[0] in forms
        j = next((j for j, a in enumerate(key) if a not in scalars), None)
        if j is None:
            assert orbit == {key}
        else:
            assert key[j] in forms
            assert key == min(t for t in orbit if t[j] == key[j])
        keys.append(key)
        got[orbit] = (o.orbit_size, o.aut_order, o.nilpotent)
    assert keys == sorted(keys) and len(keys) == len(want)
    assert got == {orbit: (len(orbit), aut, nilpotent) for orbit, aut, nilpotent in want}


@pytest.mark.parametrize("n,d,q", _BRUTE_FORCE_ORBITS)
def test_orbit_census_matches_brute_force_orbits(n, d, q):
    _assert_orbits_from_canonical_forms(n, d, q, oracles.orbits(n, d, q))


def test_orbit_census_refuses_a_walk_that_misses_a_tuple(monkeypatch):
    # every conjugate of a walked chain must itself have been walked: the
    # centralizer of each class's first prefix, m alone, loses its last
    # singular element that no orbit representative takes as its second
    # coordinate, so Z_GL(m) stays whole and one chain is missed.
    # Z(m) = F_q[m] is commutative for a cyclic m, so every orbit inside it
    # is a point; the first sizes with others have n = 3
    n, d, q = 3, 2, 2
    seconds = {o.representative.mats[1].entries for o in orbit_census(n, d, q)}
    real = census._span
    dropped = []

    def dropping(vectors, cells, q):
        out = real(vectors, cells, q)
        # a cyclic class's span has at most n vectors, I, m, ..., m^(n - 1)
        if len(vectors) > n:
            i = next(i for i in reversed(range(len(out)))
                     if out[i] not in seconds and rank(Matrix(GF(q), n, n, out[i])) < n)
            dropped.append(out.pop(i))
        return out

    monkeypatch.setattr(census, "_span", dropping)
    with pytest.raises(RuntimeError, match="outside the walked variety"):
        orbit_census(n, d, q)
    assert dropped


def test_orbit_census_refuses_a_cyclic_walk_that_misses_a_chain(monkeypatch):
    # through a cyclic m every chain is its own orbit, so no conjugate can
    # notice a lost one: the q^n elements of the span of I, m, ...,
    # m^(n - 1) are the check (q^(n - 1), of m, ..., m^(n - 1), under the
    # nilpotent filter).  At n = 2 every non-scalar class is cyclic and
    # no other walk takes a span
    real = census._span
    monkeypatch.setattr(census, "_span", lambda *args: real(*args)[:-1])
    with pytest.raises(RuntimeError, match="cyclic"):
        orbit_census(2, 2, 3)
    x1x2 = parse_multipoly("x1*x2", GF(3), 2)
    with pytest.raises(RuntimeError, match="cyclic"):
        enumerate_census(CensusRequest(n=2, d=2, q=3, nilpotent=True, relations=(x1x2,)))


@pytest.mark.parametrize("n,d,q,per_stratum,raw,per", [
    (2, 5, 3, True, 969, {(0, 1): 969}),
    (3, 2, 2, False, 316, None),
])
def test_nilpotent_relation_census_spans_only_the_nilpotent_powers(
        monkeypatch, n, d, q, per_stratum, raw, per):
    # under the nilpotent filter a cyclic first coordinate is one nilpotent
    # Jordan block m, and the nilpotent elements of F_q[m] are the span of
    # m, ..., m^(n - 1): q^(n - 1) of them, where F_q[m] has q^n.  At n = 2
    # it is the only span taken.  The counts are those of the walk that took
    # all of F_q[m]
    sizes = []
    real = census._span

    def span(*args):
        out = real(*args)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(census, "_span", span)
    x1x2 = parse_multipoly("x1*x2", GF(q), d)
    res = enumerate_census(CensusRequest(n=n, d=d, q=q, nilpotent=True, per_stratum=per_stratum,
                                         relations=(x1x2,)))
    assert (res.raw_count, res.per_stratum, res.unsplit_count) == (raw, per, 0 if per else None)
    if n == 2:
        assert sizes == [q ** (n - 1)]


def test_orbit_census_nilpotent_counts():
    # nilpotent orbits of single 2x2 matrices over F_2: zero and the
    # regular nilpotent class
    orbits = orbit_census(2, 1, 2)
    nilp = [o for o in orbits if is_punctual(o.representative)]
    assert sorted(o.orbit_size for o in nilp) == [1, 3]
    # the recorded flag is the orbit-constant check's answer
    for n, d, q in _BRUTE_FORCE_ORBITS:
        for o in orbit_census(n, d, q):
            assert o.nilpotent == is_punctual(o.representative)


def _group(n, q):
    return [(g, g_inv) for g, _ in oracles.all_matrices(n, q) if (g_inv := inverse(g)) is not None]


@pytest.mark.parametrize("n,q,sample", [(2, 3, None), (3, 2, 20)])
def test_conjugation_map_matches_matrix_products(n, q, sample):
    # the stacked map times vec(a) is vec(g a g^-1) for each g in turn
    group = _group(n, q)
    stacked = _conjugation_map(group, n, q)
    mats = [a for a, _ in oracles.all_matrices(n, q)]
    if sample:
        mats = random.Random(1).sample(mats, sample)
    for a in mats:
        want = [x for g, _ in group for x in (g * a * inverse(g)).entries]
        assert GF(q).products([a.entries], stacked) == want


@pytest.mark.parametrize("n,d,q", [(2, 3, 2), (2, 2, 3)])
def test_orbit_census_conjugates_each_distinct_matrix_in_one_product(monkeypatch, n, d, q):
    # every call into the field's product kernels is counted, Matrix.__mul__'s
    # too: at most one conjugation and one nilpotency test per distinct
    # matrix, where conjugating each tuple by each g alone makes thousands
    calls = []

    def counting(real):
        def wrapped(field, rows, cols):
            calls.append((rows, cols))
            return real(field, rows, cols)
        return wrapped

    for name in ("products", "dots"):
        monkeypatch.setattr(PrimeField, name, counting(getattr(PrimeField, name)))
    orbit_census(n, d, q)
    assert 0 < len(calls) <= 2 * q ** (n * n)


def test_orbit_census_refuses_a_corrupted_conjugation_map(monkeypatch):
    # a non-identity element of Z_GL(m) that acts as the identity breaks
    # the orbit-stabilizer count (first at n = 3, where some Z(m) is not
    # commutative).  The check is a raise, so python -O keeps it
    real = census._conjugation_map
    n, q = 3, 2
    identity = Matrix.identity(GF(q), n)
    cells = n * n

    def corrupted(group, n, q):
        rows = real(group, n, q)
        e = next(i for i, (g, _) in enumerate(group) if g == identity)
        if len(group) > 1:
            other = next(i for i in range(len(group)) if i != e)
            rows[other * cells:(other + 1) * cells] = rows[e * cells:(e + 1) * cells]
        return rows

    orbit_census(n, 2, q)
    monkeypatch.setattr(census, "_conjugation_map", corrupted)
    with pytest.raises(RuntimeError, match="orbit-stabilizer"):
        orbit_census(n, 2, q)


@pytest.mark.parametrize("n,d,q", [(3, 3, 2), (2, 2, 5), (2, 3, 3), (3, 2, 2)])
def test_orbit_census_by_class_matches_the_whole_walk(n, d, q):
    want = [(orbit, o.aut_order, o.nilpotent) for o, orbit in oracles.orbit_census_walk(n, d, q)]
    _assert_orbits_from_canonical_forms(n, d, q, want)


@pytest.mark.parametrize("n,d,q,kernels", [(2, 3, 2, 0), (3, 3, 2, 132)])
def test_orbit_census_walks_only_inside_the_centralizers(monkeypatch, n, d, q, kernels):
    # one walk per non-scalar, non-cyclic class to depth d - 1 = 2: one
    # kernel for m and one per element of Z(m), where walking the whole
    # variety takes 7,968; a cyclic class takes the span of its powers, with
    # no elimination, and at n = 2 every non-scalar class is cyclic
    calls = []
    _counting(monkeypatch, census, "_kernel", calls)
    orbit_census(n, d, q)
    assert len(calls) == kernels
    assert kernels == sum(1 + q**dim for m, size, dim, nilpotent in _classes(n, q)
                          if dim not in (n * n, n))


def test_census_eliminates_only_inside_the_walk(monkeypatch):
    # the count reads q^dim Z(prefix) off the kernel basis the walk found
    # for each prefix of d - 1 coordinates, so every elimination is one of
    # the walk's kernels: 1 + 2^5 for the one walked block, t^(2,1), that
    # the two classes t^(2,1) and (t + 1)^(2,1) share (132 when each of the
    # four classes that are neither scalar nor cyclic walks)
    kernels, eliminations = [], []
    _counting(monkeypatch, census, "_kernel", kernels)
    _counting(monkeypatch, PrimeField, "eliminate", eliminations)
    enumerate_census(CensusRequest(n=3, d=3, q=2))
    assert len(kernels) == len(eliminations) == 33


@pytest.mark.parametrize("n,d,q,blocks", [(3, 3, 2, [(1, (2, 1))]), (4, 3, 2, [
    (1, (2, 1)), (1, (3, 1)), (1, (2, 2)), (1, (2, 1, 1)), (2, (1, 1))])])
def test_census_walks_each_block_once(monkeypatch, n, d, q, blocks):
    # one walk from the canonical form of each block (e, lam) that is
    # neither cyclic nor t^(1^j), however many classes and types share it;
    # the (2, (1, 1)) block at (4,3,2) takes an irreducible of degree 2
    roots = []
    _counting(monkeypatch, census, "_walk", roots)
    config = dataclasses.replace(DEFAULT_CONFIG, census_budget=q ** (d * n * n))
    res = enumerate_census(CensusRequest(n=n, d=d, q=q), config)
    roots = [chain[0] for chain, *_ in roots if len(chain) == 1]
    assert len(roots) == len(blocks)
    # t^k, or phi = t^2 + t + 1 for the one block (2, (1, 1))
    want = [census._canonical_form(q, [(0,) * k + (1,) if e == 1 else (1, 1, 1) for k in lam])
            for e, lam in blocks]
    assert sorted(m.entries for m in roots) == sorted(want)
    assert res.raw_count == oracles.census_by_classes(n, d, q, False)


# every rung of the benchmark's census ladder, and every filter a count takes
_LADDER = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 2, 5), (2, 3, 2), (2, 3, 3)]
_COUNT_FILTERS = [{}, {"nilpotent": True}, {"per_stratum": True}, {"nilpotent": True, "per_stratum": True}]


@pytest.mark.parametrize("n,d,q", _LADDER)
def test_counts_list_no_classes(monkeypatch, n, d, q):
    # the counts sum over class types and nilpotent partitions: no class
    # list, and no irreducible but for a walked block of degree >= 2
    def refuse(*args):
        raise AssertionError("the count path listed classes or irreducibles")

    want = [enumerate_census(CensusRequest(n=n, d=d, q=q, **kw)) for kw in _COUNT_FILTERS]
    monkeypatch.setattr(census, "_classes", refuse)
    monkeypatch.setattr(census, "_irreducibles", refuse)
    for kw, res in zip(_COUNT_FILTERS, want):
        assert enumerate_census(CensusRequest(n=n, d=d, q=q, **kw)) == res


@pytest.mark.parametrize("n,d,q", [(2, 3, 2), (2, 3, 3), (3, 3, 2), (2, 4, 2), (3, 3, 3), (4, 2, 3),
                                   (4, 3, 2), (3, 4, 2)])
def test_census_by_types_matches_class_by_class(monkeypatch, n, d, q):
    # the type sum and the block walks against the count over every class
    # of the first coordinate, each walked from its own canonical form
    config = dataclasses.replace(DEFAULT_CONFIG, census_budget=q ** (d * n * n))
    by_classes = functools.cache(oracles.census_by_classes)
    for kw in _COUNT_FILTERS:
        req = CensusRequest(n=n, d=d, q=q, **kw)
        assert enumerate_census(req, config) == _with_counts(monkeypatch, req, by_classes, config), kw


def test_orbit_census_inverts_only_centralizer_elements(monkeypatch):
    # the d = 1 orbits are the classes, so no group element is inverted and
    # no product is taken; at d = 2, at most one inverse per element of
    # each walked Z(m).  Every module that binds inverse is patched
    calls, products = [], []
    real = matrices.inverse
    for module in list(sys.modules.values()):
        if module.__name__.startswith("commvar") and getattr(module, "inverse", None) is real:
            _counting(monkeypatch, module, "inverse", calls)
    assert census.inverse is not real
    with monkeypatch.context() as m:
        for name in ("products", "dots"):
            _counting(m, PrimeField, name, products)
        orbit_census(3, 1, 2)
    assert calls == [] and products == []
    orbit_census(3, 2, 2)
    # a cyclic class's Z(m) = F_q[m] is commutative: it needs no group
    walked = sum(2**dim for m, size, dim, nilpotent in _classes(3, 2) if dim not in (9, 3))
    assert 0 < len(calls) <= walked
    # at n = 2 every non-scalar class is cyclic
    calls.clear()
    orbit_census(2, 3, 3)
    assert calls == []


def test_orbit_census_deterministic():
    a = orbit_census(2, 1, 2)
    b = orbit_census(2, 1, 2)
    assert [(tuple(m.entries for m in o.representative.mats), o.orbit_size) for o in a] == [
        (tuple(m.entries for m in o.representative.mats), o.orbit_size) for o in b
    ]


def test_census_empty_module_size_zero():
    res = enumerate_census(CensusRequest(n=0, d=2, q=3))
    assert res.raw_count == 1
    assert res.groupoid_count == 1
