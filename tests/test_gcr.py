import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from destab import (
    COMPLETELY_REDUCIBLE,
    Cocharacter,
    DomainError,
    GroupSpec,
    InvariantViolation,
    LieSubalgebra,
    MembershipClass,
    ModeError,
    NOT_COMPLETELY_REDUCIBLE,
    OPTIMAL,
    PreconditionError,
    SearchConfig,
    SubgroupPresentation,
    TRIVIAL,
    building_centre,
    c_lambda,
    centralizer_dim,
    classify,
    enveloping_algebra,
    find_ru_conjugator,
    is_gcr_algebra,
    is_gcr_search,
    is_generic_tuple,
    lie_is_gcr,
    limit,
    optimal_parabolic_subgroup,
    radical_dim,
    reduce_to_gcr,
)
from destab import DestabError, gcr, instability, linalg
from destab.corpus import _divisors, _generator_tangents, _tangent_span, corpus_config, subgroup_corpus
from destab.gcr import EnvelopingAlgebra, _flatten, algebra_of_tuple, radical_basis
from destab.parabolic import _limit_pattern
from destab.reps import _unflatten

GL2 = GroupSpec.make(("GL", 2))
GL3 = GroupSpec.make(("GL", 3))
SL2 = GroupSpec.make(("SL", 2))

UNIP = SubgroupPresentation(GL2, (((1, 1), (0, 1)),))
DIAG = SubgroupPresentation(GL2, (((2, 0), (0, 3)),))
SWAP = SubgroupPresentation(GL2, (((0, 1), (1, 0)),))
TRIVIAL_H = SubgroupPresentation(GL2, (((1, 0), (0, 1)),))


def cfg_for(group, box=4):
    return SearchConfig.default(group, exponent_box=box, shear_values=(-2, -1, 1, 2))


def test_enveloping_algebra_examples():
    assert enveloping_algebra(UNIP).dimension == 2
    assert enveloping_algebra(DIAG).dimension == 2
    assert enveloping_algebra(TRIVIAL_H).dimension == 1
    alg = enveloping_algebra(UNIP)
    assert alg.contains(linalg.mat([[0, 5], [0, 0]]))
    assert not alg.contains(linalg.mat([[0, 0], [1, 0]]))


def test_enveloping_algebra_contains_inverses():
    h = SubgroupPresentation(GL2, (((2, 1), (1, 1)),))
    alg = enveloping_algebra(h)
    assert alg.contains(linalg.inverse(linalg.mat([[2, 1], [1, 1]])))


def _recomputing_span_closure(group, seeds, multipliers):
    """Reference: the closure that recomputed the row space of every
    accepted matrix for each candidate, which the echelon basis replaced,
    and multiplied Fraction matrices, which the integer words replaced."""
    m = group.dimension
    basis_rows = []
    basis_mats = []

    def try_add(x):
        flat = _flatten(x)
        if basis_rows and linalg.in_row_space(flat, linalg.row_space(tuple(basis_rows))):
            return False
        if not basis_rows and all(c == 0 for c in flat):
            return False
        basis_rows.append(flat)
        basis_mats.append(x)
        return True

    for s in seeds:
        try_add(s)
    frontier = list(basis_mats)
    while frontier:
        fresh = []
        for b in frontier:
            for g in multipliers:
                candidate = linalg.mat_mul(b, g)
                if try_add(candidate):
                    fresh.append(candidate)
        frontier = fresh
    return EnvelopingAlgebra(group, tuple(basis_mats))


def _scaled_recomputing_span_closure(group, seeds, steps):
    """``_recomputing_span_closure`` on the scaled seeds and factored
    multipliers that ``gcr._span_closure`` takes."""
    return _recomputing_span_closure(group, [x.fractions() for x in seeds], list(map(_unfactor, steps)))


def _unfactor(factor):
    """The Fraction matrix of a ``linalg._Scaled.factor()``."""
    terms, m, scale = factor
    rows = [[F(0)] * m for _ in terms]
    for row, row_terms in zip(rows, terms):
        for j, y in row_terms:
            row[j] = F(y, scale)
    return linalg.mat(rows)


def _twisted_corpus(seed, size):
    """The corpus with each generator scaled by one of +-1, +-2, +-1/2."""
    rng = random.Random(seed)
    twists = [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)]
    return [
        SubgroupPresentation(h.group, tuple(linalg.mat_scale(rng.choice(twists), g) for g in h.generators))
        for h in subgroup_corpus(seed, size)
    ]


def test_enveloping_algebra_matches_recomputing_reference(monkeypatch):
    # the same matrices accepted in the same order, also with zero seeds
    # and a zero multiplier; the echelon basis the closure keeps is the one
    # its basis builds
    zero = linalg.zeros(2, 2)
    half = linalg.mat([[F(1, 2), F(-3, 4)], [0, F(5, 6)]])
    cases = [([zero], [UNIP.generators[0]]), ([GL2.identity(), zero], [zero, SWAP.generators[0], half])]
    for seeds, mults in cases:
        algebra = gcr._span_closure(GL2, [linalg._Scaled.of(x) for x in seeds], [linalg._Scaled.of(g).factor() for g in mults])
        assert algebra == _recomputing_span_closure(GL2, seeds, mults)
        assert algebra._echelon == EnvelopingAlgebra(GL2, algebra.basis)._echelon
    corpus = [h for s in (1, 2, 3) for h in subgroup_corpus(s, 200) + _twisted_corpus(s, 60)]
    new = [enveloping_algebra(h) for h in corpus]
    assert all(a._echelon == EnvelopingAlgebra(a.group, a.basis)._echelon for a in new)
    monkeypatch.setattr(gcr, "_span_closure", _scaled_recomputing_span_closure)
    old = [enveloping_algebra(h) for h in corpus]
    assert [a.basis for a in new] == [a.basis for a in old]
    assert {len(a.basis) for a in new} >= {1, 2, 3, 4, 9}


def _dense_contains(algebra, x):
    """Reference: membership by dense reduction against the RREF basis,
    which the sparse echelon rows replaced."""
    rows = linalg.row_space(tuple(_flatten(b) for b in algebra.basis))
    return linalg.in_row_space(_flatten(linalg.mat(x)), rows)


def test_enveloping_algebra_contains_matches_dense_reference():
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    for h in subgroup_corpus(2, 40):
        algebra = enveloping_algebra(h)
        m = h.group.dimension
        probes = [linalg.mat_mul(x, y) for x in algebra.basis[:3] for y in algebra.basis[-3:]]
        probes += [linalg.mat([[rng.choice((0, 0, 1, -1, 2)) for _ in range(m)] for _ in range(m)]) for _ in range(4)]
        probes.append(linalg.mat_add(algebra.basis[0], linalg.mat([[F(1, 2) if (i, j) == (m - 1, 0) else 0 for j in range(m)] for i in range(m)])))
        for x in probes:
            inside = algebra.contains(x)
            assert inside == _dense_contains(algebra, x)
            seen[inside] += 1
    assert min(seen.values()) >= 20, seen


def test_enveloping_algebra_rejects_a_basis_that_is_not_closed(monkeypatch):
    # span{1, e12, e21} holds no e11 = e12 e21
    e12 = linalg.mat([[0, 1], [0, 0]])
    e21 = linalg.mat([[0, 0], [1, 0]])
    basis = (GL2.identity(), e12, e21)
    monkeypatch.setattr(gcr, "_span_closure", lambda group, seeds, mults: EnvelopingAlgebra(group, basis))
    with pytest.raises(InvariantViolation, match="not multiplicatively closed"):
        enveloping_algebra(SWAP)


def _closed_under_all_products(algebra):
    """Reference: the n^2 closure check that the n k certificate replaced."""
    return all(algebra.contains(linalg.mat_mul(x, y)) for x in algebra.basis for y in algebra.basis)


def _certified(monkeypatch, h, basis):
    """Does ``enveloping_algebra`` accept ``basis`` as the algebra of h?
    The injected algebra builds its echelon basis from ``basis``."""
    monkeypatch.setattr(gcr, "_span_closure", lambda group, seeds, mults: EnvelopingAlgebra(group, basis))
    try:
        enveloping_algebra(h)
    except InvariantViolation:
        return False
    return True


def test_closure_certificate_matches_all_products_on_corpus(monkeypatch):
    # the built bases pass both checks; doctored ones (the last element
    # dropped, or E_11 appended) pass the certificate only when every
    # product of two basis elements lies in their span
    corpus = subgroup_corpus(1, 200) + subgroup_corpus(2, 200)
    algebras = [algebra_of_tuple(h.group, h.generators) for h in corpus]
    assert all(_closed_under_all_products(a) for a in algebras)
    assert [enveloping_algebra(h) for h in corpus] == algebras
    outcomes = {"dropped": [0, 0], "appended": [0, 0]}  # [certified, closed]
    for h, algebra in zip(corpus, algebras):
        m = h.group.dimension
        e11 = linalg.mat([[int(i == j == 0) for j in range(m)] for i in range(m)])
        doctored = {"dropped": algebra.basis[:-1]}
        if not algebra.contains(e11):
            doctored["appended"] = algebra.basis + (e11,)
        for kind, basis in doctored.items():
            if not basis:
                continue
            certified = _certified(monkeypatch, h, basis)
            closed = _closed_under_all_products(EnvelopingAlgebra(h.group, basis))
            assert closed or not certified
            outcomes[kind][0] += certified
            outcomes[kind][1] += closed
    assert outcomes["dropped"][0] == 0 and outcomes["appended"][0] == 0
    assert outcomes["dropped"][1] > 0 and outcomes["appended"][1] > 0, outcomes


def test_closure_certificate_rejects_a_basis_closed_under_the_generators_only(monkeypatch):
    # every b g lies in the span and the span holds I, but E_12 E_21 = E_11
    # does not: E_12 and E_21 are not words in the generators
    e12 = linalg.mat([[0, 1], [0, 0]])
    e21 = linalg.mat([[0, 0], [1, 0]])
    assert not _certified(monkeypatch, TRIVIAL_H, (GL2.identity(), e12, e21))
    # without I: span{s} is closed under the generator I, but s s = I
    s = SWAP.generators[0]
    assert not _closed_under_all_products(EnvelopingAlgebra(GL2, (s,)))
    assert not _certified(monkeypatch, TRIVIAL_H, (s,))
    g = linalg.mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    h = SubgroupPresentation(GL3, (g,))
    basis = (GL3.identity(), g, linalg.mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), linalg.mat([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
    assert all(EnvelopingAlgebra(GL3, basis).contains(linalg.mat_mul(b, g)) for b in basis)
    assert not _closed_under_all_products(EnvelopingAlgebra(GL3, basis))
    monkeypatch.setattr(gcr, "_span_closure", lambda group, seeds, mults: EnvelopingAlgebra(group, basis))
    with pytest.raises(InvariantViolation, match="not spanned by words"):
        enveloping_algebra(h)


def _trace(a):
    return sum(a[i][i] for i in range(len(a)))


def _product_trace_radical_basis(a):
    """Reference: the Fraction trace form from full products and its
    Fraction nullspace, which the integer Gram matrix of the basis's
    integer rows replaced."""
    n = a.dimension
    gram = tuple(
        tuple(_trace(linalg.mat_mul(a.basis[i], a.basis[j])) for j in range(n))
        for i in range(n)
    )
    flat = tuple(_flatten(b) for b in a.basis)
    combos = linalg.mat_mul(linalg.nullspace(gram, n), flat)
    return tuple(gcr._unflatten(v, a.group.dimension) for v in combos)


def _fraction_entries(mats):
    """Every entry of every matrix is a Fraction, none an int."""
    return all(type(x) is F for g in mats for row in g for x in row)


def test_returned_matrices_hold_fractions_only():
    # integer matrices stay inside: bases, radicals, witnesses, limits,
    # quotients and conjugators come back as Fractions
    counts = dict(open=0, radical=0, conjugator=0)
    for h in _twisted_corpus(1, 60) + _twisted_corpus(2, 60):
        cfg = corpus_config(h.group)
        assert _fraction_entries(enveloping_algebra(h).basis)
        algebraic = is_gcr_algebra(h)
        chain, quotient = reduce_to_gcr(h)
        assert _fraction_entries(quotient.generators)
        for lam in chain:
            assert _fraction_entries((lam.base, lam.base_inverse))
        if algebraic.witness_radical:
            assert _fraction_entries(algebraic.witness_radical)
            counts["radical"] += 1
        verdict = instability.is_cochar_closed(h.tuple_point(), cfg)
        assert all(_fraction_entries((lam.base, lam.base_inverse)) for lam in verdict.examined)
        if not verdict.closed:
            lam = verdict.witness
            assert _fraction_entries(verdict.witness_limit + (lam.base, lam.base_inverse))
            counts["open"] += 1
        for lam in verdict.examined[:3]:
            projected = c_lambda(h.generators, lam)
            assert _fraction_entries(projected)
            u = find_ru_conjugator(h.tuple_point(), h.tuple_rep().point(projected), lam)
            if u is not None:
                assert _fraction_entries((u,))
                counts["conjugator"] += 1
    assert min(counts.values()) >= 10, counts


def _triangular_subgroup(rng, group):
    """Two or three generators that are upper triangular in every factor
    block (determinant 1 on SL blocks), conjugated by a dense block frame:
    their algebras mostly have a nonzero radical."""
    frame = _dense_frame(rng, group)
    inverse = linalg.inverse(frame)
    gens = []
    for _ in range(rng.randint(2, 3)):
        g = [[F(0)] * group.dimension for _ in range(group.dimension)]
        for f, block in zip(group.factors, group.block_slices):
            for i in block:
                g[i][i] = F(rng.choice((1, -1, 2, 3, F(1, 2))))
                for j in block:
                    if j > i:
                        g[i][j] = F(rng.randint(-2, 2), rng.choice((1, 2)))
            if f.family == "SL":
                g[block[-1]][block[-1]] = 1 / math.prod(g[i][i] for i in block[:-1])
        gens.append(linalg.mat_mul(linalg.mat_mul(frame, linalg.mat(g)), inverse))
    return SubgroupPresentation(group, gens)


def test_radical_basis_matches_product_trace_reference():
    # the corpus, its rational twists (scales other than 1), and seeded
    # triangular subgroups of GL_2 x SL_2 and GL_1 x GL_2 with a radical
    sizes = set()
    corpus = subgroup_corpus(2, 40) + _twisted_corpus(1, 60) + _twisted_corpus(3, 60)
    for h in corpus:
        algebra = enveloping_algebra(h)
        radical = radical_basis(algebra)
        assert radical == _product_trace_radical_basis(algebra)
        sizes.add(len(radical))
    assert len(sizes) >= 3, sizes
    assert any(1 < s.scale for h in corpus for s in enveloping_algebra(h)._scaled)
    rng = random.Random(22)
    for group in (GroupSpec.make(("GL", 2), ("SL", 2)), GroupSpec.make(("GL", 1), ("GL", 2))):
        nonzero = 0
        for _ in range(30):
            algebra = enveloping_algebra(_triangular_subgroup(rng, group))
            radical = radical_basis(algebra)
            assert radical == _product_trace_radical_basis(algebra)
            nonzero += bool(radical)
        assert nonzero >= 15, (group, nonzero)


# sha256 of repr([(_radical_filtration(h), enveloping_algebra(h).basis) for
# every h in subgroup_corpus(seed, 200)]), as the Fraction trace form gave it
_ALGEBRA_ROUTE_DIGESTS = {
    1: "edc743f1c87f3b5db1b49d002650c392193e33854e0caee040b2828862aaa9c9",
    2: "2e1bea77a8450f18d5d1332c10db5b1b493a12ab2f6804b6244ecfe7f7870df8",
    3: "ec6e25707274258327df85cb9aa4f2e7ee5c5c46c9fa4d891f9673adedfbfe92",
}


def test_algebra_route_outputs_pinned():
    for seed, digest in _ALGEBRA_ROUTE_DIGESTS.items():
        out = [(gcr._radical_filtration(h), enveloping_algebra(h).basis) for h in subgroup_corpus(seed, 200)]
        assert hashlib.sha256(repr(out).encode()).hexdigest() == digest, seed


def _gcr_corpus_record(h, cfg):
    """One ``gcr-corpus`` case as JSON-ready data, rationals as strings: the
    algebra verdict with its witness cocharacter and radical, the search
    verdict with its witness and the number of cocharacters it examined,
    and, for a search witness, the limit of the generator tuple along it and
    the radical conjugator found for that limit."""

    def rationals(mat):
        return [[str(x) for x in row] for row in mat]

    def cocharacter(lam):
        return None if lam is None else {"base": rationals(lam.base), "exponents": list(lam.torus.exponents)}

    algebra, searched = is_gcr_algebra(h), is_gcr_search(h, cfg)
    record = {
        "algebra": {
            "status": algebra.status,
            "witness": cocharacter(algebra.witness_cocharacter),
            "radical": None if algebra.witness_radical is None else [rationals(x) for x in algebra.witness_radical],
        },
        "search": {
            "status": searched.status,
            "witness": cocharacter(searched.witness_cocharacter),
            "examined": len(searched.examined),
            "box": searched.bounded_box,
        },
    }
    lam = searched.witness_cocharacter
    if lam is not None:
        v = h.tuple_point()
        v_limit = limit(v, lam)
        u = None if v_limit is None else find_ru_conjugator(v, v_limit, lam)
        record["witness_limit"] = None if v_limit is None else [str(x) for x in v_limit.coords]
        record["witness_conjugator"] = None if u is None else rationals(u)
    return record


# sha256 of the sorted-key JSON of _gcr_corpus_record over one round of the
# 65 ``gcr-corpus`` cases of ``bench/workloads.py`` at seeds 1, 2, 3 and 5,
# in order, the known-fault case included as it stands: 260 records, 88
# with a search witness, 1,456 examined cocharacters
_GCR_CORPUS_DIGEST = "2ecd96304622e5d80f047bc4b2f57a167d6d09cc5385d0e999565e90e1768f61"


def test_gcr_corpus_outputs_pinned(monkeypatch, tmp_path):
    # the workload module is imported from bench/ without writing bytecode there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    records = []
    for seed in (1, 2, 3, 5):
        state = workloads._build_gcr(seed, tmp_path)
        for case in workloads._round_gcr(state):
            h = case.live["h"]
            records.append(_gcr_corpus_record(h, state["configs"][h.group]))
    assert len(records) == 260
    assert sum(r["search"]["witness"] is not None for r in records) == 88
    assert sum(r["search"]["examined"] for r in records) == 1456
    canon = json.dumps(records, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(canon).hexdigest() == _GCR_CORPUS_DIGEST


def _unit(m, i, j):
    return linalg.mat([[int((a, b) == (i, j)) for b in range(m)] for a in range(m)])


def test_full_matrix_algebra_certificate_keeps_its_word_check(monkeypatch):
    # spans of dimension m^2 that are not spanned by words are refused;
    # a dependent basis of m^2 words takes no full-algebra exit
    diag3 = linalg.mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    cycle = linalg.mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    diag2, swap = DIAG.generators[0], SWAP.generators[0]
    subgroups = (SubgroupPresentation(GL2, (diag2, swap)), SubgroupPresentation(GL3, (diag3, cycle)))
    assert [enveloping_algebra(h).dimension for h in subgroups] == [4, 9]
    for h in subgroups:
        m = h.group.dimension
        units = tuple(_unit(m, i, j) for i in range(m) for j in range(m))
        with_identity = (h.group.identity(),) + units[1:]
        for basis in (units, with_identity):
            assert len(EnvelopingAlgebra(h.group, basis)._echelon) == m * m
            monkeypatch.setattr(gcr, "_span_closure", lambda group, seeds, mults, basis=basis: EnvelopingAlgebra(group, basis))
            with pytest.raises(InvariantViolation, match="not spanned by words"):
                enveloping_algebra(h)
    # I, a, b and a a are words, but a a lies in span{I, a}, and a b does
    # not lie in span{I, a, b}
    basis = (GL2.identity(), diag2, swap, linalg.mat_mul(diag2, diag2))
    assert len(EnvelopingAlgebra(GL2, basis)._echelon) == 3
    monkeypatch.setattr(gcr, "_span_closure", lambda group, seeds, mults: EnvelopingAlgebra(group, basis))
    with pytest.raises(InvariantViolation, match="not multiplicatively closed"):
        enveloping_algebra(SubgroupPresentation(GL2, (diag2, swap)))


def test_full_matrix_algebra_ends_the_closure_and_the_certificate(monkeypatch):
    # a GL_3 subgroup that generates M_3: fewer than n k products in the
    # closure and in its certificate, the reference's basis, no radical
    h = subgroup_corpus(1, 200)[5]
    n, k = 9, len(h.generators)
    products = []
    times = linalg._Scaled.times

    def counted(self, factor):
        products.append(self)
        return times(self, factor)

    monkeypatch.setattr(linalg._Scaled, "times", counted)
    algebra = algebra_of_tuple(h.group, h.generators)
    closure = len(products)
    assert enveloping_algebra(h) == algebra
    certificate = len(products) - 2 * closure
    assert algebra.dimension == n and closure < n * k and 0 < certificate < n * k, (closure, certificate)
    assert algebra == _recomputing_span_closure(h.group, [h.group.identity()], list(h.generators))
    assert radical_basis(algebra) == () and _product_trace_radical_basis(algebra) == ()


def test_is_generic_tuple():
    g1 = ((2, 0), (0, 3))
    g2 = ((0, 1), (1, 0))
    h = SubgroupPresentation(GL2, (g1, g2))
    assert enveloping_algebra(h).dimension == 4
    assert is_generic_tuple((g1, g2), h)
    assert not is_generic_tuple((g1,), h)
    assert not is_generic_tuple((((1, 0), (0, 1)),), h)
    with pytest.raises(PreconditionError):
        is_generic_tuple((((0, 0), (1, 0)),), UNIP)


def test_radical_dim_examples():
    alg = enveloping_algebra(UNIP)
    assert radical_dim(alg) == 1
    (rad,) = radical_basis(alg)
    assert rad[0][0] == 0 and rad[1][1] == 0 and rad[1][0] == 0 and rad[0][1] != 0
    assert radical_dim(enveloping_algebra(DIAG)) == 0
    assert radical_dim(enveloping_algebra(TRIVIAL_H)) == 0


def test_is_gcr_algebra_examples():
    assert is_gcr_algebra(UNIP).status == NOT_COMPLETELY_REDUCIBLE
    assert is_gcr_algebra(SWAP).status == COMPLETELY_REDUCIBLE
    assert is_gcr_algebra(TRIVIAL_H).status == COMPLETELY_REDUCIBLE


def _assert_algebra_witness(h, verdict):
    """The witness lambda holds every generator in P_lambda, the limit of
    the tuple exists, and no element of R_u(P_lambda) conjugates the tuple
    to it."""
    lam = verdict.witness_cocharacter
    assert all(classify(g, lam).in_parabolic for g in h.generators)
    v = h.tuple_point()
    moved = limit(v, lam)
    assert moved is not None
    assert find_ru_conjugator(v, moved, lam) is None


def _block_diagonal(*blocks):
    """The block-diagonal matrix of the given square blocks."""
    m = sum(len(b) for b in blocks)
    out = [[F(0)] * m for _ in range(m)]
    start = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[start + i][start + j] = F(x)
        start += len(b)
    return linalg.mat(out)


def test_is_gcr_algebra_on_sl_and_product_groups_matches_search():
    gl2_sl2 = GroupSpec.make(("GL", 2), ("SL", 2))
    unip, rot, half = ((1, 1), (0, 1)), ((0, -1), (1, 0)), ((2, 0), (0, F(1, 2)))
    diag, swap = DIAG.generators[0], SWAP.generators[0]
    cases = [
        (SL2, [unip], NOT_COMPLETELY_REDUCIBLE),
        (SL2, [rot], COMPLETELY_REDUCIBLE),
        (SL2, [half], COMPLETELY_REDUCIBLE),
        (SL2, [half, ((1, 0), (3, 1))], NOT_COMPLETELY_REDUCIBLE),
        (gl2_sl2, [_block_diagonal(diag, rot)], COMPLETELY_REDUCIBLE),
        (gl2_sl2, [_block_diagonal(swap, rot), _block_diagonal(diag, half)], COMPLETELY_REDUCIBLE),
        (gl2_sl2, [_block_diagonal(swap, unip)], NOT_COMPLETELY_REDUCIBLE),
        (gl2_sl2, [_block_diagonal(unip, rot)], NOT_COMPLETELY_REDUCIBLE),
        (gl2_sl2, [_block_diagonal(((2, 1), (0, 2)), half)], NOT_COMPLETELY_REDUCIBLE),
    ]
    for group, gens, status in cases:
        h = SubgroupPresentation(group, gens)
        verdict = is_gcr_algebra(h)
        assert verdict.status == status == is_gcr_search(h, cfg_for(group)).status
        if status == COMPLETELY_REDUCIBLE:
            assert verdict.witness_cocharacter is None and verdict.witness_radical is None
        else:
            assert verdict.witness_radical
            _assert_algebra_witness(h, verdict)


def _reference_layers(radical, group):
    """Reference: the layers J^k V, k >= 1, as RREF bases of Fraction
    products, one ``mat_vec`` per radical element and layer vector."""
    layers = []
    layer = group.identity()
    while layer := linalg.row_space(tuple(linalg.mat_vec(x, v) for x in radical for v in layer)):
        layers.append(layer)
    return tuple(layers)


def test_radical_filtration_layers_match_fraction_reference():
    # the layers built on integer rows are the Fraction RREF layers, and
    # lambda is adapted to them, on three corpus streams
    deep = 0
    for seed, size in ((1, 64), (2, 200), (3, 100)):
        for h in subgroup_corpus(seed, size):
            radical, layers, lam = gcr._radical_filtration(h)
            assert layers == _reference_layers(radical, h.group)
            assert all(type(x) is F for layer in layers for row in layer for x in row)
            assert (lam is None) == (not radical)
            deep += len(layers) > 1
    assert deep > 0


def test_case_162_has_an_exact_witness_and_quotient():
    # the bounded search misses the destabilizing line <(1,1,1)> of this
    # case (a known limit of its torus family); the exact route finds it
    h = subgroup_corpus(2, 200)[162]
    cfg = corpus_config(h.group)
    assert is_gcr_search(h, cfg).status == COMPLETELY_REDUCIBLE
    verdict = is_gcr_algebra(h)
    assert verdict.status == NOT_COMPLETELY_REDUCIBLE
    _assert_algebra_witness(h, verdict)
    radical, layers, lam = gcr._radical_filtration(h)
    assert lam == verdict.witness_cocharacter and radical == verdict.witness_radical
    assert layers == (((1, 1, 1),),)
    chain, quotient = reduce_to_gcr(h)
    assert chain == (lam,)
    assert is_gcr_algebra(quotient).is_completely_reducible


def _dense_frame(rng, group):
    """An invertible block-diagonal matrix whose in-block entries are all
    drawn from the rationals in [-3, 3] with denominator at most 2."""
    m = group.dimension
    while True:
        g = linalg.mat([
            [F(rng.randint(-6, 6), 2) if group.block_of(i) == group.block_of(j) else 0 for j in range(m)]
            for i in range(m)
        ])
        if linalg.det(g) != 0:
            return g


def _flag_element(rng, group, splits):
    """A group element keeping, in each factor block b, the span of its
    first ``splits[b]`` coordinates: a diagonal (of determinant 1 on SL
    blocks) times in-block elementary shears that keep that span."""
    m = group.dimension
    g = [[F(int(i == j)) for j in range(m)] for i in range(m)]
    for f, block in zip(group.factors, group.block_slices):
        c = F(rng.choice((1, -1, 2, -2, 3)))
        g[block[0]][block[0]] = c
        g[block[-1]][block[-1]] = 1 / c if f.family == "SL" else F(rng.choice((1, 2, -1)))
    g = linalg.mat(g)
    for _ in range(3):
        b = rng.randrange(len(group.factors))
        block, split = group.block_slices[b], splits[b]
        i, j = rng.sample(list(block), 2)
        if i - block[0] >= split > j - block[0]:
            continue  # would move the flag
        e = [[F(int(a == c)) for c in range(m)] for a in range(m)]
        e[i][j] = F(rng.choice((-2, -1, 1, 2)))
        g = linalg.mat_mul(g, linalg.mat(e))
    return g


def _power_traces(g):
    """tr g, tr g^2, ..., tr g^m: equal exactly when the characteristic
    polynomials are (Newton's identities, characteristic zero)."""
    out, power = [], g
    for _ in range(len(g)):
        out.append(_trace(power))
        power = linalg.mat_mul(power, g)
    return out


def _assert_stable_adapted_layers(h, layers, lam):
    """Every layer is stable under the generators and, within each factor
    block, is spanned by the frame columns of exponent at least some cut;
    the layers strictly decrease."""
    group = h.group
    sizes = [len(layer) for layer in layers]
    assert sizes == sorted(set(sizes), reverse=True)
    columns = linalg.transpose(lam.base)
    d = lam.torus.exponents
    for layer in layers:
        for g in h.generators:
            assert all(linalg.in_row_space(linalg.mat_vec(g, v), layer) for v in layer)
        for block in group.block_slices:
            part = tuple(v for v in layer if any(v[i] for i in block))
            cuts = {linalg.row_space(tuple(columns[i] for i in block if d[i] >= d[k])) for k in block}
            assert part == () or part in cuts


def test_radical_filtration_witnesses_and_reduces_conjugated_subgroups():
    # seeded flag-preserving subgroups conjugated by dense rational
    # matrices, which the search family's tori are not adapted to
    rng = random.Random(71)
    groups = (GL3, GroupSpec.make(("GL", 4)), GroupSpec.make(("GL", 2), ("SL", 2)))
    for group in groups:
        found = 0
        for _ in range(24):
            splits = [rng.randint(1, f.rank - 1) for f in group.factors]
            frame = _dense_frame(rng, group)
            inverse = linalg.inverse(frame)
            gens = [
                linalg.mat_mul(linalg.mat_mul(frame, _flag_element(rng, group, splits)), inverse)
                for _ in range(rng.randint(1, 2))
            ]
            h = SubgroupPresentation(group, gens)
            verdict = is_gcr_algebra(h)
            if verdict.is_completely_reducible:
                continue
            found += 1
            _assert_algebra_witness(h, verdict)
            radical, layers, lam = gcr._radical_filtration(h)
            assert lam == verdict.witness_cocharacter
            _assert_stable_adapted_layers(h, layers, lam)
            chain, quotient = reduce_to_gcr(h)
            assert chain == (lam,)
            assert is_gcr_algebra(quotient).is_completely_reducible
            assert [_power_traces(g) for g in quotient.generators] == [_power_traces(g) for g in gens]
        assert found >= 10, (group, found)


def test_is_gcr_search_examples():
    cfg = cfg_for(GL2)
    v = is_gcr_search(UNIP, cfg)
    assert v.status == NOT_COMPLETELY_REDUCIBLE
    assert v.witness_cocharacter is not None
    assert is_gcr_search(DIAG, cfg).status == COMPLETELY_REDUCIBLE
    rot = SubgroupPresentation(SL2, (((0, -1), (1, 0)),))
    verdict = is_gcr_search(rot, cfg_for(SL2))
    assert verdict.status == COMPLETELY_REDUCIBLE
    assert verdict.examined == ()


def test_centralizer_dim_examples():
    assert centralizer_dim(GL2, [((1, 0), (0, 1))]) == 4
    assert centralizer_dim(GL2, [((1, 1), (0, 1))]) == 2
    assert centralizer_dim(GL2, [((2, 0), (0, 3))]) == 2
    # SL factor drops the central direction
    assert centralizer_dim(SL2, [((1, 0), (0, 1))]) == 3


def _dense_centralizer_dim(group, mats):
    """Reference: the m^2-column commutator system with unit rows for the
    entries off the block diagonal, which the conjugator system over the
    in-block entries replaced."""
    mats = [linalg.mat(x) for x in mats]
    m = group.dimension
    rows = []
    for h in mats:
        # (x h - h x)_{ij} = 0, unknowns x_{kl}
        for i in range(m):
            for j in range(m):
                row = [F(0)] * (m * m)
                for k in range(m):
                    row[i * m + k] += h[k][j]
                    row[k * m + j] -= h[i][k]
                if any(row):
                    rows.append(tuple(row))
    for bi, block_i in enumerate(group.block_slices):
        for bj, block_j in enumerate(group.block_slices):
            if bi == bj:
                continue
            for i in block_i:
                for j in block_j:
                    row = [F(0)] * (m * m)
                    row[i * m + j] = F(1)
                    rows.append(tuple(row))
    for f, block in zip(group.factors, group.block_slices):
        if f.family == "SL":
            row = [F(0)] * (m * m)
            for i in block:
                row[i * m + i] = F(1)
            rows.append(tuple(row))
    return len(linalg.nullspace(tuple(rows), m * m))


def _moved(flat, m):
    """The moved matrices of one torus of ``instability._torus_moves`` as
    scaled values."""
    return [linalg._Scaled(_unflatten(acc, m), s) for acc, s in flat]


def test_centralizer_dim_matches_dense_reference_on_corpus_and_projections():
    dims = set()
    for h in subgroup_corpus(1, 64):
        tuples = [h.generators]
        cfg = corpus_config(h.group)
        exponents = (
            (d, moved)
            for moved in (_moved(flat, h.group.dimension) for _, flat, _ in instability._torus_moves(h.tuple_point(), cfg))
            for d in instability.admissible_exponents(h.group, cfg.exponent_box, instability._entry_pattern(t.rows for t in moved))
        )
        for d, moved in exponents:
            # the moved tuple's Levi projection, back on its own scale
            projected = [linalg._Scaled(_limit_pattern(t.rows, d), t.scale).fractions() for t in moved]
            if projected != [t.fractions() for t in moved] and projected not in tuples:
                tuples.append(projected)
            if len(tuples) == 6:
                break
        for mats in tuples:
            dim = centralizer_dim(h.group, mats)
            assert dim == _dense_centralizer_dim(h.group, mats)
            dims.add(dim)
    assert len(dims) >= 4, dims


def test_centralizer_dim_matches_dense_reference_on_product_and_sl_groups():
    rng = random.Random(7)
    gl2_sl2 = GroupSpec.make(("GL", 2), ("SL", 2))
    sl3 = GroupSpec.make(("SL", 3))

    def sl_element(n):
        # a product of elementary matrices and one diagonal of determinant 1
        g = linalg.identity(n)
        for _ in range(rng.randint(0, 3)):
            i, j = rng.sample(range(n), 2)
            e = [[F(int(a == b)) for b in range(n)] for a in range(n)]
            e[i][j] = F(rng.choice((-2, -1, 1, 2)))
            g = linalg.mat_mul(g, linalg.mat(e))
        if rng.random() < 0.5:
            c = F(rng.choice((2, 3)), rng.choice((1, 2)))
            diag = [[c if a == b == 0 else 1 / c if a == b == 1 else F(int(a == b)) for b in range(n)] for a in range(n)]
            g = linalg.mat_mul(g, linalg.mat(diag))
        return g

    def gl2_sl2_element():
        a = sl_element(2)
        if rng.random() < 0.5:
            a = linalg.mat_scale(F(rng.choice((-1, 2, 3))), a)
        b = sl_element(2)
        return tuple(tuple(a[i]) + (F(0),) * 2 for i in range(2)) + tuple((F(0),) * 2 + tuple(b[i]) for i in range(2))

    dims = {gl2_sl2: set(), sl3: set()}
    for group, draw in ((gl2_sl2, gl2_sl2_element), (sl3, lambda: sl_element(3))):
        for _ in range(60):
            mats = [draw() for _ in range(rng.randint(1, 3))]
            dim = centralizer_dim(group, mats)
            assert dim == _dense_centralizer_dim(group, mats)
            dims[group].add(dim)
    assert len(dims[gl2_sl2]) >= 3 and len(dims[sl3]) >= 3, dims


def test_centralizer_transfer_to_generic_tuple():
    g1 = ((2, 0), (0, 3))
    g2 = ((0, 1), (1, 0))
    h = SubgroupPresentation(GL2, (g1, g2))
    # the generator tuple is generic, so its centralizer is the subgroup's
    assert centralizer_dim(GL2, (g1, g2)) == centralizer_dim(GL2, (g1, g2, g1))


def test_generic_tuple_projection():
    lam = Cocharacter.standard(GL2, (1, -1))
    gens = (((2, 1), (0, 3)), ((1, 5), (0, 1)))
    h = SubgroupPresentation(GL2, gens)
    image = c_lambda(gens, lam)
    before = algebra_of_tuple(GL2, image).dimension
    closure = algebra_of_tuple(
        GL2, image + tuple(linalg.mat_mul(a, b) for a in image for b in image)
    ).dimension
    assert before == closure  # the projected tuple generates its own algebra


def test_reduce_to_gcr_examples():
    chain, quotient = reduce_to_gcr(UNIP)
    assert len(chain) == 1
    assert quotient.generators == (linalg.identity(2),)

    rot = SubgroupPresentation(SL2, (((0, -1), (1, 0)),))
    chain, quotient = reduce_to_gcr(rot)
    assert chain == ()
    assert quotient.generators == rot.generators

    chain, quotient = reduce_to_gcr(DIAG)
    assert chain == ()
    assert quotient.generators == DIAG.generators


def test_reduce_to_gcr_idempotent():
    for h in (UNIP, DIAG, SubgroupPresentation(GL2, (((1, 2), (0, 3)),))):
        _, quotient = reduce_to_gcr(h)
        chain, again = reduce_to_gcr(quotient)
        assert chain == ()
        assert again.generators == quotient.generators


def test_optimal_parabolic_borel_tits():
    cfg = SearchConfig.default(GL2, exponent_box=3, oracle_mode=True)
    res = optimal_parabolic_subgroup(UNIP, cfg)
    assert res.status == OPTIMAL
    assert not res.parabolic.is_whole_group
    assert classify(UNIP.generators[0], res.cocharacter) is MembershipClass.IN_RU
    assert res.global_verified


def test_optimal_parabolic_trivial_for_identity():
    cfg = SearchConfig.default(GL2, exponent_box=3)
    res = optimal_parabolic_subgroup(TRIVIAL_H, cfg)
    assert res.status == TRIVIAL
    assert res.parabolic.is_whole_group


def test_optimal_parabolic_e13_oracle():
    h = SubgroupPresentation(
        GL3, (((1, 0, 1), (0, 1, 0), (0, 0, 1)),)
    )
    cfg = SearchConfig.default(GL3, exponent_box=3, oracle_mode=True)
    res = optimal_parabolic_subgroup(h, cfg)
    assert res.status == OPTIMAL
    assert not res.parabolic.is_whole_group
    assert classify(h.generators[0], res.cocharacter) is MembershipClass.IN_RU
    assert res.global_verified


def test_optimal_parabolic_mode_error():
    with pytest.raises(ModeError):
        optimal_parabolic_subgroup(DIAG, cfg_for(GL2))
    with pytest.raises(ModeError):
        optimal_parabolic_subgroup(DIAG, cfg_for(GL2), mode="custom")


def test_optimal_parabolic_custom_mode():
    from destab import SubvarietySpec

    cfg = SearchConfig.default(GL2, exponent_box=3, oracle_mode=True)
    res = optimal_parabolic_subgroup(
        UNIP, cfg, mode="custom", subvariety=SubvarietySpec.identity_tuple()
    )
    assert res.status == OPTIMAL
    assert classify(UNIP.generators[0], res.cocharacter) is not MembershipClass.NOT_IN_P


def test_building_centre_examples():
    h = SubgroupPresentation(SL2, (((1, 1), (0, 1)),))
    cfg = SearchConfig.default(SL2, exponent_box=3)
    centre = building_centre(h, cfg)
    assert centre.has_centre
    assert centre.blocks == ((1, 1),)

    no_centre = building_centre(TRIVIAL_H, SearchConfig.default(GL2, exponent_box=3))
    assert not no_centre.has_centre


def test_building_centre_two_generators_with_normalizer():
    h = SubgroupPresentation(
        GL3,
        (
            ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
        ),
    )
    sample = linalg.mat([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    cfg = SearchConfig.default(
        GL3, exponent_box=3, oracle_mode=True, normalizer_samples=(sample,)
    )
    centre = building_centre(h, cfg)
    assert centre.has_centre
    for g in h.generators:
        assert classify(g, centre.cocharacter) is MembershipClass.IN_RU
    assert sample in centre.stabilizing_samples


def test_lie_is_gcr_examples():
    cfg = cfg_for(SL2)
    e = LieSubalgebra(SL2, (((0, 1), (0, 0)),))
    v = lie_is_gcr(e, cfg)
    assert v.status == NOT_COMPLETELY_REDUCIBLE
    assert v.witness_cocharacter.torus.exponents == (1, -1)

    torus = LieSubalgebra(SL2, (((1, 0), (0, -1)),))
    assert lie_is_gcr(torus, cfg).status == COMPLETELY_REDUCIBLE

    full = LieSubalgebra(
        SL2, (((0, 1), (0, 0)), ((1, 0), (0, -1)), ((0, 0), (1, 0)))
    )
    verdict = lie_is_gcr(full, cfg)
    assert verdict.status == COMPLETELY_REDUCIBLE
    assert verdict.examined == ()


def test_lie_subalgebra_validation():
    with pytest.raises(DomainError):
        LieSubalgebra(SL2, (((1, 0), (0, 1)),))  # trace nonzero
    with pytest.raises(DomainError):
        LieSubalgebra(GL2, (((0, 1), (0, 0)), ((0, 0), (1, 0))))  # bracket escapes


def _fraction_brackets_closed(basis):
    """Reference: the commutator check on Fraction products, which the
    integer rows of the scaled products replaced."""
    echelon = []
    for x in basis:
        linalg.echelon_add(echelon, _flatten(x))
    return all(
        linalg.echelon_contains(echelon, _flatten(linalg.mat_sub(linalg.mat_mul(x, y), linalg.mat_mul(y, x))))
        for i, x in enumerate(basis)
        for y in basis[i + 1 :]
    )


def test_lie_bracket_check_matches_fraction_reference():
    # seeded spans of triangular, diagonal and dense rational matrices,
    # conjugated by dense frames, closed and not
    rng = random.Random(33)
    outcomes = {True: 0, False: 0}
    for _ in range(120):
        group = rng.choice((GL2, GL3, GroupSpec.make(("GL", 4))))
        m = group.dimension
        kind = rng.choice(("diagonal", "triangular", "dense"))

        def entry(i, j):
            if kind == "diagonal" and i != j or kind == "triangular" and i > j:
                return 0
            return F(rng.randint(-2, 2), rng.choice((1, 2, 3)))

        frame = _dense_frame(rng, group)
        inverse = linalg.inverse(frame)
        basis = [linalg.mat_mul(linalg.mat_mul(frame, linalg.mat([[entry(i, j) for j in range(m)] for i in range(m)])), inverse) for _ in range(rng.randint(1, 3))]
        if linalg.rank(tuple(_flatten(x) for x in basis)) < len(basis):
            continue
        closed = _fraction_brackets_closed(basis)
        outcomes[closed] += 1
        if closed:
            assert LieSubalgebra(group, basis).basis == tuple(basis)
        else:
            with pytest.raises(DomainError, match="not closed under the commutator"):
                LieSubalgebra(group, basis)
    assert min(outcomes.values()) >= 25, outcomes


def _fraction_is_unipotent(group, g):
    """Reference: (g - I)^m = 0 on Fraction matrices, which the powers of
    the integer rows of s g - s I replaced."""
    n = linalg.mat_sub(g, linalg.identity(group.dimension))
    power = n
    for _ in range(group.dimension - 1):
        power = linalg.mat_mul(power, n)
    return all(x == 0 for row in power for x in row)


def test_is_unipotent_matches_fraction_reference():
    # conjugated unitriangular matrices and their perturbations on the
    # diagonal, on GL and product groups
    rng = random.Random(44)
    outcomes = {True: 0, False: 0}
    groups = (GL2, GL3, GroupSpec.make(("GL", 4)), GroupSpec.make(("GL", 2), ("SL", 2)))
    for _ in range(120):
        group = rng.choice(groups)
        m = group.dimension
        frame = _dense_frame(rng, group)
        u = [[F(int(i == j)) if i >= j else F(rng.randint(-2, 2), rng.choice((1, 2))) if group.block_of(i) == group.block_of(j) else F(0) for j in range(m)] for i in range(m)]
        if rng.random() < 0.4:
            k = rng.randrange(m)
            u[k][k] = F(rng.choice((-1, 2, F(1, 2))))
        g = linalg.mat_mul(linalg.mat_mul(frame, linalg.mat(u)), linalg.inverse(frame))
        unipotent = gcr._is_unipotent(group, g)
        assert unipotent == _fraction_is_unipotent(group, g)
        if unipotent:
            # the integer logarithm is the Fraction series up to a positive factor
            (log,) = _generator_tangents(group, g)
            assert _direction(log) == _direction(_flatten(_nilpotent_log(group, g)))
        outcomes[unipotent] += 1
    assert min(outcomes.values()) >= 30, outcomes


def _direction(v):
    """The primitive integer vector on the ray of v, or None for zero."""
    return linalg.primitive_direction(v) if any(v) else None


def test_group_to_lie_consistency_corpus():
    from destab.corpus import run_profile

    records = run_profile("group-lie-consistency", seed=1, size=50)
    checked = [r for r in records if not r.get("skipped")]
    assert len(checked) >= 10  # the corpus must actually exercise the property
    assert all(r["ok"] for r in records)


# ---------------------------------------------------------------------------
# The Fraction tangent kernel that the integer Krylov kernel replaced, kept
# as a reference: the characteristic polynomial summed over all principal
# minors, its rational roots, the test that the product of the root factors
# annihilates g, the eigenprojections as products, and the logarithm of a
# unipotent generator as a Fraction series.  On a singular g it tries only
# the root 0, so it is compared on invertible matrices alone.


def _nilpotent_log(group, u):
    """Exact logarithm of a unipotent matrix (the series terminates)."""
    m = group.dimension
    n = linalg.mat_sub(u, linalg.identity(m))
    total = linalg.zeros(m, m)
    power = linalg.identity(m)
    for k in range(1, m):
        power = linalg.mat_mul(power, n)
        total = linalg.mat_add(total, linalg.mat_scale(F((-1) ** (k + 1), k), power))
    return total


def _char_poly(g):
    """Monic characteristic polynomial coefficients, constant term first."""
    m = len(g)
    coeffs = [F(0)] * (m + 1)
    coeffs[m] = F(1)
    for k in range(1, m + 1):
        minors = F(0)
        for subset in itertools.combinations(range(m), k):
            sub = tuple(tuple(g[i][j] for j in subset) for i in subset)
            minors += linalg.det(sub)
        coeffs[m - k] = F((-1) ** k) * minors
    return coeffs


def _rational_spectral_projections(g):
    """Eigenprojections of a matrix that is diagonalizable over the
    rationals, or None: the rational roots of the characteristic
    polynomial, when the squarefree product of their factors annihilates g."""
    m = len(g)
    coeffs = _char_poly(g)
    scale = math.lcm(*[c.denominator for c in coeffs])
    ints = [int(c * scale) for c in coeffs]
    constant, leading = ints[0], ints[-1]
    if constant == 0:
        candidates = {F(0)}
    else:
        candidates = {F(sign * p, q) for p in _divisors(constant) for q in _divisors(leading) for sign in (1, -1)}

    def poly_at(x):
        total = F(0)
        for c in reversed(coeffs):
            total = total * x + c
        return total

    roots = sorted(x for x in candidates if poly_at(x) == 0)
    if not roots:
        return None
    ident = linalg.identity(m)
    product = ident
    for r in roots:
        product = linalg.mat_mul(product, linalg.mat_sub(g, linalg.mat_scale(r, ident)))
    if any(x != 0 for row in product for x in row):
        return None
    projections = []
    for r in roots:
        proj = ident
        for s in roots:
            if s != r:
                proj = linalg.mat_mul(proj, linalg.mat_scale(F(1) / (r - s), linalg.mat_sub(g, linalg.mat_scale(s, ident))))
        projections.append(proj)
    return projections


def _reference_tangent_span(h):
    """``_tangent_span`` on the Fraction kernel above."""
    group = h.group
    mats = []
    for g in h.generators:
        if _fraction_is_unipotent(group, g):
            mats.append(_nilpotent_log(group, g))
            continue
        projections = _rational_spectral_projections(g)
        if projections is None:
            return None
        mats.extend(projections)
    rows = [_flatten(x) for x in mats if any(_flatten(x))]
    basis = [gcr._unflatten(v, group.dimension) for v in (linalg.row_space(tuple(rows)) if rows else ())]
    if not basis:
        return None
    try:
        return LieSubalgebra(group, tuple(basis))
    except DestabError:
        return None


def test_rational_spectral_projections_large_constant_term():
    import time

    p = 1_000_000_007  # prime: the constant term of (x - p)(x - 1) is about 10^9
    start = time.monotonic()
    projections = _rational_spectral_projections(linalg.mat([[p, 0], [0, 1]]))
    assert time.monotonic() - start < 1.0
    assert projections == [linalg.mat([[0, 0], [0, 1]]), linalg.mat([[1, 0], [0, 0]])]
    start = time.monotonic()
    lie = _tangent_span(SubgroupPresentation(GL2, (((p, 0), (0, 1)),)))
    assert time.monotonic() - start < 1.0
    assert lie.basis == (linalg.mat([[1, 0], [0, 0]]), linalg.mat([[0, 0], [0, 1]]))


def _seeded_tangent_inputs(rng):
    """Invertible GL_2-GL_5 matrices P X P^-1 with X of one of four kinds:
    diagonal with repeated rational eigenvalues, a Jordan block on a
    repeated one, a companion block of an irreducible quadratic (x^2 - 2,
    x^2 + 1, x^2 - x - 1), or unitriangular."""
    eigenvalues = (1, -1, 2, -2, 3, F(1, 2), F(-3, 2), F(2, 3))
    for _ in range(75):
        for kind in ("diagonal", "jordan", "irrational", "unipotent"):
            m = rng.randint(2, 5)
            group = GroupSpec.make(("GL", m))
            x = [[F(0)] * m for _ in range(m)]
            for i in range(m):
                x[i][i] = F(rng.choice(eigenvalues[:3] if rng.random() < 0.5 else eigenvalues))
            k = rng.randrange(m - 1)
            if kind == "jordan":
                x[k + 1][k + 1] = x[k][k]
                x[k][k + 1] = F(1)
            elif kind == "irrational":
                (a, b), (c, d) = rng.choice((((0, 2), (1, 0)), ((0, -1), (1, 0)), ((0, 1), (1, 1))))
                x[k][k], x[k][k + 1], x[k + 1][k], x[k + 1][k + 1] = F(a), F(b), F(c), F(d)
            elif kind == "unipotent":
                x = [[F(int(i == j)) if i >= j else F(rng.randint(-2, 2), rng.choice((1, 2))) for j in range(m)] for i in range(m)]
            frame = _dense_frame(rng, group)
            yield kind, group, linalg.mat_mul(linalg.mat_mul(frame, linalg.mat(x)), linalg.inverse(frame))


def test_tangent_span_matches_fraction_reference():
    # every generator of subgroup_corpus(1-3, 200) alone, every corpus
    # presentation whole, and seeded invertible GL_2-GL_5 matrices: the same
    # span, and None exactly when the reference gives None
    cases = []
    for seed in (1, 2, 3):
        for h in subgroup_corpus(seed, 200):
            cases += [("corpus", SubgroupPresentation(h.group, (g,))) for g in h.generators]
            cases.append(("presentation", h))
    cases += [(kind, SubgroupPresentation(group, (g,))) for kind, group, g in _seeded_tangent_inputs(random.Random(83))]
    outcomes = {}
    for kind, h in cases:
        new, ref = _tangent_span(h), _reference_tangent_span(h)
        assert (new is None) == (ref is None), (kind, h)
        assert new is None or new.basis == ref.basis, (kind, h)
        outcomes[kind, new is None] = outcomes.get((kind, new is None), 0) + 1
    assert all(outcomes.get((kind, False), 0) >= 20 for kind in ("corpus", "presentation", "diagonal", "unipotent")), outcomes
    assert all(outcomes.get((kind, True), 0) >= 20 for kind in ("corpus", "presentation", "jordan", "irrational")), outcomes


def test_group_to_lie_consistency():
    # a reducible-but-decomposable subgroup is reducible on both sides
    cfg = cfg_for(GL2)
    h = SubgroupPresentation(GL2, (((2, 0), (0, 3)),))
    assert is_gcr_search(h, cfg).status == COMPLETELY_REDUCIBLE
    lie = LieSubalgebra(GL2, (((1, 0), (0, 0)),))
    assert lie_is_gcr(lie, cfg).status == COMPLETELY_REDUCIBLE
    # and the unipotent pair fails on both sides
    assert is_gcr_search(UNIP, cfg).status == NOT_COMPLETELY_REDUCIBLE
    nil = LieSubalgebra(GL2, (((0, 1), (0, 0)),))
    assert lie_is_gcr(nil, cfg).status == NOT_COMPLETELY_REDUCIBLE
