"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every test prints a single `criterion NN: PASS (elapsed)` line and pins
its stated runtime budget.  Quantities are asserted with zero tolerance;
seeded suites live in destab.corpus so failures replay from (seed, case).
"""

import time
from fractions import Fraction as F

from destab import (
    COMPLETELY_REDUCIBLE,
    Cocharacter,
    ConjugationTuples,
    GroupSpec,
    LieSubalgebra,
    MembershipClass,
    NOT_COMPLETELY_REDUCIBLE,
    OPTIMAL,
    SearchConfig,
    SubgroupPresentation,
    SubvarietySpec,
    SymPower,
    TRIVIAL,
    c_lambda,
    classify,
    find_ru_conjugator,
    lie_is_gcr,
    limit,
    optimal_parabolic_subgroup,
    optimize,
)
from destab import linalg
from destab.corpus import run_profile

SL2 = GroupSpec.make(("SL", 2))
GL2 = GroupSpec.make(("GL", 2))
GL3 = GroupSpec.make(("GL", 3))


class budget:
    """Context manager printing the per-criterion verdict line."""

    def __init__(self, number: int, seconds: float):
        self.number = number
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:02d}: {status} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.number} exceeded its runtime budget"
        return False


def test_criterion_01_binary_form_instability():
    with budget(1, 5.0):
        s = SubvarietySpec.zero_locus()
        cfg = SearchConfig.default(SL2, exponent_box=5, oracle_mode=True)
        for d in range(2, 7):
            sym = SymPower(SL2, d)
            for i in range(d + 1):
                res = optimize([sym.monomial(i)], s, cfg)
                unstable = max(i, d - i) > F(d, 2)
                assert (res.status == OPTIMAL) == unstable
                if d == 4 and i == 1:
                    assert res.cocharacter.torus.exponents == (1, -1)
                    assert res.value_sq == 2
                    assert res.global_verified


def test_criterion_02_borel_tits_recovery():
    with budget(2, 30.0):
        rep = ConjugationTuples(GL3, 1)
        cfg = SearchConfig.default(
            GL3, exponent_box=3, shear_values=(1,), oracle_mode=True
        )
        ident = linalg.identity(3)
        frames = [ident] + [g for g in cfg.conjugation_family[:6] if g != ident][:2]
        nilpotents = {
            "one_block": linalg.mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
            "two_blocks": linalg.mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        }
        for name, e in nilpotents.items():
            for frame in frames:
                inv = linalg.inverse(frame)
                conj = linalg.mat_mul(linalg.mat_mul(frame, e), inv)
                u = linalg.mat_add(ident, conj)
                h = SubgroupPresentation(GL3, (u,))
                res = optimal_parabolic_subgroup(h, cfg)
                assert res.status == OPTIMAL, (name, frame)
                assert not res.parabolic.is_whole_group
                assert classify(u, res.cocharacter) is MembershipClass.IN_RU
                assert res.global_verified
        # the zero nilpotent yields the trivial class and the whole group
        res = optimal_parabolic_subgroup(SubgroupPresentation(GL3, (ident,)), cfg)
        assert res.status == TRIVIAL and res.parabolic.is_whole_group


def test_criterion_03_oracle_agreement():
    with budget(3, 120.0):
        records = run_profile("oracle-agreement", seed=1, size=50)
        assert len(records) == 50
        failures = [r for r in records if not r["ok"]]
        assert failures == []
        assert any(r["algebra"] == NOT_COMPLETELY_REDUCIBLE for r in records)
        assert any(r["algebra"] == COMPLETELY_REDUCIBLE for r in records)
        sizes = {len(r["detail"]["generators"][0]) for r in records}
        assert sizes == {2, 3}  # both GL_2 and GL_3 are exercised
        assert all(r["detail"]["box"] == 4 for r in records)


def test_criterion_04_limit_equivariance():
    with budget(4, 10.0):
        records = run_profile("equivariance", seed=1, size=100)
        assert len(records) == 100
        assert all(r["ok"] for r in records)


def test_criterion_05_radical_conjugacy_lemma():
    with budget(5, 10.0):
        records = run_profile("ruconj", seed=1, size=100)
        assert len(records) == 100
        assert all(r["ok"] for r in records)
        assert any(r["holds"] for r in records)  # the positive direction is exercised
        assert any(not r["holds"] for r in records)


def test_criterion_06_kempf_equivariance_and_normalizers():
    with budget(6, 30.0):
        records = run_profile("kempf-equivariance", seed=1, size=20)
        assert len(records) == 20
        assert all(r["ok"] for r in records)


def test_criterion_07_commuting_composition():
    with budget(7, 10.0):
        records = run_profile("dblecochar", seed=1, size=50)
        assert len(records) == 50
        assert all(r["ok"] for r in records)


def test_criterion_08_centralizer_dimension():
    with budget(8, 60.0):
        records = run_profile("centralizer", seed=1, size=50)
        assert len(records) == 50
        assert all(r["ok"] for r in records)
        assert sum(r["admissible_checked"] for r in records) > 0


def test_criterion_09_worked_example_roundtrip():
    with budget(9, 5.0):
        rep = ConjugationTuples(SL2, 1)
        lam = Cocharacter.standard(SL2, (1, -1))
        v = rep.point([[[2, F(-3, 2)], [0, F(1, 2)]]])
        v_prime = limit(v, lam)
        assert rep.matrices(v_prime) == (linalg.mat([[2, 0], [0, F(1, 2)]]),)
        assert c_lambda([[2, F(-3, 2)], [0, F(1, 2)]], lam) == linalg.mat(
            [[2, 0], [0, F(1, 2)]]
        )
        u = find_ru_conjugator(v, v_prime, lam)
        assert u == linalg.mat([[1, -1], [0, 1]])


def test_criterion_10_lie_counterparts():
    with budget(10, 5.0):
        cfg = SearchConfig.default(SL2, exponent_box=4, shear_values=(-2, -1, 1, 2))
        nil = LieSubalgebra(SL2, (((0, 1), (0, 0)),))
        verdict = lie_is_gcr(nil, cfg)
        assert verdict.status == NOT_COMPLETELY_REDUCIBLE
        assert verdict.witness_cocharacter.torus.exponents == (1, -1)
        assert verdict.witness_cocharacter.base == SL2.identity()

        torus = LieSubalgebra(SL2, (((1, 0), (0, -1)),))
        assert lie_is_gcr(torus, cfg).status == COMPLETELY_REDUCIBLE

        full = LieSubalgebra(
            SL2, (((0, 1), (0, 0)), ((1, 0), (0, -1)), ((0, 0), (1, 0)))
        )
        assert lie_is_gcr(full, cfg).status == COMPLETELY_REDUCIBLE
