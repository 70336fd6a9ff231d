"""Shows that the checkers can fail: each must reject a corrupted output.

    python3 bench/check_checkers.py

Runs the program on a few cases of every workload, requires the checker to
accept each genuine output, then corrupts it (a perturbed value_sq, a
flipped verdict, a wrong limit entry, ...) and requires the checker to
reject every corruption.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import qmat  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CR, NCR = checks.CR, checks.NCR


def _flip(status):
    return NCR if status == CR else CR


def _negated(out):
    bad = dict(out)
    bad["exponents"] = tuple(-x for x in out["exponents"])
    return bad


def gcr_corruptions(out):
    yield "search verdict flipped", dict(out, search=_flip(out["search"]))
    yield "algebra verdict flipped", dict(out, algebra=_flip(out["algebra"]))
    if out["witness"] is not None:
        w = out["witness"]
        yield "witness exponents negated", dict(out, witness=dict(w, exponents=tuple(-x for x in w["exponents"])))
        yield "witness limit has a conjugator", dict(out, witness=dict(w, conjugator_found=True))


def known_fault_outcomes(out):
    """(label, output, error, excused): only the fault's exact outcome is excused."""
    yield "genuine outcome excused", out, None, True
    yield "raising not excused", None, "Traceback (most recent call last):\nRuntimeError: corrupted\n", False
    yield "algebra verdict flipped not excused", dict(out, algebra=_flip(out["algebra"])), None, False


def kempf_corruptions(out):
    yield "value_sq perturbed", dict(out, value_sq=out["value_sq"] + Fraction(1, 7))
    yield "cocharacter negated", _negated(out)
    yield "cocharacter doubled", dict(out, exponents=tuple(2 * x + (i == 0) for i, x in enumerate(out["exponents"])))
    yield "status not optimal", dict(out, status="uniformly-S-unstable-not-witnessed")
    if out["global_verified"]:
        yield "oracle not verified", dict(out, global_verified=False)


def _bump(s):
    return str(Fraction(s) + 1)


def cli_corruptions(case, out, docs_dir):
    report = out["report"]
    result = report["result"]

    def variant(mutate):
        bad = copy.deepcopy(out)
        mutate(bad["report"]["result"])
        return bad

    command = case.kind
    yield "exit status 5", dict(out, code=5)
    if command == "limit":
        yield "exists flipped", variant(lambda r: r.update(exists=not r["exists"]))
        if result["limit"] is not None:
            yield "limit entry wrong", variant(lambda r: r["limit"].__setitem__(0, _bump(r["limit"][0])))
    elif command == "classify":
        other = "NotInP" if result["membership"] != "NotInP" else "InL"
        yield "membership wrong", variant(lambda r: r.update(membership=other))
    elif command in ("optimize", "oracle"):
        yield "value_sq perturbed", variant(lambda r: r.update(value_sq=_bump(r["value_sq"])))
        yield "cocharacter negated", variant(
            lambda r: r["cocharacter"].update(exponents=[-x for x in r["cocharacter"]["exponents"]]))
        if command == "oracle":
            yield "oracle not verified", variant(lambda r: r.update(global_verified=False))
    elif command == "cochar-closed":
        yield "verdict flipped", variant(lambda r: r.update(closed_within_bound=not r["closed_within_bound"]))
    elif command == "gcr":
        yield "search verdict flipped", variant(lambda r: r["search"].update(status=_flip(r["search"]["status"])))
    elif command == "reduce":
        yield "quotient entry wrong", variant(
            lambda r: r["quotient_generators"][0][0].__setitem__(0, _bump(r["quotient_generators"][0][0][0])))
        yield "quotient is the input", variant(lambda r: r.update(
            quotient_generators=_input_generators(case, docs_dir)))
    elif command == "centre":
        yield "cocharacter negated", variant(
            lambda r: r["cocharacter"].update(exponents=[-x for x in r["cocharacter"]["exponents"]]))
    elif command == "corpus":
        yield "one case failed", variant(lambda r: r.update(passed=r["passed"] - 1))


def _input_generators(case, docs_dir):
    spec = case.inputs["spec"]
    name = spec["argv"][spec["argv"].index("--input") + 1]
    return json.loads((docs_dir / name).read_text(encoding="utf-8"))["generators"]


def main() -> int:
    problems = 0
    lines = []

    def expect(workload, label, verdict, should_pass):
        nonlocal problems
        ok = (verdict is None) == should_pass
        problems += not ok
        lines.append(f"{'ok ' if ok else 'BAD'} {workload:15s} {label:45s} -> {verdict or 'accepted'}")

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        tmp = Path(tmp)
        for name in workloads.NAMES:
            build, round_cases, run_case = workloads.WORKLOADS[name]
            workloads.write_inputs(name, 1, tmp)
            state = build(1, tmp)
            checker = run.Checker(name, state)
            cases = round_cases(state)
            if name == "gcr-corpus":
                chosen = _gcr_pick(cases)
            elif name == "kempf-optimize":
                chosen = [c for c in cases if c.inputs["group"].dimension <= 3][::3]
            else:
                seen = set()
                chosen = [c for c in cases if not (c.kind in seen or seen.add(c.kind))]
            for case in chosen:
                out = run_case(state, case)
                label = f"case {case.index} ({case.kind})"
                expect(name, f"{label} genuine", checker.check(case, out), not case.known_fault)
                if case.known_fault:
                    for what, output, err, excused in known_fault_outcomes(out):
                        correct = run.judge(name, state, {case.index: [[case, output, err, 1]]})[0]
                        expect(name, f"{label} {what}", None if correct else "run judged incorrect", excused)
                    continue
                if name == "gcr-corpus":
                    bad = gcr_corruptions(out)
                elif name == "kempf-optimize":
                    bad = kempf_corruptions(out)
                else:
                    bad = cli_corruptions(case, out, state["docs_dir"])
                for what, corrupted in bad:
                    expect(name, f"{label} {what}", checker.check(case, corrupted), False)
    print("\n".join(lines))
    print(f"{len(lines)} expectations, {problems} not met")
    return 1 if problems else 0


def _gcr_pick(cases):
    """A cheap completely reducible case, a cheap non-reducible one, and the known fault."""
    small = [c for c in cases if c.inputs["group"].dimension == 2]
    cr = next(c for c in small if qmat.is_semisimple_algebra(c.inputs["generators"]))
    ncr = next(c for c in small if not qmat.is_semisimple_algebra(c.inputs["generators"]))
    return [cr, ncr] + [c for c in cases if c.known_fault]


if __name__ == "__main__":
    raise SystemExit(main())
