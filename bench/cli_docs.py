"""The document set of the ``cli-batch`` workload, written anew from a seed.

    python3 bench/cli_docs.py --seed 1 --out bench/docs

writes every input document plus ``manifest.json``, the list of command
lines the workload runs.  The committed ``bench/docs`` is the output for
seed 1; regenerate it and diff to see that it is current.

Each case has a fixed shape (command, group, which entries are nonzero,
which frame conjugates it); the seed draws only the nonzero values.  So
every seed exercises the same code paths with the same amount of work, and
the checkers derive the expected answer from the documents themselves.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import qmat  # noqa: E402

DEFAULT_SEED = 1
DOCS_DIR = Path(__file__).resolve().parent / "docs"

# Corpus profiles run serially at the acceptance seed and reduced sizes: the
# profiles draw their own cases from their seed, so another seed would change
# the amount of work per case (see the README).
CORPUS_SEED = 1
CORPUS_SIZES = {
    "ruconj": 20,
    "equivariance": 20,
    "dblecochar": 20,
    "oracle-agreement": 12,
    "centralizer": 20,
    "kempf-equivariance": 6,
    "group-lie-consistency": 16,
}

FILE_FLAGS = ("--group", "--rep", "--input", "--config")

VALUES = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2", "3/2", "-2/3"))

# Frames: Weyl representatives times one elementary shear, so each lies in
# the search family of the configuration that goes with it.
S2 = qmat.mat([[1, 0], [1, 1]])  # I + E21
W2S = qmat.mul(qmat.mat([[0, 1], [1, 0]]), qmat.mat([[1, 2], [0, 1]]))
F3A = qmat.mul(qmat.mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), qmat.mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
F3B = qmat.mul(qmat.mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), qmat.mat([[1, 0, 0], [0, 1, -1], [0, 0, 1]]))
F4A = qmat.mul(
    qmat.mat([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
    qmat.mat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
)


def emit_q(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def emit_m(a) -> list:
    return [[emit_q(x) for x in row] for row in a]


class _Draw:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def q(self, exclude=()) -> Fraction:
        while True:
            x = self.rng.choice(VALUES)
            if x not in exclude:
                return x

    def distinct(self, k: int) -> list:
        out: list = []
        while len(out) < k:
            out.append(self.q(exclude=out))
        return out

    def pattern(self, n: int, allowed) -> tuple:
        return tuple(tuple(self.q() if allowed(i, j) else Fraction(0) for j in range(n)) for i in range(n))


def _group(family: str, rank: int) -> dict:
    return {"factors": [{"family": family, "rank": rank}], "gram": "identity"}


def build_documents(seed: int) -> tuple[dict, list]:
    """All documents of the set (file name -> JSON value) and its manifest."""
    r = _Draw(seed)
    files: dict[str, object] = {
        "group_gl2.json": _group("GL", 2),
        "group_gl3.json": _group("GL", 3),
        "group_gl4.json": _group("GL", 4),
        "group_sl2.json": _group("SL", 2),
        "rep_tuple1.json": {"kind": "conjugation_tuples", "count": 1},
        "rep_tuple2.json": {"kind": "conjugation_tuples", "count": 2},
        "rep_tuple3.json": {"kind": "conjugation_tuples", "count": 3},
        "rep_sym3.json": {"kind": "sym_power", "degree": 3},
        "rep_sym4.json": {"kind": "sym_power", "degree": 4},
        "rep_sym5.json": {"kind": "sym_power", "degree": 5},
        "config_gl2.json": {"exponent_box": 4, "shear_values": [-2, -1, 1, 2]},
        "config_gl3.json": {"exponent_box": 4, "shear_values": [-1, 1]},
        "config_oracle.json": {"exponent_box": 3, "shear_values": [-1, 1]},
    }
    cases: list[dict] = []

    def case(name, command, check, **docs):
        argv = [command]
        for flag in FILE_FLAGS:
            key = flag[2:]
            if key in docs:
                argv += [flag, docs[key]]
        cases.append({"name": name, "command": command, "argv": argv, "check": check})

    def put(name, value) -> str:
        files[name] = value
        return name

    def tuple_doc(mats) -> dict:
        return {"matrices": [emit_m(h) for h in mats]}

    def cochar_doc(exps, base=None) -> dict:
        doc = {"exponents": list(exps)}
        if base is not None:
            doc["base"] = emit_m(base)
        return doc

    def based(base, mats):
        return [qmat.conj(base, x) for x in mats]

    # -- limit: points on nonnegative levels (and one without a limit) ------
    d = (1, 0, -1)
    pts = [r.pattern(3, lambda i, j: d[i] >= d[j]) for _ in range(2)]
    case("limit-gl3-pair", "limit", {},
         group="group_gl3.json", rep="rep_tuple2.json",
         input=put("limit_gl3_pair.json", {"point": tuple_doc(pts), "cocharacter": cochar_doc(d)}))
    d = (1, 1, -1)
    pts = based(F3A, [r.pattern(3, lambda i, j: d[i] >= d[j])])
    case("limit-gl3-based", "limit", {},
         group="group_gl3.json", rep="rep_tuple1.json",
         input=put("limit_gl3_based.json", {"point": tuple_doc(pts), "cocharacter": cochar_doc(d, F3A)}))
    coords = [r.q() if j <= 2 else Fraction(0) for j in range(5)]
    case("limit-sl2-binary", "limit", {},
         group="group_sl2.json", rep="rep_sym4.json",
         input=put("limit_sl2_binary.json", {"point": [emit_q(c) for c in coords],
                                              "cocharacter": cochar_doc((1, -1))}))
    d = (2, -1)
    pts = based(W2S, [r.pattern(2, lambda i, j: d[i] >= d[j]) for _ in range(3)])
    case("limit-gl2-triple", "limit", {},
         group="group_gl2.json", rep="rep_tuple3.json",
         input=put("limit_gl2_triple.json", {"point": tuple_doc(pts), "cocharacter": cochar_doc(d, W2S)}))
    d = (1, 1, 0)
    pts = [r.pattern(3, lambda i, j: d[i] >= d[j])]
    case("limit-gl3-weak", "limit", {},
         group="group_gl3.json", rep="rep_tuple1.json",
         input=put("limit_gl3_weak.json", {"point": tuple_doc(pts), "cocharacter": cochar_doc(d)}))
    pts = [qmat.mat([[r.q(), r.q()], [r.q(), r.q()]])]
    case("limit-gl2-none", "limit", {},
         group="group_gl2.json", rep="rep_tuple1.json",
         input=put("limit_gl2_none.json", {"point": tuple_doc(pts), "cocharacter": cochar_doc((1, -1))}))

    # -- classify: one element of each membership class ---------------------
    d = (2, 0, -1)
    ident = qmat.identity(3)
    diag = r.distinct(3)
    elements = {
        "InRu": qmat.add(ident, r.pattern(3, lambda i, j: i < j)),
        "InL": qmat.mat([[diag[i] if i == j else 0 for j in range(3)] for i in range(3)]),
        "InPnotLnotRu": qmat.add(
            qmat.mat([[r.q(exclude=(1,)) if i == j else 0 for j in range(3)] for i in range(3)]),
            r.pattern(3, lambda i, j: i < j),
        ),
        "NotInP": qmat.add(ident, qmat.mat([[0, 0, 0], [0, 0, 0], [r.q(), 0, 0]])),
    }
    for label, x in elements.items():
        case(f"classify-{label}", "classify", {},
             group="group_gl3.json",
             input=put(f"classify_{label}.json", {"element": emit_m(qmat.conj(F3B, x)),
                                                   "cocharacter": cochar_doc(d, F3B)}))

    # -- optimize / oracle: nilpotents and binary forms of known optimum ----
    zero = {"kind": "zero_locus"}
    n3 = qmat.conj(F3A, r.pattern(3, lambda i, j: i < j))
    case("optimize-gl3-regular", "optimize", {"target": "zero"},
         group="group_gl3.json", rep="rep_tuple1.json",
         input=put("optimize_gl3_regular.json", {"points": [tuple_doc([n3])], "subvariety": zero}),
         config=put("config_family_f3a.json", {"exponent_box": 4, "family": [emit_m(F3A)]}))
    n3 = qmat.conj(F3B, qmat.mat([[0, r.q(), 0], [0, 0, 0], [0, 0, 0]]))
    case("optimize-gl3-jordan21", "optimize", {"target": "zero"},
         group="group_gl3.json", rep="rep_tuple1.json",
         input=put("optimize_gl3_jordan21.json", {"points": [tuple_doc([n3])], "subvariety": zero}),
         config=put("config_family_f3b.json", {"exponent_box": 4, "family": [emit_m(F3B)]}))
    n4 = qmat.conj(F4A, r.pattern(4, lambda i, j: i < j))
    case("optimize-gl4-regular", "optimize", {"target": "zero"},
         group="group_gl4.json", rep="rep_tuple1.json",
         input=put("optimize_gl4_regular.json", {"points": [tuple_doc([n4])], "subvariety": zero}),
         config=put("config_family_f4a.json", {"exponent_box": 4, "family": [emit_m(F4A)]}))
    n2 = qmat.conj(W2S, qmat.mat([[0, r.q()], [0, 0]]))
    case("optimize-gl2-regular", "optimize", {"target": "zero"},
         group="group_gl2.json", rep="rep_tuple1.json",
         input=put("optimize_gl2_regular.json", {"points": [tuple_doc([n2])], "subvariety": zero}),
         config="config_gl2.json")
    for degree, j, g in ((3, 0, qmat.mat([[1, 1], [0, 1]])), (5, 1, qmat.mat([[1, 0], [-1, 1]]))):
        mono = [Fraction(0)] * (degree + 1)
        mono[j] = r.q()
        form = qmat.binary_act(g, mono)
        case(f"oracle-sl2-sym{degree}", "oracle",
             {"target": "zero", "binary": {"degree": degree, "monomial": j}},
             group="group_sl2.json", rep=f"rep_sym{degree}.json",
             input=put(f"oracle_sl2_sym{degree}.json", {"points": [[emit_q(c) for c in form]], "subvariety": zero}),
             config="config_oracle.json")
    n2 = qmat.conj(S2, qmat.mat([[0, r.q()], [0, 0]]))
    case("oracle-gl2-nilpotent", "oracle", {"target": "zero"},
         group="group_gl2.json", rep="rep_tuple1.json",
         input=put("oracle_gl2_nilpotent.json", {"points": [tuple_doc([n2])], "subvariety": zero}),
         config="config_oracle.json")

    # -- cochar-closed: closed exactly when the tuple's algebra is semisimple
    a, b, c = r.distinct(3)
    semisimple = qmat.conj(F3A, qmat.mat([[a, 0, 0], [0, b, 0], [0, 0, c]]))
    case("closed-gl3-semisimple", "cochar-closed", {},
         group="group_gl3.json", rep="rep_tuple1.json",
         input=put("closed_gl3_semisimple.json", {"point": tuple_doc([semisimple])}),
         config="config_gl3.json")
    a = r.q()
    jordan = qmat.conj(F3B, qmat.mat([[a, r.q(), 0], [0, a, 0], [0, 0, r.q()]]))
    case("closed-gl3-jordan", "cochar-closed", {},
         group="group_gl3.json", rep="rep_tuple1.json",
         input=put("closed_gl3_jordan.json", {"point": tuple_doc([jordan])}),
         config="config_gl3.json")
    a = r.q()
    single = qmat.conj(W2S, qmat.mat([[a, r.q()], [0, a]]))
    case("closed-gl2-jordan", "cochar-closed", {},
         group="group_gl2.json", rep="rep_tuple1.json",
         input=put("closed_gl2_jordan.json", {"point": tuple_doc([single])}),
         config="config_gl2.json")
    a, b = r.distinct(2)
    pair = [qmat.conj(S2, qmat.mat([[a, r.q()], [0, b]])), qmat.conj(S2, qmat.mat([[1, r.q()], [0, 1]]))]
    case("closed-gl2-flag", "cochar-closed", {},
         group="group_gl2.json", rep="rep_tuple2.json",
         input=put("closed_gl2_flag.json", {"point": tuple_doc(pair)}),
         config="config_gl2.json")
    a, b = r.distinct(2)
    pair = [qmat.conj(W2S, qmat.mat([[a, 0], [0, b]])), qmat.conj(W2S, qmat.mat([[0, r.q()], [r.q(), 0]]))]
    case("closed-gl2-irreducible", "cochar-closed", {},
         group="group_gl2.json", rep="rep_tuple2.json",
         input=put("closed_gl2_irreducible.json", {"point": tuple_doc(pair)}),
         config="config_gl2.json")

    # -- gcr / reduce / centre: subgroups by generators ---------------------
    def subgroup(name, mats) -> str:
        return put(name, {"generators": [emit_m(g) for g in mats]})

    unip2 = subgroup("subgroup_gl2_unipotent.json", [qmat.conj(S2, qmat.mat([[1, r.q()], [0, 1]]))])
    a, b = r.distinct(2)
    irred2 = subgroup("subgroup_gl2_irreducible.json",
                      [qmat.mat([[a, 0], [0, b]]), qmat.mat([[0, r.q()], [r.q(), 0]])])
    a, b, c = r.distinct(3)
    borel3 = subgroup("subgroup_gl3_borel.json", [
        qmat.conj(F3A, qmat.mat([[a, 0, 0], [0, b, 0], [0, 0, c]])),
        qmat.conj(F3A, qmat.add(qmat.identity(3), qmat.mat([[0, r.q(), 0], [0, 0, r.q()], [0, 0, 0]]))),
    ])
    cycle3 = subgroup("subgroup_gl3_cycle.json",
                      [qmat.conj(F3B, qmat.mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))])
    regular3 = subgroup("subgroup_gl3_regular_unipotent.json",
                        [qmat.conj(F3A, qmat.add(qmat.identity(3), r.pattern(3, lambda i, j: i < j)))])
    for name, doc, group, config in (
        ("gcr-gl2-unipotent", unip2, "group_gl2.json", "config_gl2.json"),
        ("gcr-gl2-irreducible", irred2, "group_gl2.json", "config_gl2.json"),
        ("gcr-gl3-borel", borel3, "group_gl3.json", "config_gl3.json"),
        ("gcr-gl3-cycle", cycle3, "group_gl3.json", "config_gl3.json"),
        ("gcr-gl3-unipotent", regular3, "group_gl3.json", "config_gl3.json"),
    ):
        case(name, "gcr", {}, group=group, input=doc, config=config)

    rot = qmat.mat([[0, -1, r.q()], [1, 0, r.q()], [0, 0, r.q(exclude=(1,))]])
    shift = qmat.mat([[1, 0, r.q()], [0, 1, r.q()], [0, 0, 1]])
    block3 = subgroup("subgroup_gl3_block.json", [rot, shift])
    for name, doc, group, config in (
        ("reduce-gl2-unipotent", unip2, "group_gl2.json", "config_gl2.json"),
        ("reduce-gl3-borel", borel3, "group_gl3.json", "config_gl3.json"),
        ("reduce-gl3-block", block3, "group_gl3.json", "config_gl3.json"),
    ):
        case(name, "reduce", {}, group=group, input=doc, config=config)

    pair3 = subgroup("subgroup_gl3_unipotent_pair.json", [
        qmat.conj(F3B, qmat.add(qmat.identity(3), qmat.mat([[0, 0, r.q()], [0, 0, 0], [0, 0, 0]]))),
        qmat.conj(F3B, qmat.add(qmat.identity(3), qmat.mat([[0, r.q(), 0], [0, 0, 0], [0, 0, 0]]))),
    ])
    for name, doc, group, config in (
        ("centre-gl3-regular", regular3, "group_gl3.json", "config_gl3.json"),
        ("centre-gl3-pair", pair3, "group_gl3.json", "config_gl3.json"),
        ("centre-gl2-unipotent", unip2, "group_gl2.json", "config_gl2.json"),
    ):
        case(name, "centre", {}, group=group, input=doc, config=config)

    # -- corpus: one serial run per profile ---------------------------------
    for profile, size in CORPUS_SIZES.items():
        cases.append({
            "name": f"corpus-{profile}",
            "command": "corpus",
            "argv": ["corpus", "--profile", profile, "--seed", str(CORPUS_SEED), "--size", str(size)],
            "check": {"size": size},
        })
    return files, cases


def write_documents(seed: int, out: Path) -> None:
    files, cases = build_documents(seed)
    out.mkdir(parents=True, exist_ok=True)
    for name, value in files.items():
        (out / name).write_text(json.dumps(value, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    manifest = {"seed": seed, "cases": cases}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=DOCS_DIR)
    args = parser.parse_args(argv)
    write_documents(args.seed, args.out)
    print(f"wrote the seed-{args.seed} document set to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
