"""The three workloads: inputs from a seed, one case per operation.

Each workload has a fixed shape and the seed draws only values that do not
change the amount of work (see the README for why).  ``build`` makes the
inputs and configurations (the part ``setup_s`` times), after
``write_inputs`` has written any input files; ``round_cases``
returns the cases of one round, with fresh per-round objects where the
workload shares state between cases; ``run`` performs one case and returns
a plain summary of the program's answer for the checker.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import qmat
from cli_docs import F3A, F3B, FILE_FLAGS

ACCEPTANCE_SEED = 1
GCR_CASES = 64
# Nonzero scalar twists: scaling a generator keeps the algebra it spans, the
# zero pattern of every frame-transported tuple, and so the verdict and the
# search's work.
TWISTS = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2"))
# Case 162 of subgroup_corpus(2, 200): the search reports it completely
# reducible after examining no cocharacter, but it fixes the line <(1,1,1)>
# with no invariant complement.  It fails every round, whatever the seed.
KNOWN_FAULT_GENERATORS = (
    ((1, 2, -2), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
)

ENTRY_VALUES = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "3/2"))


@dataclass
class Case:
    index: int
    kind: str
    inputs: dict
    known_fault: bool = False
    live: dict = field(default_factory=dict)  # per-round program objects


# ---------------------------------------------------------------------------
# gcr-corpus


def _build_gcr(seed: int, root: Path):
    from destab import GroupSpec, corpus, gcr

    rng = random.Random(seed)
    cases = []
    for i, h in enumerate(corpus.subgroup_corpus(ACCEPTANCE_SEED, GCR_CASES)):
        twisted = tuple(qmat.scale(rng.choice(TWISTS), g) for g in h.generators)
        cases.append(Case(i, "subgroup", {"group": h.group, "generators": twisted}))
    rng.shuffle(cases)
    known = {"group": GroupSpec.make(("GL", 3)), "generators": tuple(qmat.mat(g) for g in KNOWN_FAULT_GENERATORS)}
    cases.append(Case(len(cases), "subgroup", known, known_fault=True))
    for c in cases:
        c.live["h"] = gcr.SubgroupPresentation(c.inputs["group"], c.inputs["generators"])
    configs = {g: corpus.corpus_config(g) for g in {c.inputs["group"] for c in cases}}
    return {"cases": cases, "configs": configs}


def _round_gcr(state):
    # SubgroupPresentation holds no cache; tuple_point() makes a fresh
    # representation per call, so every case starts cold.
    return state["cases"]


def _run_gcr(state, case):
    from destab import gcr, parabolic, reps

    h = case.live["h"]
    algebraic = gcr.is_gcr_algebra(h)
    searched = gcr.is_gcr_search(h, state["configs"][h.group])
    out = {"algebra": algebraic.status, "search": searched.status, "witness": None}
    if not searched.is_completely_reducible:
        lam = searched.witness_cocharacter
        v = h.tuple_point()
        v_limit = reps.limit(v, lam)
        u = None if v_limit is None else parabolic.find_ru_conjugator(v, v_limit, lam)
        out["witness"] = {
            "base": lam.base,
            "exponents": lam.torus.exponents,
            "limit_exists": v_limit is not None,
            "conjugator_found": u is not None,
        }
    return out


# ---------------------------------------------------------------------------
# kempf-optimize

# Frames conjugating the inputs; each configuration's family holds them, so
# the bounded search reaches the frame where the input is in normal form.
F4 = (
    qmat.mul(qmat.mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
             qmat.mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]])),
    qmat.mul(qmat.mat([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
             qmat.mat([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])),
    qmat.mul(qmat.mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
             qmat.mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 1, 0], [0, 0, 0, 1]])),
)
F5 = qmat.mul(
    qmat.mat([[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]),
    qmat.mat([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1, 1]]),
)
F3 = (F3A, F3B)
SL2_FRAMES = (qmat.mat([[1, 1], [0, 1]]), qmat.mat([[1, 0], [-1, 1]]))

GL4_CASES = 24
BINARY_FORMS = ((3, 0), (3, 1), (4, 0), (4, 1), (5, 2), (6, 1))


def _dense_nilpotent(rng, n):
    return tuple(tuple(rng.choice(ENTRY_VALUES) if j > i else Fraction(0) for j in range(n)) for i in range(n))


def _jordan21(rng):
    return qmat.mat([[0, rng.choice(ENTRY_VALUES), 0], [0, 0, 0], [0, 0, 0]])


def _build_kempf(seed: int, root: Path):
    from destab import GroupSpec, SearchConfig

    rng = random.Random(seed)
    gl3, gl4, gl5, sl2 = (GroupSpec.make(("GL", 3)), GroupSpec.make(("GL", 4)),
                          GroupSpec.make(("GL", 5)), GroupSpec.make(("SL", 2)))
    configs = {
        "gl4": SearchConfig(gl4, exponent_box=4, conjugation_family=F4),
        "gl5": SearchConfig(gl5, exponent_box=4, conjugation_family=(F5,)),
        "gl3-oracle": SearchConfig(gl3, exponent_box=2, conjugation_family=F3, oracle_mode=True),
        "gl3": SearchConfig(gl3, exponent_box=4, conjugation_family=F3),
        "sl2-oracle": SearchConfig.default(sl2, exponent_box=3, shear_values=(-1, 1), oracle_mode=True),
    }
    groups = {"gl3": gl3, "gl4": gl4, "gl5": gl5, "sl2": sl2}
    specs = []  # (kind, group key, config key, points or generators, extra)
    frames4 = (qmat.identity(4),) + F4
    for k in range(GL4_CASES):
        frame = frames4[k % len(frames4)]
        specs.append(("nilpotent", "gl4", "gl4", qmat.conj(frame, _dense_nilpotent(rng, 4)), {}))
    for frame in (qmat.identity(5), F5):
        specs.append(("nilpotent", "gl5", "gl5", qmat.conj(frame, _dense_nilpotent(rng, 5)), {}))
    frames3 = (qmat.identity(3),) + F3
    for frame in frames3:
        specs.append(("nilpotent", "gl3", "gl3-oracle", qmat.conj(frame, _dense_nilpotent(rng, 3)), {}))
        specs.append(("nilpotent", "gl3", "gl3-oracle", qmat.conj(frame, _jordan21(rng)), {}))
    ident3 = qmat.identity(3)
    for frame, nil, pair in ((F3A, _dense_nilpotent(rng, 3), False), (F3B, _jordan21(rng), True),
                             (ident3, _dense_nilpotent(rng, 3), True), (F3A, _jordan21(rng), False)):
        u = qmat.conj(frame, qmat.add(ident3, nil))
        gens = (u, qmat.mul(u, u)) if pair else (u,)
        specs.append(("unipotent", "gl3", "gl3", gens, {}))
    for k, (degree, j) in enumerate(BINARY_FORMS):
        mono = [Fraction(0)] * (degree + 1)
        mono[j] = rng.choice(ENTRY_VALUES)
        form = qmat.binary_act(SL2_FRAMES[k % 2], mono)
        specs.append(("binary", "sl2", "sl2-oracle", form, {"binary": (degree, j)}))

    cases = []
    for index, (kind, gkey, ckey, data, extra) in enumerate(specs):
        cfg = configs[ckey]
        if kind == "nilpotent":
            meta = {"points": [[data]], "target": "zero"}
        elif kind == "unipotent":
            meta = {"points": [list(data)], "target": "identity"}
        else:
            meta = {"points": [data], "target": "zero"}
        meta.update(extra, oracle=cfg.oracle_mode, group=groups[gkey], config=ckey, data=data)
        cases.append(Case(index, kind, meta))
    return {"cases": cases, "configs": configs}


def _round_kempf(state):
    """Fresh shared objects per round: one representation and one zero-locus
    subvariety per group (per degree for binary forms), so their caches warm
    up across the cases of the round and every round does the same work."""
    from destab import ConjugationTuples, Point, SubvarietySpec, SymPower

    reps: dict = {}
    zero: dict = {}
    for case in state["cases"]:
        inp = case.inputs
        group = inp["group"]
        if case.kind == "nilpotent":
            rep = reps.setdefault(("tuple", group), ConjugationTuples(group, 1))
            case.live["points"] = (rep.point([inp["data"]]),)
        elif case.kind == "binary":
            degree = inp["binary"][0]
            rep = reps.setdefault(("sym", degree), SymPower(group, degree))
            case.live["points"] = (Point(rep, inp["data"]),)
        else:
            continue
        case.live["subvariety"] = zero.setdefault(group, SubvarietySpec.zero_locus())
    return state["cases"]


def _run_kempf(state, case):
    from destab import gcr, instability

    cfg = state["configs"][case.inputs["config"]]
    if case.kind == "unipotent":
        h = gcr.SubgroupPresentation(case.inputs["group"], case.inputs["data"])
        res = gcr.optimal_parabolic_subgroup(h, cfg)
    else:
        res = instability.optimize(case.live["points"], case.live["subvariety"], cfg)
    lam = res.cocharacter
    return {
        "status": res.status,
        "value_sq": res.value_sq,
        "base": None if lam is None else lam.base,
        "exponents": None if lam is None else lam.torus.exponents,
        "global_verified": res.global_verified,
    }


# ---------------------------------------------------------------------------
# cli-batch


def _docs_dir(seed: int, root: Path) -> Path:
    """The committed documents at the default seed, else a set under ``root``."""
    import cli_docs

    return cli_docs.DOCS_DIR if seed == cli_docs.DEFAULT_SEED else root / f"docs-seed{seed}"


def write_inputs(name: str, seed: int, root: Path) -> None:
    """Writes the input files a workload reads that are not committed.

    This is the benchmark's own work, not the program's, so it runs before
    and apart from ``build`` and is not part of ``setup_s``.
    """
    import cli_docs

    if name == "cli-batch" and seed != cli_docs.DEFAULT_SEED:
        cli_docs.write_documents(seed, _docs_dir(seed, root))


def _build_cli(seed: int, root: Path):
    from destab import cli  # noqa: F401  (the import is part of set-up)

    docs_dir = _docs_dir(seed, root)
    manifest = json.loads((docs_dir / "manifest.json").read_text(encoding="utf-8"))
    if manifest["seed"] != seed:
        raise SystemExit(f"{docs_dir} holds the seed-{manifest['seed']} documents, not seed {seed}")
    cases = []
    for index, spec in enumerate(manifest["cases"]):
        argv = list(spec["argv"])
        for i in range(1, len(argv)):
            if argv[i - 1] in FILE_FLAGS:
                argv[i] = str(docs_dir / argv[i])
        out = root / f"report-{index}.json"
        cases.append(Case(index, spec["command"], {"spec": spec, "argv": argv + ["--out", str(out)], "out": out}))
    return {"cases": cases, "docs_dir": docs_dir}


def _round_cli(state):
    return state["cases"]


def _run_cli(state, case):
    from destab import cli

    case.inputs["out"].unlink(missing_ok=True)  # never read an earlier round's report
    code = cli.main(case.inputs["argv"])
    with open(case.inputs["out"], encoding="utf-8") as fh:
        report = json.load(fh)
    return {"code": code, "report": report}


WORKLOADS = {
    "gcr-corpus": (_build_gcr, _round_gcr, _run_gcr),
    "kempf-optimize": (_build_kempf, _round_kempf, _run_kempf),
    "cli-batch": (_build_cli, _round_cli, _run_cli),
}
NAMES = tuple(WORKLOADS)
