"""Independent checks of every workload output.

Nothing here imports destab: expected answers come from the benchmark's
own exact arithmetic (``qmat``) or from closed formulas, and they run after
the timed phase.  Each check returns None when the output is right and a
one-line reason when it is not.

Cocharacters are (base, exponents): lambda(a) = base diag(a^d) base^-1.  On
a matrix entry (i, j) of the base-transported point the torus acts with
weight e_i - e_j, so a limit exists when no nonzero entry has d_i < d_j and
keeps the entries with d_i = d_j.
"""

from __future__ import annotations

from fractions import Fraction

import qmat

CR = "completely_reducible"
NCR = "not_completely_reducible"


# ---------------------------------------------------------------------------
# Shared pieces


def classify(g, base, d) -> str:
    gt = qmat.transport(g, base)
    n = len(d)
    if any(gt[i][j] != 0 for i in range(n) for j in range(n) if d[i] < d[j]):
        return "NotInP"
    if all(gt[i][j] == (i == j) for i in range(n) for j in range(n) if d[i] == d[j]):
        return "InRu"
    if not any(gt[i][j] != 0 for i in range(n) for j in range(n) if d[i] > d[j]):
        return "InL"
    return "InPnotLnotRu"


def tuple_limit(mats, base, d):
    """Limit of a matrix tuple under conjugation, or None when it does not exist."""
    n = len(d)
    out = []
    for h in mats:
        ht = qmat.transport(h, base)
        if any(ht[i][j] != 0 for i in range(n) for j in range(n) if d[i] < d[j]):
            return None
        kept = tuple(tuple(ht[i][j] if d[i] == d[j] else Fraction(0) for j in range(n)) for i in range(n))
        out.append(qmat.conj(base, kept))
    return out


def binary_limit(coords, base, d):
    t = qmat.binary_act(qmat.inverse(base), coords)
    deg = len(coords) - 1
    pair = [d[0] * (deg - j) + d[1] * j for j in range(deg + 1)]
    if any(c != 0 and p < 0 for c, p in zip(t, pair)):
        return None
    return qmat.binary_act(base, tuple(c if p == 0 else Fraction(0) for c, p in zip(t, pair)))


def destabilizing_value(points, base, d, target: str, binary: bool):
    """a^2/|d|^2 for the direction (base, d), a the least pairing on the part
    of the points outside the target; None unless every pairing is positive
    (i.e. unless every limit lands in the target).

    Points are binary forms (coefficient tuples) or matrix tuples."""
    pairings = []
    for x in points:
        if binary:
            deg = len(x) - 1
            t = qmat.binary_act(qmat.inverse(base), x)
            pairings += [d[0] * (deg - j) + d[1] * j for j, c in enumerate(t) if c != 0]
            continue
        for h in x:
            ht = qmat.transport(h, base)
            if target == "identity":
                ht = qmat.sub(ht, qmat.identity(len(ht)))
            n = len(d)
            pairings += [d[i] - d[j] for i in range(n) for j in range(n) if ht[i][j] != 0]
    if not pairings or min(pairings) <= 0:
        return None
    a = min(pairings)
    return Fraction(a * a, sum(x * x for x in d))


# ---------------------------------------------------------------------------
# gcr-corpus


def check_gcr(generators, out: dict, truth: bool | None = None) -> str | None:
    """Both verdicts equal the trace-form truth; a negative witness holds.

    ``truth`` may be passed in when already computed for these generators.
    """
    if truth is None:
        truth = qmat.is_semisimple_algebra(generators)
    expected = CR if truth else NCR
    if out["algebra"] != expected:
        return f"algebra verdict {out['algebra']}, trace form says {expected}"
    if out["search"] != expected:
        return f"search verdict {out['search']}, trace form says {expected}"
    if expected == NCR:
        w = out["witness"]
        if w is None:
            return "negative verdict without a witness cocharacter"
        for k, g in enumerate(generators):
            if classify(g, w["base"], w["exponents"]) == "NotInP":
                return f"generator {k} is not in the witness parabolic"
        if not w["limit_exists"] or w["conjugator_found"]:
            return "witness limit has a radical conjugator or does not exist"
    return None


# ---------------------------------------------------------------------------
# kempf-optimize


def expected_kempf_value(meta: dict) -> Fraction:
    if "binary" in meta:
        deg, j = meta["binary"]
        return Fraction((deg - 2 * j) ** 2, 2)
    first = meta["points"][0][0]
    if meta["target"] == "identity":
        first = qmat.sub(first, qmat.identity(len(first)))
    return qmat.kempf_value(qmat.jordan_type(first))


def check_kempf(meta: dict, out: dict) -> str | None:
    if out["status"] != "optimal":
        return f"status {out['status']}"
    expected = expected_kempf_value(meta)
    if out["value_sq"] != expected:
        return f"value_sq {out['value_sq']}, expected {expected}"
    attained = destabilizing_value(
        meta["points"], out["base"], out["exponents"], meta["target"], "binary" in meta
    )
    if attained is None:
        return "a limit along the returned cocharacter misses the target"
    if attained != expected:
        return f"returned cocharacter attains {attained}, not {expected}"
    if meta["oracle"] and not out["global_verified"]:
        return "oracle mode without global_verified"
    return None


# ---------------------------------------------------------------------------
# cli-batch


def qm(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _cochar(doc, n):
    base = qm(doc["base"]) if "base" in doc else qmat.identity(n)
    return base, tuple(doc["exponents"])


def _point(doc, rep: dict):
    if rep["kind"] == "sym_power":
        return tuple(Fraction(x) for x in doc)
    return [qm(h) for h in doc["matrices"]]


def check_cli(case: dict, doc: dict, code: int, report: dict) -> str | None:
    """``doc`` maps the case's document flags (``group``, ``rep``, ``input``,
    ``config``) to the JSON of the documents given for them."""
    if code != 0:
        return f"exit status {code}: {report.get('error')}"
    result = report["result"]
    if report.get("command") != case["command"]:
        return "report names another command"
    n = sum(f["rank"] for f in doc["group"]["factors"]) if "group" in doc else 0
    command = case["command"]

    if command == "limit":
        rep = doc["rep"]
        base, d = _cochar(doc["input"]["cocharacter"], n)
        point = _point(doc["input"]["point"], rep)
        if rep["kind"] == "sym_power":
            lim = binary_limit(point, base, d)
            coords = lim
        else:
            lim = tuple_limit(point, base, d)
            coords = None if lim is None else [x for h in lim for x in qmat.flat(h)]
        if result["exists"] != (lim is not None):
            return f"exists={result['exists']}, exponent pattern says {lim is not None}"
        if lim is not None and [Fraction(x) for x in result["limit"]] != list(coords):
            return "limit differs from the exponent-pattern limit"
        return None

    if command == "classify":
        base, d = _cochar(doc["input"]["cocharacter"], n)
        expected = classify(qm(doc["input"]["element"]), base, d)
        if result["membership"] != expected:
            return f"membership {result['membership']}, exponent pattern says {expected}"
        return None

    if command in ("optimize", "oracle"):
        rep = doc["rep"]
        points = [_point(p, rep) for p in doc["input"]["points"]]
        meta = {
            "points": points,
            "target": case["check"]["target"],
            "oracle": command == "oracle",
        }
        if "binary" in case["check"]:
            meta["binary"] = (case["check"]["binary"]["degree"], case["check"]["binary"]["monomial"])
        cochar = result["cocharacter"]
        if cochar is None:
            return f"status {result['status']} without a cocharacter"
        base, d = _cochar(cochar, n)
        out = {
            "status": result["status"],
            "value_sq": None if result["value_sq"] is None else Fraction(result["value_sq"]),
            "base": base,
            "exponents": d,
            "global_verified": result["global_verified"],
        }
        return check_kempf(meta, out)

    if command == "cochar-closed":
        mats = _point(doc["input"]["point"], doc["rep"])
        truth = qmat.is_semisimple_algebra(mats)
        if result["closed_within_bound"] != truth:
            return f"closed_within_bound={result['closed_within_bound']}, semisimplicity says {truth}"
        return None

    gens = [qm(g) for g in doc["input"]["generators"]] if "input" in doc else []

    if command == "gcr":
        expected = CR if qmat.is_semisimple_algebra(gens) else NCR
        for route in ("search", "algebra"):
            if result[route]["status"] != expected:
                return f"{route} verdict {result[route]['status']}, trace form says {expected}"
        if not result["agree"]:
            return "routes disagree"
        if expected == NCR:
            base, d = _cochar(result["search"]["witness_cocharacter"], n)
            if any(classify(g, base, d) == "NotInP" for g in gens):
                return "a generator is not in the witness parabolic"
        return None

    if command == "reduce":
        quotient = [qm(g) for g in result["quotient_generators"]]
        if len(quotient) != len(gens):
            return "quotient has another number of generators"
        if not qmat.is_semisimple_algebra(quotient):
            return "quotient is not semisimple"
        for k, (g, h) in enumerate(zip(gens, quotient)):
            if qmat.charpoly(g) != qmat.charpoly(h):
                return f"generator {k} changed its characteristic polynomial"
        return None

    if command == "centre":
        if not result["has_centre"]:
            return "no centre for a non-reducible unipotent subgroup"
        base, d = _cochar(result["cocharacter"], n)
        for k, g in enumerate(gens):
            cls = classify(g, base, d)
            if cls == "NotInP":
                return f"generator {k} is not in the parabolic"
            unipotent = qmat.is_zero(qmat.power(qmat.sub(g, qmat.identity(n)), n))
            if unipotent and cls != "InRu":
                return f"unipotent generator {k} is not in the unipotent radical"
        return None

    if command == "corpus":
        size = case["check"]["size"]
        if result["size"] != size or result["passed"] != size:
            return f"corpus passed {result['passed']} of {result['size']}, expected {size}"
        return None

    return f"no check for command {command}"
