"""JSON document schemas for groups, representations, points, and configs.

Rationals cross the wire as decimal-free strings like "-3/2" (integers as
"7"), which round-trip bit-exactly.  Parsing raises SchemaError with the
offending path; emitting is the exact inverse of parsing.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from . import linalg
from .errors import DestabError, SchemaError
from .gcr import LieSubalgebra, SubgroupPresentation
from .groups import Cocharacter, GroupSpec
from .instability import SearchConfig, SubvarietyKind, SubvarietySpec
from .linalg import Mat
from .reps import ConjugationTuples, DirectSum, Point, Polynomial, Representation, SymPower


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


@contextmanager
def _schema_errors(path: str):
    """Report any other DestabError raised in the block as a schema error at path."""
    try:
        yield
    except SchemaError:
        raise
    except DestabError as exc:
        _fail(path, str(exc))


def _object(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        _fail(path, "expected an object")
    return doc


def _is_int(x) -> bool:
    """Whether a JSON value is an integer; JSON booleans are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _positive_int(value, path: str) -> int:
    if not _is_int(value) or value < 1:
        _fail(path, "must be a positive integer")
    return value


def _int_list(value, path: str, message: str = "expected a list of integers") -> list[int]:
    if not isinstance(value, list) or not all(map(_is_int, value)):
        _fail(path, message)
    return value


def parse_rational(value, path: str = "$") -> Fraction:
    if isinstance(value, bool):
        _fail(path, "booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if any(ch in value for ch in ".eE"):
            _fail(path, f"rationals are decimal-free 'p/q' strings, got {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(path, f"not an exact rational: {value!r}")
    _fail(path, f"expected an integer or 'p/q' string, got {type(value).__name__}")


def emit_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_matrix(value, path: str = "$") -> Mat:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            _fail(f"{path}[{i}]", "expected a list")
        rows.append(tuple(parse_rational(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)))
    if any(len(r) != len(rows[0]) for r in rows):
        _fail(path, "ragged matrix")
    return tuple(rows)


def emit_matrix(m: Mat) -> list[list[str]]:
    return [[emit_rational(x) for x in row] for row in m]


def parse_group(doc, path: str = "$") -> GroupSpec:
    factors = _object(doc, path).get("factors")
    if not isinstance(factors, list) or not factors:
        _fail(f"{path}.factors", "expected a nonempty list")
    parsed = []
    for i, f in enumerate(factors):
        family = _object(f, f"{path}.factors[{i}]").get("family")
        if family not in ("GL", "SL"):
            _fail(f"{path}.factors[{i}].family", "must be 'GL' or 'SL'")
        parsed.append((family, _positive_int(f.get("rank"), f"{path}.factors[{i}].rank")))
    gram = doc.get("gram", "identity")
    with _schema_errors(path):
        if gram == "identity":
            return GroupSpec.make(*parsed)
        return GroupSpec.make(*parsed, gram=parse_matrix(gram, f"{path}.gram"))


def emit_group(group: GroupSpec) -> dict:
    doc = {"factors": [{"family": f.family, "rank": f.rank} for f in group.factors]}
    if group.norm.gram == linalg.identity(group.dimension):
        doc["gram"] = "identity"
    else:
        doc["gram"] = emit_matrix(group.norm.gram)
    return doc


def parse_representation(doc, group: GroupSpec, path: str = "$") -> Representation:
    kind = _object(doc, path).get("kind")
    with _schema_errors(path):
        if kind == "conjugation_tuples":
            count = _positive_int(doc.get("count"), f"{path}.count")
            m = doc.get("m", group.dimension)
            if not _is_int(m) or m != group.dimension:
                _fail(f"{path}.m", "must match the group's matrix dimension")
            return ConjugationTuples(group, count)
        if kind == "adjoint":
            return ConjugationTuples(group, 1)
        if kind == "sym_power":
            return SymPower(group, _positive_int(doc.get("degree"), f"{path}.degree"))
        if kind == "direct_sum":
            parts = doc.get("parts")
            if not isinstance(parts, list) or not parts:
                _fail(f"{path}.parts", "expected a nonempty list")
            return DirectSum(
                tuple(
                    parse_representation(p, group, f"{path}.parts[{i}]")
                    for i, p in enumerate(parts)
                )
            )
    _fail(f"{path}.kind", f"unknown representation kind {kind!r}")


def parse_point(doc, rep: Representation, path: str = "$") -> Point:
    if isinstance(doc, dict) and "matrices" in doc:
        if not isinstance(rep, ConjugationTuples):
            _fail(path, "matrix form requires a conjugation-tuple representation")
        mats = doc["matrices"]
        if not isinstance(mats, list):
            _fail(f"{path}.matrices", "expected a list")
        with _schema_errors(path):
            return rep.point([parse_matrix(h, f"{path}.matrices[{k}]") for k, h in enumerate(mats)])
    if not isinstance(doc, list):
        _fail(path, "expected a coordinate array or {'matrices': ...}")
    coords = tuple(parse_rational(x, f"{path}[{i}]") for i, x in enumerate(doc))
    with _schema_errors(path):
        return Point(rep, coords)


def emit_point(point: Point) -> list[str]:
    return [emit_rational(c) for c in point.coords]


def parse_cocharacter(doc, group: GroupSpec, path: str = "$") -> Cocharacter:
    exps = _int_list(_object(doc, path).get("exponents"), f"{path}.exponents")
    base = doc.get("base")
    with _schema_errors(path):
        if base is None:
            return Cocharacter.standard(group, tuple(exps))
        return Cocharacter.based(group, parse_matrix(base, f"{path}.base"), tuple(exps))


def emit_cocharacter(lam: Cocharacter) -> dict:
    doc = {"exponents": list(lam.torus.exponents)}
    if lam.base != lam.group.identity():
        doc["base"] = emit_matrix(lam.base)
    return doc


def parse_polynomial(doc, rep: Representation, path: str = "$") -> Polynomial:
    if not isinstance(doc, list):
        _fail(path, "expected a list of monomial terms")
    terms = {}
    for i, term in enumerate(doc):
        coeff = parse_rational(_object(term, f"{path}[{i}]").get("coeff", "1"), f"{path}[{i}].coeff")
        mono = term.get("monomial", [])
        if not isinstance(mono, list):
            _fail(f"{path}[{i}].monomial", "expected a list of [index, exponent] pairs")
        pairs = []
        for j, pair in enumerate(mono):
            if len(_int_list(pair, f"{path}[{i}].monomial[{j}]", "expected [index, exponent]")) != 2:
                _fail(f"{path}[{i}].monomial[{j}]", "expected [index, exponent]")
            pairs.append((pair[0], pair[1]))
        key = tuple(sorted(pairs))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    with _schema_errors(path):
        return Polynomial.from_dict(rep, terms)


def emit_polynomial(poly: Polynomial) -> list[dict]:
    return [
        {"coeff": emit_rational(c), "monomial": [[i, e] for i, e in mono]}
        for mono, c in poly.terms
    ]


def parse_subvariety(doc, rep: Representation | None = None, path: str = "$") -> SubvarietySpec:
    kind = _object(doc, path).get("kind")
    if kind == "zero_locus":
        return SubvarietySpec.zero_locus()
    if kind == "identity_tuple":
        return SubvarietySpec.identity_tuple()
    if kind == "custom":
        if rep is None:
            _fail(path, "custom subvarieties need the representation context")
        gens = doc.get("generators")
        if not isinstance(gens, list) or not gens:
            _fail(f"{path}.generators", "expected a nonempty list")
        polys = tuple(
            parse_polynomial(g, rep, f"{path}.generators[{i}]") for i, g in enumerate(gens)
        )
        asserted = doc.get("g_stable_asserted", False)
        if not isinstance(asserted, bool):
            _fail(f"{path}.g_stable_asserted", "expected a boolean")
        return SubvarietySpec.custom(polys, asserted)
    _fail(f"{path}.kind", f"unknown subvariety kind {kind!r}")


def emit_subvariety(s: SubvarietySpec) -> dict:
    if s.kind is SubvarietyKind.CUSTOM:
        return {
            "kind": "custom",
            "generators": [emit_polynomial(g) for g in s.custom_generators],
            "g_stable_asserted": s.g_stable_asserted,
        }
    return {"kind": s.kind.value}


def parse_config(doc, group: GroupSpec, path: str = "$") -> SearchConfig:
    if doc is None:
        return SearchConfig.default(group)
    box = _positive_int(_object(doc, path).get("exponent_box", 4), f"{path}.exponent_box")
    oracle = doc.get("oracle_mode", False)
    if not isinstance(oracle, bool):
        _fail(f"{path}.oracle_mode", "expected a boolean")
    samples = doc.get("normalizer_samples", [])
    if not isinstance(samples, list):
        _fail(f"{path}.normalizer_samples", "expected a list of matrices")
    parsed_samples = tuple(
        parse_matrix(g, f"{path}.normalizer_samples[{i}]") for i, g in enumerate(samples)
    )
    family = doc.get("family", "weyl")
    with _schema_errors(path):
        if family == "weyl" or family is None:
            return SearchConfig.default(
                group,
                exponent_box=box,
                shear_values=_int_list(doc.get("shear_values", []), f"{path}.shear_values"),
                oracle_mode=oracle,
                normalizer_samples=parsed_samples,
            )
        if not isinstance(family, list):
            _fail(f"{path}.family", "expected 'weyl' or a list of matrices")
        frames = tuple(parse_matrix(g, f"{path}.family[{i}]") for i, g in enumerate(family))
        return SearchConfig(group, box, frames, oracle, parsed_samples)


def emit_config(cfg: SearchConfig) -> dict:
    return {
        "exponent_box": cfg.exponent_box,
        "family": [emit_matrix(g) for g in cfg.conjugation_family],
        "oracle_mode": cfg.oracle_mode,
        "normalizer_samples": [emit_matrix(g) for g in cfg.normalizer_samples],
    }


def parse_subgroup(doc, group: GroupSpec, path: str = "$") -> SubgroupPresentation:
    gens = _object(doc, path).get("generators")
    if not isinstance(gens, list) or not gens:
        _fail(f"{path}.generators", "expected a nonempty list of matrices")
    mats = [parse_matrix(g, f"{path}.generators[{i}]") for i, g in enumerate(gens)]
    with _schema_errors(path):
        return SubgroupPresentation(group, tuple(mats))


def parse_lie_subalgebra(doc, group: GroupSpec, path: str = "$") -> LieSubalgebra:
    basis = _object(doc, path).get("basis")
    if not isinstance(basis, list) or not basis:
        _fail(f"{path}.basis", "expected a nonempty list of matrices")
    mats = [parse_matrix(x, f"{path}.basis[{i}]") for i, x in enumerate(basis)]
    with _schema_errors(path):
        return LieSubalgebra(group, tuple(mats))
