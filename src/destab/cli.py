"""Batch command-line front end.

One command per process: parse the input documents, dispatch to exactly
one library operation, and write a machine-readable JSON report.  Exit
statuses: 0 success, 2 schema error, 3 precondition violation, 4
unsupported feature, 5 internal invariant failure.

Reports carry exact rationals as "p/q" strings, echo the command, embed
the full search configuration (bounded verdicts are never quoted without
their bound), and include a configuration fingerprint for replay.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys

from . import __version__, documents
from .corpus import PROFILES, run_profile
from .errors import (
    DimensionError,
    DomainError,
    InvariantViolation,
    PreconditionError,
    SchemaError,
    UnsupportedError,
)
from .gcr import building_centre, is_gcr_algebra, is_gcr_search, reduce_to_gcr
from .groups import norm_sq
from .instability import is_cochar_closed, optimize
from .parabolic import classify
from .reps import limit

EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_UNSUPPORTED = 4
EXIT_INVARIANT = 5
_MAX_WORKERS = 64  # a larger DESTAB_THREADS is refused before any worker process starts


def _load_json(args, flag: str):
    """The parsed document named by ``--<flag>``, kept for the fingerprint."""
    path = getattr(args, flag)
    what = "representation" if flag == "rep" else flag
    if path is None:
        raise SchemaError(f"missing required document: {what}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{what} document not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{what} document cannot be read: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} document is not valid JSON: {exc}")
    args.documents[flag] = doc
    return doc


def _load_config(args, group):
    return documents.parse_config(_load_json(args, "config") if args.config else None, group)


def _load_subgroup(args):
    """The subgroup and search configuration of ``gcr``, ``reduce`` and ``centre``."""
    group = documents.parse_group(_load_json(args, "group"))
    h = documents.parse_subgroup(_load_json(args, "input"), group)
    return h, _load_config(args, group)


def _load_point_inputs(args):
    """The group, representation and input document of ``limit``,
    ``optimize``, ``oracle`` and ``cochar-closed``."""
    group = documents.parse_group(_load_json(args, "group"))
    rep = documents.parse_representation(_load_json(args, "rep"), group)
    return group, rep, _load_json(args, "input")


def _fingerprint(payload) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _emit_cocharacter_or_none(lam):
    return None if lam is None else documents.emit_cocharacter(lam)


def _emit_parabolic(p):
    if p is None:
        return None
    return {
        "whole_group": p.is_whole_group,
        "blocks": [list(b) for b in p.blocks],
        "flags": [[documents.emit_matrix(space) for space in chain] for chain in p.flags],
    }


def _emit_optimization(result) -> dict:
    payload = {
        "status": result.status,
        "cocharacter": _emit_cocharacter_or_none(result.cocharacter),
        "value_sq": None if result.value_sq is None else documents.emit_rational(result.value_sq),
        "parabolic": _emit_parabolic(result.parabolic),
        "global_verified": result.global_verified,
        "certificate": {
            "frames_examined": len(result.certificate.frames),
            "frames": [
                {
                    "frame_index": f.frame_index,
                    "exponents": None if f.exponents is None else list(f.exponents),
                    "value_sq": None if f.value_sq is None else documents.emit_rational(f.value_sq),
                }
                for f in result.certificate.frames
            ],
            "active_objective": [list(c.weights) for c in result.certificate.active_objective],
            "active_cone": [list(c.weights) for c in result.certificate.active_cone],
            "oracle_value_sq": None
            if result.certificate.oracle_value_sq is None
            else documents.emit_rational(result.certificate.oracle_value_sq),
            "oracle_box": result.certificate.oracle_box,
            "norm_gram": None
            if result.certificate.norm_gram is None
            else documents.emit_matrix(result.certificate.norm_gram),
        },
    }
    if result.cocharacter is not None and not result.cocharacter.is_zero:
        payload["norm_sq"] = documents.emit_rational(norm_sq(result.cocharacter))
    return payload


def _emit_gcr_verdict(verdict) -> dict:
    return {
        "status": verdict.status,
        "witness_cocharacter": _emit_cocharacter_or_none(verdict.witness_cocharacter),
        "witness_radical": None
        if verdict.witness_radical is None
        else [documents.emit_matrix(x) for x in verdict.witness_radical],
        "bounded_box": verdict.bounded_box,
        "examined_nonzero": len(verdict.examined),
        "tuple_length": verdict.tuple_length,
        "norm_gram": None
        if verdict.norm_gram is None
        else documents.emit_matrix(verdict.norm_gram),
    }


def _run_limit(args):
    group, rep, doc = _load_point_inputs(args)
    if not isinstance(doc, dict):
        raise SchemaError("input: expected an object with 'point' and 'cocharacter'")
    point = documents.parse_point(doc.get("point"), rep, "$.point")
    lam = documents.parse_cocharacter(doc.get("cocharacter"), group, "$.cocharacter")
    value = limit(point, lam)
    result = {
        "exists": value is not None,
        "limit": None if value is None else documents.emit_point(value),
    }
    return result, None, ()


def _run_classify(args):
    group = documents.parse_group(_load_json(args, "group"))
    doc = _load_json(args, "input")
    if not isinstance(doc, dict):
        raise SchemaError("input: expected an object with 'element' and 'cocharacter'")
    element = documents.parse_matrix(doc.get("element"), "$.element")
    lam = documents.parse_cocharacter(doc.get("cocharacter"), group, "$.cocharacter")
    cls = classify(element, lam)
    return {"membership": cls.value}, None, ()


def _run_optimize(args, force_oracle: bool = False):
    group, rep, doc = _load_point_inputs(args)
    if not isinstance(doc, dict):
        raise SchemaError("input: expected an object with 'points' and 'subvariety'")
    pts_doc = doc.get("points")
    if not isinstance(pts_doc, list) or not pts_doc:
        raise SchemaError("$.points: expected a nonempty list")
    points = [documents.parse_point(p, rep, f"$.points[{i}]") for i, p in enumerate(pts_doc)]
    s = documents.parse_subvariety(doc.get("subvariety"), rep, "$.subvariety")
    cfg = _load_config(args, group)
    if force_oracle and not cfg.oracle_mode:
        cfg = dataclasses.replace(cfg, oracle_mode=True)
    result = optimize(points, s, cfg)
    assertions = ["limits_land_in_subvariety", "value_recomputed_from_orders",
                  "tied_maximizers_share_parabolic", "normalizer_samples_contained"]
    return _emit_optimization(result), cfg, tuple(assertions)


def _run_cochar_closed(args):
    group, rep, doc = _load_point_inputs(args)
    point = documents.parse_point(doc.get("point") if isinstance(doc, dict) else doc, rep, "$.point")
    cfg = _load_config(args, group)
    verdict = is_cochar_closed(point, cfg)
    result = {
        "closed_within_bound": verdict.closed,
        "box": verdict.box,
        "witness": _emit_cocharacter_or_none(verdict.witness),
        "witness_limit": None
        if verdict.witness_limit is None
        else [documents.emit_matrix(h) for h in verdict.witness_limit],
        "examined_nonzero": len(verdict.examined),
    }
    return result, cfg, ("witness_conjugator_rechecked",)


def _run_gcr(args):
    h, cfg = _load_subgroup(args)
    searched = _emit_gcr_verdict(is_gcr_search(h, cfg))
    algebra = _emit_gcr_verdict(is_gcr_algebra(h))
    agree = algebra["status"] == searched["status"]
    payload = {"search": searched, "algebra": algebra, "agree": agree, "status": algebra["status"]}
    return payload, cfg, ("witness_conjugator_rechecked",)


def _run_reduce(args):
    h, cfg = _load_subgroup(args)
    chain, quotient = reduce_to_gcr(h)
    result = {
        "chain": [documents.emit_cocharacter(lam) for lam in chain],
        "quotient_generators": [documents.emit_matrix(g) for g in quotient.generators],
    }
    return result, cfg, ("quotient_certified_semisimple",)


def _run_centre(args):
    h, cfg = _load_subgroup(args)
    centre = building_centre(h, cfg)
    result = {
        "has_centre": centre.has_centre,
        "cocharacter": _emit_cocharacter_or_none(centre.cocharacter),
        "parabolic": _emit_parabolic(centre.parabolic),
        "stabilizing_samples": [documents.emit_matrix(g) for g in centre.stabilizing_samples],
    }
    assertions = ("generators_inside_parabolic", "unipotent_generators_in_radical")
    return result, cfg, assertions


def _run_corpus(args):
    profile = args.profile
    if profile not in PROFILES:
        raise SchemaError(f"unknown corpus profile {profile!r}; known: {sorted(PROFILES)}")
    seed = args.seed if args.seed is not None else 1
    size = args.size if args.size is not None else 50
    if size < 1:
        raise SchemaError(f"corpus size must be at least 1, got {size}")
    threads = os.environ.get("DESTAB_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        raise SchemaError(f"DESTAB_THREADS must be an integer, got {threads!r}") from None
    if workers > _MAX_WORKERS:
        raise SchemaError(f"DESTAB_THREADS must be at most {_MAX_WORKERS}, got {workers}")
    records = run_profile(profile, seed, size, workers)
    failures = [r for r in records if not r.get("ok", False)]
    result = {
        "profile": profile,
        "seed": seed,
        "size": len(records),
        "passed": len(records) - len(failures),
        "failures": failures,
    }
    return result, None, ()


_COMMANDS = {
    "limit": _run_limit,
    "classify": _run_classify,
    "optimize": _run_optimize,
    "cochar-closed": _run_cochar_closed,
    "gcr": _run_gcr,
    "reduce": _run_reduce,
    "centre": _run_centre,
    "oracle": functools.partial(_run_optimize, force_oracle=True),
    "corpus": _run_corpus,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="destab",
        description="exact destabilizing-cocharacter and complete-reducibility toolkit",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--group", help="group specification document (JSON)")
    parser.add_argument("--rep", help="representation document (JSON)")
    parser.add_argument("--input", help="input document (points/subgroup/element)")
    parser.add_argument("--config", help="search configuration document (JSON)")
    parser.add_argument("--seed", type=int, help="seed for corpus generation")
    parser.add_argument("--size", type=int, help="corpus size")
    parser.add_argument("--profile", help="corpus profile name")
    parser.add_argument("--out", help="write the report here (default: stdout)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser``'s parser, built once per process: parsing reads it
    and does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args.documents = {}
    try:
        result, cfg, assertions = _COMMANDS[args.command](args)
    except SchemaError as exc:
        _emit_error(args, "schema", str(exc))
        return EXIT_SCHEMA
    except (PreconditionError, DimensionError, DomainError) as exc:
        _emit_error(args, "precondition", str(exc))
        return EXIT_PRECONDITION
    except UnsupportedError as exc:
        _emit_error(args, "unsupported", str(exc))
        return EXIT_UNSUPPORTED
    except InvariantViolation as exc:
        _emit_error(args, "invariant", str(exc))
        return EXIT_INVARIANT

    config_echo = None if cfg is None else documents.emit_config(cfg)
    report = {
        "command": args.command,
        "version": __version__,
        "result": result,
        "config": config_echo,
        "assertions_passed": list(assertions),
        "config_fingerprint": _fingerprint(
            {
                "command": args.command,
                "config": config_echo,
                "seed": args.seed,
                "profile": args.profile,
                "size": args.size,
                "documents": args.documents,
            }
        ),
    }
    _write(args, report)
    return 0


def _write(args, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit_error(args, kind: str, message: str) -> None:
    _write(args, {"error": {"kind": kind, "message": message}})


if __name__ == "__main__":
    raise SystemExit(main())
