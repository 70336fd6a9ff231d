"""destab benchmark: one workload per run, one closed-loop caller, no threads.

    python3 bench/run.py --workload gcr-corpus --seed 1 --seconds 30 --trace 0

Run from the root of a destab checkout; the program is imported from its
``src/``.  The run builds the workload's inputs from the seed, runs whole
rounds of its cases for ``--seconds`` seconds, checks every output with
``checks.py`` after the timed phase, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
run wraps the program's public functions (``tracer.py``) and reports the
per-layer ones instead.  Full results and the trace go to ``bench/out/``.
"""

import time
from fractions import Fraction

# Time on this shared machine runs at a speed that drifts by up to a factor
# of two over tens of seconds, with the same drift for every tenant process.
# A fixed slice of exact arithmetic, timed next to every measurement, reads
# the current speed; each measured time is scaled to the speed at which that
# slice takes REF_MS milliseconds (about this machine's speed when quiet).
REF_MS = 2.0


def reference_loop() -> Fraction:
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(i, i + 1) * Fraction(3, i + 2)
    return s


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * (REF_MS / 1000) / ((ref_before + ref_after) / 2)


_REF0 = time_reference()
_T0 = time.perf_counter()  # set-up is timed from interpreter start-up onwards

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import qmat  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # fresh interpreters per run; setup_s is their median
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # cases that lie beyond case_ms_tail's percentile, at least


def parse_args(argv):
    p = argparse.ArgumentParser(description="destab benchmark")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, -(-pct * len(ordered) // 100) - 1)
    return ordered[int(k)]


def tail_percentile(cases_per_round: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND cases beyond it
    in a run of MIN_ROUNDS rounds, the fewest a run has.  It depends only on
    the workload, so every run of a workload reports the same percentile."""
    n = cases_per_round * MIN_ROUNDS
    return max(p for p in range(50, 100) if n + (-p * n // 100) >= TAIL_BEYOND)


def setup_samples(args, own: float) -> list:
    """This interpreter's set-up time plus that of fresh probe interpreters."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_rounds(name, state, seconds, min_rounds=1, outcomes=None):
    """Whole rounds of the workload until ``seconds`` have passed.

    Returns each case's scaled time (see REF_MS), the number of rounds and
    the wall time taken.  ``outcomes`` collects, per case, each distinct
    (output, error) with the number of times it occurred, so memory does not
    grow with the number of rounds.
    """
    _build, round_cases, run = workloads.WORKLOADS[name]
    outcomes = {} if outcomes is None else outcomes
    times = []
    rounds = 0
    start = time.perf_counter()
    ref = time_reference()
    while True:
        for case in round_cases(state):
            t0 = time.perf_counter()
            try:
                out, err = run(state, case), None
            except Exception:  # a raising case is a failed operation; keep going
                out, err = None, traceback.format_exc(limit=3)
            took = time.perf_counter() - t0
            after = time_reference()
            times.append(scaled(took, ref, after))
            ref = after
            seen = outcomes.setdefault(case.index, [])
            for entry in seen:
                if entry[1] == out and entry[2] == err:
                    entry[3] += 1
                    break
            else:
                seen.append([case, out, err, 1])
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() - start >= seconds:
            break
    return times, rounds, time.perf_counter() - start


def case_medians(times, rounds):
    """Each case's median scaled time over the rounds of the run.

    A speed change in the middle of a long case escapes the reference loops
    around it; the median over rounds drops such a repetition.
    """
    n = len(times) // rounds
    return [statistics.median(times[r * n + i] for r in range(rounds)) for i in range(n)]


class Checker:
    """Checks one output of a case against the independent computation."""

    def __init__(self, name, state):
        self.name = name
        self.state = state
        self.truth = {}
        self.docs = {}

    def _doc(self, fname):
        if fname not in self.docs:
            path = self.state["docs_dir"] / fname
            self.docs[fname] = json.loads(path.read_text(encoding="utf-8"))
        return self.docs[fname]

    def _truth(self, case) -> bool:
        if case.index not in self.truth:
            self.truth[case.index] = qmat.is_semisimple_algebra(case.inputs["generators"])
        return self.truth[case.index]

    def check(self, case, out):
        if self.name == "gcr-corpus":
            return checks.check_gcr(case.inputs["generators"], out, self._truth(case))
        if self.name == "kempf-optimize":
            return checks.check_kempf(case.inputs, out)
        spec = case.inputs["spec"]
        argv = spec["argv"]
        doc = {a[2:]: self._doc(argv[i + 1]) for i, a in enumerate(argv) if a in workloads.FILE_FLAGS}
        return checks.check_cli(spec, doc, out["code"], out["report"])

    def is_known_fault(self, case, out, err) -> bool:
        """Whether a failed outcome is exactly the known fault of
        ``is_gcr_search`` (``workloads.KNOWN_FAULT_GENERATORS``): the search
        says completely reducible, while the algebra route and the trace form
        say not.  Any other failure of that case, a raise included, is not."""
        return (case.known_fault and err is None and not self._truth(case)
                and out == {"algebra": checks.NCR, "search": checks.CR, "witness": None})


def judge(name, state, outcomes):
    """(correct, attempted, failed, failures) over every distinct outcome."""
    checker = Checker(name, state)
    attempted = failed = 0
    correct = True
    failures = []
    for entries in outcomes.values():
        for case, out, err, count in entries:
            attempted += count
            reason = err if err is not None else checker.check(case, out)
            if reason is None:
                continue
            failed += count
            known = checker.is_known_fault(case, out, err)
            correct = correct and known
            failures.append({"case": case.index, "known_fault": known, "times": count,
                             "reason": reason})
    return correct, attempted, failed, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "destab" / "__init__.py").is_file():
        print(f"no destab sources under {src}: run from the root of a destab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        workloads.write_inputs(args.workload, args.seed, scratch)
        untimed = time.perf_counter() - t0
        state = workloads.WORKLOADS[args.workload][0](args.seed, scratch)
        own_setup = scaled(time.perf_counter() - _T0 - untimed, _REF0, time_reference())
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        return measure(args, state, own_setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, state, own_setup) -> int:
    name = args.workload
    detail = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    outcomes = {}
    if args.trace:
        import tracer as tracing

        # Two untraced rounds: the first warms the interpreter (about 10% slower
        # than later rounds), the second is the reference for trace.overhead.
        run_rounds(name, state, 0, outcomes=outcomes)
        untraced, _, _ = run_rounds(name, state, 0, outcomes=outcomes)
        t = tracing.Tracer()
        t.install()
        try:
            times, rounds, _ = run_rounds(name, state, args.seconds, outcomes=outcomes)
        finally:
            t.uninstall()
        per_round = tracing.layer_metrics(t, rounds)
        per_round["trace.overhead"] = (sum(times) / rounds / sum(untraced), "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_round.items()}
        detail["traced_rounds"] = rounds
        trace_path = OUT / f"trace-{name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(dict(t.snapshot(), rounds=rounds), indent=1, sort_keys=True))
    else:
        samples = setup_samples(args, own_setup)
        times, rounds, elapsed = run_rounds(name, state, args.seconds, MIN_ROUNDS, outcomes)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        per_case = case_medians(times, rounds)
        tail_pct = tail_percentile(len(per_case))
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "cases_per_s": {"value": len(per_case) / sum(per_case), "unit": "1/s"},
            "case_ms_p50": {"value": statistics.median(times) * 1000, "unit": "ms"},
            "case_ms_tail": {"value": percentile(times, tail_pct) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
        detail.update(setup_samples=samples, rounds=rounds, cases=len(times), tail_percentile=tail_pct,
                      wall_s=elapsed, wall_cases_per_s=len(times) / elapsed, case_s=per_case)
    correct, attempted, failed, failures = judge(name, state, outcomes)
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail.update(line, failures=failures)
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True)
    )
    for f in failures:
        print(f"case {f['case']} failed {f['times']} times{' (known fault)' if f['known_fault'] else ''}: "
              f"{f['reason']}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
