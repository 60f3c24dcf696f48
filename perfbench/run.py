"""Layered benchmark of modcalc: time to a certified solve.

    python3 perfbench/run.py --workload gradient-grid --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

One run times fresh interpreters importing modcalc, sets up its workload
several times (inputs plus one warm-up operation), repeats whole passes over
the workload's fixed operation list until ``--seconds`` have passed, then
checks every output against the independent computations in ``oracle.py``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans.py`` with ``--trace 1``.
``--smoke`` runs a small version of every workload once and shows that each
check rejects perturbed outputs.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
SETUP_REPEATS = 5
WORKLOADS = ("gradient-grid", "corner-walks", "capacity-grid", "cli-roundtrip")
# the only problems an expected failure may show: the known stall stops
# short of the tolerance; anything else it returns must still be right
TOLERATED = ("did not converge", "certified gap ")


def _load_program():
    """Point the interpreter at the checkout's sources and import them."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "modcalc", "__init__.py")):
        raise SystemExit(f"perfbench: no modcalc sources under {SRC}")
    sys.path.insert(0, SRC)
    import modcalc

    if not os.path.abspath(modcalc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: modcalc imported from {modcalc.__file__}, not {SRC}")
    return modcalc


def _import_s(repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports modcalc."""
    env = {**os.environ, "PYTHONPATH": SRC}
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import modcalc"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _remove(workdir: str) -> None:
    """Delete a run's scratch directory, and its parent once empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:
        pass  # another run still uses it


def _settle() -> None:
    """Collect the garbage left so far and move every surviving object out
    of the collector's view, outside the timed part.  Each operation then
    starts with empty young generations, and the inputs and outputs the
    benchmark holds do not lengthen the program's full collections: without
    this, the first pass, the one whose outputs are kept whole, ran up to
    1.5 s slower than later ones."""
    gc.collect()
    gc.freeze()


def _run_op(op):
    """Time one operation; an exception is the operation's output."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failing operation must not stop the run
        traceback.print_exc(file=sys.stderr)
        out = exc
    elapsed = time.perf_counter() - start
    if isinstance(out, Exception):
        return elapsed, {"error": repr(out), "converged": False}
    return elapsed, op.extract(out)


class Run:
    """One measured run of one workload."""

    def __init__(self, name: str, seed: int, workdir: str, small: bool = False) -> None:
        import workloads

        self.wl_mod = workloads
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self.setup_reps: list[float] = []
        self.wl = None

    def build(self):
        make = self.wl_mod.WORKLOADS[self.name]
        if self.name == "cli-roundtrip":
            return make(self.seed, self.workdir, self.small)
        return make(self.seed, self.small)

    def setup(self, repeats: int) -> None:
        self.wl_mod.prepare(self.name, self.seed, self.small)
        for _ in range(repeats):
            start = time.perf_counter()
            self.wl = self.build()
            _run_op(self.wl.warmup)
            self.setup_reps.append(time.perf_counter() - start)
        _settle()

    def measure(self, seconds: float) -> None:
        """Whole passes until the pass boundary nearest to ``seconds``, at
        the median pass time so far (at least one pass): a run measures about
        ``seconds`` whether a pass takes 7 s or 20 s.  Each operation's
        output is kept from the first pass and wherever it differs."""
        ops = self.wl.ops
        self.pass_times: list[float] = []
        self.op_times: list[list[float]] = [[] for _ in ops]
        self.first: list[dict] = []
        self.first_digest: list[str] = []
        self.outputs: list[list[tuple[int, dict]]] = [[] for _ in ops]
        self.same: list[list[int]] = [[] for _ in ops]
        start = time.perf_counter()
        while True:
            k = len(self.pass_times)
            busy = 0.0
            for i, op in enumerate(ops):
                elapsed, data = _run_op(op)
                busy += elapsed
                self.op_times[i].append(elapsed)
                d = self.wl_mod.digest(data)
                if k == 0:
                    self.first.append(data)
                    self.first_digest.append(d)
                    self.outputs[i].append((k, data))
                elif d == self.first_digest[i]:
                    self.same[i].append(k)
                else:
                    self.outputs[i].append((k, data))
                _settle()
            self.pass_times.append(busy)
            if time.perf_counter() - start + statistics.median(self.pass_times) / 2 > seconds:
                break

    def check(self) -> None:
        """Check every distinct output; an operation fails in a pass if it
        did not converge, raised, or failed a check."""
        start = time.perf_counter()
        ck = self.wl_mod.Checker()
        self.attempted = len(self.wl.ops) * len(self.pass_times)
        self.failed = 0
        self.failures: dict[str, list[str]] = {}
        self.correct = True
        for op, outs, same in zip(self.wl.ops, self.outputs, self.same):
            for k, data in outs:
                problems = _problems(op, data, ck)
                if problems:
                    # passes whose output equals the first pass's share its verdict
                    self.failed += 1 + len(same) if k == 0 else 1
                    self.failures.setdefault(op.name, []).extend(problems)
                    if _wrong(op, problems):
                        self.correct = False
        self.check_s = time.perf_counter() - start

    def report(self, extra: dict[str, tuple[float, str]]) -> dict:
        print(f"workload {self.name}  seed {self.seed}  passes {len(self.pass_times)}  "
              f"BLAS threads {BLAS_THREADS}")
        print("  pass times (s): " + " ".join(f"{t:.4f}" for t in self.pass_times))
        print("  set-up repeats (s): " + " ".join(f"{t:.4f}" for t in self.setup_reps))
        print(f"  checks (s): {self.check_s:.2f}")
        for name, (value, unit) in extra.items():
            print(f"  {name:38s} {value:14.6g} {unit}")
        for op, times in zip(self.wl.ops, self.op_times):
            print(f"  op {statistics.median(times):9.4f} s  {op.name}")
        print(f"  attempted {self.attempted}  failed {self.failed}")
        for op in self.wl.ops:
            problems = self.failures.get(op.name)
            if problems:
                tag = "FAILED" if _wrong(op, problems) else "expected failure"
                print(f"  {tag}: {op.name}: {'; '.join(dict.fromkeys(problems))}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        }


def _problems(op, data: dict, ck) -> list[str]:
    problems = []
    if "error" in data:
        return [f"raised {data['error']}"]
    if not data.get("converged", True):
        problems.append("did not converge")
    try:
        problems += op.check(data, ck)
    except Exception as exc:  # a check that cannot read the output rejects it
        traceback.print_exc(file=sys.stderr)
        problems.append(f"check raised {exc!r}")
    return problems


def _wrong(op, problems: list[str]) -> bool:
    """Whether the problems make the run incorrect: any problem of an
    ordinary operation, and any but the tolerated ones of the expected
    failure."""
    if op.expected_failure:
        return any(not p.startswith(TOLERATED) for p in problems)
    return bool(problems)


def measured_run(args) -> int:
    modcalc = _load_program()
    import_s = _import_s(SETUP_REPEATS)
    import spans

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        run = Run(args.workload, args.seed, workdir)
        run.setup(SETUP_REPEATS)
        tracer = None
        if args.trace:
            cost = spans.span_cost()
            tracer = spans.Tracer()
            tracer.install(modcalc)
        try:
            run.measure(args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.check()
    finally:
        _remove(workdir)
    if tracer is not None:
        out = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(out)
        metrics = spans.layer_metrics(tracer.spans, len(run.pass_times), run.pass_times, cost)
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(run.setup_reps), "s"),
            "wall_s": (statistics.median(run.pass_times), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    result = run.report(metrics)
    print(json.dumps(result))
    return 0


# -- smoke mode --------------------------------------------------------


def _perturbations(data: dict):
    """Perturbed copies of an output that a sound check must reject."""
    if "rho" in data:
        yield "density x0.99", {**data, "rho": {v: 0.99 * x for v, x in data["rho"].items()}}
    if "value" in data:
        yield "value x1.01", {**data, "value": 1.01 * data["value"]}
    if "rho" in data and "p" in data:
        # feasible but not optimal: only the reference re-solve can tell
        scaled = {k: {v: 1.01 * x for v, x in data[k].items()} for k in ("rho", "f") if k in data}
        yield "rho, f x1.01, value to match", {**data, **scaled, "value": 1.01 ** data["p"] * data["value"]}
    if "f" in data:
        yield "f x0.99", {**data, "f": {v: 0.99 * x for v, x in data["f"].items()}}
    if "dual" in data:
        yield "dual x1.5", {**data, "dual": {c: 1.5 * w for c, w in data["dual"].items()}}
    if "plan" in data:
        plan = dict(data["plan"])
        a, b = list(plan)[:2]
        plan[a], plan[b] = plan[a] + 0.01, plan[b] - 0.01
        yield "plan weight moved", {**data, "plan": plan}
    if "family" in data:
        yield "curve dropped", {**data, "family": data["family"][1:]}
    if "artifacts" in data:
        first, second = data["artifacts"]
        with open(second, "rb") as fh:
            flipped = bytearray(fh.read())
        flipped[len(flipped) // 2] ^= 0x01
        yield "artifact byte flipped", {**data, "artifacts": (first, _write(second + ".flipped", flipped))}
        with open(first, "rb") as fh:
            payload = json.load(fh)
        payload["result"] = _skewed(payload["result"])
        skewed = _write(first + ".skewed", (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())
        yield "floats x0.99, flags negated", {**data, "artifacts": (skewed, skewed)}


def _write(path: str, blob: bytes) -> str:
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


def _skewed(obj):
    if isinstance(obj, bool):
        return not obj
    if isinstance(obj, float):
        return 0.99 * obj
    if isinstance(obj, dict):
        return {k: _skewed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_skewed(v) for v in obj]
    return obj


def smoke() -> int:
    _load_program()
    import workloads

    ok = True
    summary = {}
    for name in workloads.WORKLOADS:
        workdir = os.path.join(ROOT, ".perfbench_work", f"smoke-{name}-{os.getpid()}")
        try:
            run = Run(name, 0, workdir, small=True)
            run.setup(1)
            run.measure(0.0)
            run.check()
            ck = workloads.Checker()
            missed = []
            tried = 0
            for op, data in zip(run.wl.ops, run.first):
                # every perturbation must be wrong even for an operation
                # marked as the expected failure
                as_expected = dataclasses.replace(op, expected_failure=True)
                for label, bad in _perturbations(data):
                    tried += 1
                    problems = _problems(op, bad, ck)
                    # a check that merely crashes on the perturbed output does not count
                    if not _wrong(as_expected, problems) or any(p.startswith("check raised") for p in problems):
                        missed.append(f"{op.name}: {label}")
                if "gap" in data:
                    # the known stall, otherwise right: a failure, tolerated
                    # only where the operation is the expected failure
                    tried += 1
                    stall = {**data, "converged": False, "gap": 2 * workloads.TOL}
                    problems = _problems(op, stall, ck)
                    if not _wrong(op, problems) or _wrong(as_expected, problems):
                        missed.append(f"{op.name}: stall accounting ({'; '.join(problems)})")
        finally:
            _remove(workdir)
        good = run.correct and run.failed == 0 and not missed
        ok = ok and good
        summary[name] = {"ops": len(run.wl.ops), "failed": run.failed, "perturbations": tried, "missed": missed}
        print(f"{name}: ops {len(run.wl.ops)} failed {run.failed} perturbations {tried} "
              f"missed {len(missed)} {'ok' if good else 'BAD'}")
        for name_, problems in run.failures.items():
            print(f"  {name_}: {'; '.join(problems)}")
        for m in missed:
            print(f"  not rejected: {m}")
    print(json.dumps({"smoke": ok, "workloads": summary}))
    return 0 if ok else 1


def cold_cli(repeats: int = 3) -> int:
    """Reference only: each cli-roundtrip command in fresh processes."""
    import subprocess

    _load_program()
    workdir = os.path.join(ROOT, ".perfbench_work", f"cold-{os.getpid()}")
    env = {**os.environ, "PYTHONPATH": SRC}
    try:
        wl = Run("cli-roundtrip", 0, workdir).build()
        for op in wl.ops:
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "modcalc.cli", *op.argv], env=env,
                                      capture_output=True, check=False)
                times.append(time.perf_counter() - start)
                if proc.returncode != 0:
                    print(f"{op.argv[0]} exited {proc.returncode}", file=sys.stderr)
            print(f"cold {op.argv[0]:15s} " + " ".join(f"{t:.3f}" for t in times) + " s")
    finally:
        _remove(workdir)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small workloads plus perturbation checks")
    parser.add_argument("--cold-cli", action="store_true", help="reference times of fresh CLI processes")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.cold_cli:
        return cold_cli()
    if not args.workload:
        parser.error("--workload is required")
    return measured_run(args)


if __name__ == "__main__":
    sys.exit(main())
