"""Benchmark of coevobn: run one workload, check its outputs, print metrics.

    python3 benchmarks/bench.py --workload paper-n10 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/bench.py --workload all --seed 1

Run from anywhere; the library is imported from ``src/`` next to this
directory and from nowhere else. The loop is closed with a single caller:
each repetition of the workload body starts after the previous one
returned, with no threads or pools, and repetitions continue until
``--seconds`` would be exceeded (at least three). ``--trace 0`` prints the
end-to-end metrics (medians over repetitions); ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics.
``--workload all`` runs every workload, each in a fresh process, and prints
a table.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Lines before it start with ``#``: the environment, then the metrics in a
readable form. Per-repetition values and the environment also go to
``.bench_out/results/``, and the spans of the last traced repetition to
``.bench_out/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7      # fresh interpreters timed for setup_s; the median is reported
MIN_REPS = 3          # untraced repetitions per run, whatever --seconds says
MIN_TRACE_PAIRS = 2   # (untraced, traced) repetition pairs per traced run
RUN_LIMIT_S = 150.0   # no repetition starts that would end a run later than this

# name -> (unit, better), in output order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "evolve_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "k2_s": ("s", "lower"),
    "ccga_neg_log_score": ("nats", "lower"),
    "k2_neg_log_score": ("nats", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("fraction", "higher"),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="paper-n10, wide-n30, compare-n4 or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "coevobn" / "__init__.py").is_file():
        print(f"error: no coevobn sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # before numpy is imported; inherited by probes
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return _probe_setup(args.workload, args.seed)

    import coevobn
    import workloads
    if not Path(coevobn.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported coevobn from {coevobn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(list(workloads.WORKLOADS), args)
    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    report(run(spec, args.seed, args.seconds, bool(args.trace)))
    return 0


def _probe_setup(name: str, seed: int) -> int:
    """Child process: time importing the library and generating the inputs."""
    t0 = time.perf_counter()
    import workloads
    workloads.generate(workloads.WORKLOADS[name], seed)
    print(repr(time.perf_counter() - t0))
    return 0


def _setup_seconds(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


class Loop:
    """Repeats one workload body in a closed loop and checks every output.

    A repetition fails if it raises or a check rejects its outputs; later
    repetitions must reproduce the first good one exactly.
    """

    def __init__(self, spec, inputs, workdir: Path, deadline: float):
        self.spec = spec
        self.inputs = inputs
        self.workdir = workdir
        self.deadline = deadline
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def measure(self, budget: float, min_steps: int, tracers=(None,),
                between=lambda: None) -> list:
        """Steps until `budget` seconds are spent; a step is one repetition
        per entry of `tracers` (None: untraced). `between` runs before every
        step, outside the budget. Returns, for every step whose repetitions
        all passed, a (rep, layer metrics or None) pair per repetition."""
        good, took = [], []
        while True:
            if took:
                expected = statistics.median(took)
                if len(took) >= min_steps and sum(took) + expected > budget:
                    break
                if time.perf_counter() + expected > self.deadline:
                    break
            between()
            start = time.perf_counter()
            outcomes = [self._once(tracer) for tracer in tracers]
            took.append(time.perf_counter() - start)
            if None not in outcomes:
                good.append(outcomes)
        return good

    def _once(self, tracer):
        import workloads
        index = self.attempted
        self.attempted += 1
        layers = None
        try:
            if tracer is None:
                rep = workloads.run_once(self.spec, self.inputs, self.workdir, index)
            else:
                tracer.reset()
                with tracer.installed():
                    rep = workloads.run_once(self.spec, self.inputs, self.workdir,
                                             index)
                layers = tracer.layer_metrics()
            problems = workloads.check(self.spec, self.inputs, rep, self.first,
                                       layers)
        except Exception:  # a failed repetition is counted, and the run goes on
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for problem in problems:
                print(f"# repetition {index} failed: {problem}", file=sys.stderr)
            return None
        if self.first is None:
            self.first = rep
        return rep, layers


def _median(values, pick=statistics.median) -> float:
    values = list(values)
    return pick(values) if values else 0.0


def run(spec, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result line plus what went into it."""
    import tracing
    import workloads

    started = time.perf_counter()
    setup, probe_failures = [], []

    def probe_setup():
        """One set-up probe, while fewer than SETUP_PROBES were made. The
        probes go between repetitions, so that their median spans the
        host's slow and fast phases within the run."""
        if len(setup) + len(probe_failures) >= SETUP_PROBES:
            return
        try:
            setup.append(_setup_seconds(spec.name, seed))
        except (subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
            probe_failures.append(f"setup probe failed: {exc!r}")

    inputs = workloads.generate(spec, seed)
    workdir = OUT / "work" / f"{spec.name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    loop = Loop(spec, inputs, workdir, started + RUN_LIMIT_S)
    tracer = tracing.Tracer()
    try:
        if trace:
            with tracer.installed():
                workloads.generate(spec, seed)
            generation_layers = tracer.layer_metrics()
            # Traced and untraced repetitions alternate, so that the drift
            # of the host's speed over minutes cancels in their ratio.
            steps = loop.measure(seconds, MIN_TRACE_PAIRS, (None, tracer))
        else:
            steps = loop.measure(seconds, MIN_REPS, between=probe_setup)
            for _ in range(SETUP_PROBES):
                probe_setup()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = [step[0][0] for step in steps]
    traced = [step[1] for step in steps] if trace else []
    attempted = len(setup) + len(probe_failures) + loop.attempted
    failed = len(probe_failures) + loop.failed
    if trace:
        layer_reps = [layers for _, layers in traced]
        # median_low keeps counts whole and always reports an observed value
        values = {name: _median((layers[name] for layers in layer_reps),
                                statistics.median_low)
                  for name in tracing.LAYER_METRICS if name != "trace.overhead_frac"}
        for name in ("bayesnet.random_network_s", "bayesnet.ancestral_sample_s"):
            values[name] += generation_layers[name]
        values["trace.overhead_frac"] = _median(
            traced_rep.wall_s / rep.wall_s - 1
            for rep, (traced_rep, _) in zip(reps, traced))
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        values = {
            "setup_s": _median(setup),
            "wall_s": _median(rep.wall_s for rep in reps),
            "evolve_s": _median(rep.evolve_s for rep in reps),
            "evals_per_s": _median(rep.evaluations / rep.evolve_s for rep in reps),
            "k2_s": _median(rep.k2_s for rep in reps),
            "ccga_neg_log_score": -_median(rep.ccga_score for rep in reps),
            "k2_neg_log_score": -_median(rep.k2_score for rep in reps),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    details = {
        "environment": environment(spec, seed, seconds, trace),
        "setup_s": setup,
        "repetitions": [_timings(rep) for rep in reps],
        "traced_repetitions": [_timings(rep) | {"layers": layers}
                               for rep, layers in traced],
        "unobserved_hooks": tracer.unobserved() if trace else [],
        "problems": probe_failures + loop.problems,
    }
    _write_outputs(spec.name, seed, trace, result, details,
                   tracer.spans() if traced else None)
    return {"result": result, "details": details}


def _timings(rep) -> dict:
    return {k: v for k, v in vars(rep).items() if k != "outputs"}


def environment(spec, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": asdict(spec),
    }


def _git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (subprocess.SubprocessError, OSError):
        return "unknown"


def _write_outputs(name, seed, trace, result, details, spans) -> None:
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(
        json.dumps({"result": result} | details, indent=1) + "\n")
    if spans is not None:
        import numpy
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        numpy.savez_compressed(OUT / "spans" / f"{stem}.npz", **spans)


def report(outcome: dict) -> None:
    result, details = outcome["result"], outcome["details"]
    env = details["environment"]
    print("# env " + json.dumps(env))
    print(f"# {env['workload']} seed {env['seed']}: {result['attempted']} "
          f"operations ({len(details['setup_s'])} setup probes, "
          f"{len(details['repetitions'])} timed and "
          f"{len(details['traced_repetitions'])} traced repetitions), "
          f"{result['failed']} failed")
    if details["unobserved_hooks"]:
        print("# hooks that saw no calls: " + ", ".join(details["unobserved_hooks"]))
    for name, metric in result["metrics"].items():
        print(f"# {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)


def _run_all(names: list[str], args) -> int:
    """Each workload in a fresh process; then one table of every metric."""
    results = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=200)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    metrics = list(results[names[0]]["metrics"])
    print(f"{'metric':28s}" + "".join(f"{name:>18s}" for name in names) + "  unit")
    for metric in metrics:
        cells = "".join(f"{results[n]['metrics'][metric]['value']:>18.6g}"
                        for n in names)
        print(f"{metric:28s}{cells}  {results[names[0]]['metrics'][metric]['unit']}")
    print("failed/attempted".ljust(28) + "".join(
        f"{results[n]['failed']}/{results[n]['attempted']}".rjust(18) for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
