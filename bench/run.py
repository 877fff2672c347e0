"""bolomux benchmark: host time to result for batch CLI workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (src/bolomux must be there).  Every
repetition is a fresh child process (bench/child.py) that imports bolomux,
loads the generated workload config, then calls bolomux.cli.main once per
command.  Repetitions start until S seconds have passed (with --trace 1,
until at least one of each kind has run).  Every output is checked, and all repetitions of a
run, traced or not, must write the same bytes.

Times are host-speed normalized.  The host this runs on is shared, and its
speed drifts by +-20% over tens of seconds, for every process alike.  Each
child therefore times a fixed pure-Python kernel in its own thread while
it works (see child.py), and every time t is reported as
t * REF_NOMINAL_S / median(kernel samples of that child): the time the
same work takes on a host where the kernel takes REF_NOMINAL_S.  The raw
times are in the result file.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  wall_s       median normalized time of the command sequence in the child
  setup_s      median normalized time from spawn until bolomux is imported
               and the config is loaded and schema-validated (set-up-only
               children are added until there are MIN_SETUP_SAMPLES)
  peak_rss_mb  median ru_maxrss of the repetition children
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of BENCHMARK.json, from the traced ones (tracer.py).

Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A result file with every
sample and the run metadata is written to .bench_out/.  Exit code 0 when a
result was printed, 2 when the checkout cannot run the benchmark at all.
"""
import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150.0
MIN_SETUP_SAMPLES = 9
# the reference host speed: child.PROBE_LOOP takes 2.0 ms there (a 2-vCPU
# 2.0 GHz Xeon VM, shared, takes 1.4-2.1 ms)
REF_NOMINAL_S = 2.0e-3

sys.path.insert(0, HERE)
import tracer  # noqa: E402
from workloads import WORKLOADS, commands, config_doc  # noqa: E402


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _median(values):
    return statistics.median(values) if values else 0.0


class Unrunnable(Exception):
    """The checkout cannot run the benchmark; nothing is reported."""


class Child:
    """One finished child process: its result document and resource use."""

    def __init__(self, spec, run_dir, tag):
        spec = dict(spec, result=os.path.join(run_dir, f"{tag}.result.json"))
        spec_path = os.path.join(run_dir, f"{tag}.spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        spawned = _now()
        proc = subprocess.Popen([sys.executable, CHILD, spec_path],
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.traced = bool(spec.get("trace"))
        self.elapsed = _now() - spawned
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.doc = None
        if proc.returncode == 0 and os.path.isfile(spec["result"]):
            with open(spec["result"], "r", encoding="utf-8") as fh:
                self.doc = json.load(fh)
        self.setup_raw_s = self.setup_s = None
        if self.doc is not None:
            self.setup_raw_s = self.doc["ready_monotonic"] - spawned
            self.setup_s = self.setup_raw_s * REF_NOMINAL_S / _median(
                self.doc["setup_probe_s"])

    def wall_s(self):
        """Normalized time of the command sequence."""
        return self.doc["wall_s"] * REF_NOMINAL_S / _median(self.doc["probe_s"])


def _git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _src_lines():
    total = 0
    for root, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "bolomux", "cli.py")):
        raise Unrunnable(f"no bolomux source under {SRC}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        raise Unrunnable(f"cannot read BENCHMARK.json: {exc}") from exc
    run_dir = os.path.join(WORK, f"{workload}.seed{seed}.trace{trace}.{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return _measure(bench, workload, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(bench, workload, seed, seconds, trace, run_dir):
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config_doc(workload, seed), fh)
    base = {"src": SRC, "workload": workload, "config": config_path}

    # warm-up: byte-compiles the sources and fills the file cache
    warm = Child(dict(base, setup_only=True), run_dir, "warmup")
    if warm.doc is None:
        raise Unrunnable("bolomux does not import or the workload config does not load")

    reps = []
    start = _now()
    while True:
        k = len(reps)
        rep_dir = os.path.join(run_dir, f"rep{k}")
        spec = dict(base, trace=bool(trace) and k % 2 == 1, out=rep_dir,
                    commands=commands(workload, seed, config_path, rep_dir))
        reps.append(Child(spec, run_dir, f"rep{k}"))
        shutil.rmtree(rep_dir, ignore_errors=True)
        kinds = {c.traced for c in reps}
        if _now() - start >= seconds and len(kinds) == (2 if trace else 1):
            break
    setup_children = [c for c in reps if not c.traced]
    for k in range(0 if trace else MIN_SETUP_SAMPLES - len(setup_children)):
        setup_children.append(Child(dict(base, setup_only=True), run_dir, f"setup{k}"))

    attempted, failed, problems = _score(reps, len(commands(workload, seed, "", "")))
    plain = [c for c in reps if not c.traced and c.doc]
    traced = [c for c in reps if c.traced and c.doc]
    values = {
        "wall_s": _median([c.wall_s() for c in plain]),
        "setup_s": _median([c.setup_s for c in setup_children if c.doc]),
        "peak_rss_mb": _median([c.rss_mb for c in plain]),
    }
    if trace:
        values.update(_layer_values(traced, plain, values["wall_s"]))
        values["error_rate"] = failed / attempted
    metrics = {}
    for m in bench["per_layer"] if trace else bench["end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    meta = _metadata(warm, workload, seed, seconds, trace, reps, setup_children)
    info = reps[0].doc["info"] if reps[0].doc else {}
    _print_report(meta, metrics, failed, attempted, problems, info, traced)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    path = os.path.join(WORK, f"result.{workload}.seed{seed}.trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, metadata=meta, info=info, problems=problems), fh, indent=1)
    return result


def _score(reps, n_ops):
    """(attempted, failed, problems) over every operation of every repetition.

    Besides its own check, the last operation of a repetition fails when
    the repetition's outputs differ from the first repetition's: one seed
    must give the same bytes every time, traced or not.
    """
    attempted = failed = 0
    problems = []
    reference = None
    for k, c in enumerate(reps):
        attempted += n_ops
        if c.doc is None:
            failed += n_ops
            problems.append(f"rep{k}: child exited without a result")
            continue
        ops = c.doc["ops"]
        reference = reference or c.doc["digest"]
        if c.doc["digest"] != reference:
            ops[-1] = dict(ops[-1], ok=False,
                           why="outputs differ from the first repetition of this seed")
        for op in ops:
            if not op["ok"]:
                failed += 1
                problems.append(f"rep{k} {op['command']}: {op['why']}")
    return attempted, failed, problems


def _layer_values(traced, plain, wall):
    """Per-layer metrics: medians over the traced repetitions."""
    values = tracer.layer_metrics(tracer.Tracer())   # all zero until measured
    for workload in WORKLOADS:
        for argv in commands(workload, 0, "", ""):
            values[f"cli.{argv[0]}_s"] = 0.0
    values["trace.overhead_s"] = 0.0
    if traced:
        docs = [c.doc["layers"] for c in traced]
        for name in docs[0]:
            values[name] = _median([d[name] for d in docs])
        per_command = {}
        for c in traced:
            sums = {}
            for op in c.doc["ops"]:
                sums[op["command"]] = sums.get(op["command"], 0.0) + op["s"]
            for cmd, s in sums.items():
                per_command.setdefault(cmd, []).append(s)
        for cmd, samples in per_command.items():
            values[f"cli.{cmd}_s"] = _median(samples)
        values["trace.overhead_s"] = _median([c.wall_s() for c in traced]) - wall
    values["process.cpu_s"] = _median([c.cpu_s for c in plain])
    values["host.raw_wall_s"] = _median([c.doc["wall_s"] for c in plain])
    values["host.ref_s"] = _median([s for c in plain for s in c.doc["probe_s"]])
    return values


def _metadata(warm, workload, seed, seconds, trace, reps, setup_children):
    done = [c for c in reps if c.doc]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": warm.doc["numpy"],
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
        "ref_nominal_s": REF_NOMINAL_S,
        "samples": {
            "traced": [c.traced for c in done],
            "wall_s": [c.wall_s() for c in done],
            "raw_wall_s": [c.doc["wall_s"] for c in done],
            "host_ref_s": [_median(c.doc["probe_s"]) for c in done],
            "peak_rss_mb": [c.rss_mb for c in done],
            "cpu_s": [c.cpu_s for c in done],
            "setup_s": [c.setup_s for c in setup_children if c.doc],
            "raw_setup_s": [c.setup_raw_s for c in setup_children if c.doc],
        },
    }


def _print_report(meta, metrics, failed, attempted, problems, info, traced):
    samples = meta["samples"]
    raw = [w for w, t in zip(samples["raw_wall_s"], samples["traced"]) if not t]
    print(f"bolomux benchmark  workload={meta['workload']} seed={meta['seed']} "
          f"trace={meta['trace']} reps={len(samples['wall_s'])} nproc={meta['nproc']} "
          f"python={meta['python']} numpy={meta['numpy']} "
          f"src_lines={meta['src_lines']} commit={meta['git_commit']}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {failed} of {attempted} operations failed; untraced raw wall "
          f"{_median(raw):.4g} s; host.ref_s "
          f"{_median(samples['host_ref_s']):.4g} s (nominal {REF_NOMINAL_S:.4g} s)")
    for key, value in info.items():
        print(f"  output {key} = {value!r}")
    if traced:
        self_s = {}
        for c in traced:
            for bucket, s in c.doc["self_s"].items():
                self_s.setdefault(bucket, []).append(s)
        raw_wall = _median([c.doc["wall_s"] for c in traced])
        print("  self time per bucket, traced median (share of traced raw wall):")
        for s, bucket in sorted(((_median(v), b) for b, v in self_s.items()), reverse=True):
            print(f"    {bucket:30s} {s:10.4f} s {100.0 * s / raw_wall:6.1f} %")
        for hook in traced[0].doc["missing_hooks"]:
            print(f"  warning: hook target {hook} not found; its metrics read 0")
    for problem in problems:
        print(f"  FAILED {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # on SIGTERM, unwind: the running child is killed and reaped, and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except Unrunnable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
