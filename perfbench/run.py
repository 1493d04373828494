"""heatflux benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload twin-short --seed 7 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``. Each workload runs `simulate` and then its timed command through
``heatflux.cli.main``, one command at a time, with BLAS pinned to one
thread. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of one traced run of the timed command. The last line of
standard output is the result as JSON; the line before it records the
environment, the seeds, the time samples and the quality figures. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# The machine's speed drifts over tens of seconds, so the short samples are
# taken on both sides of the timed command rather than in one burst: half of
# them before it and half after.
SETUP_REPEATS = 10  # fresh interpreters per run; setup_s is their median
SIMULATE_REPEATS = 4  # simulate runs per iteration, compared byte for byte

E2E_UNITS = {
    "wall_ref_steps": "ref_steps",
    "setup_s": "s",
    "steps_per_ref_step": "ratio",
    "peak_rss_mb": "MiB",
}

# Set-up as a user pays it: a fresh interpreter imports the package, reads
# the config and builds the builtin material. CLOCK_MONOTONIC is shared by
# all processes, so the parent can subtract its own reading taken at spawn.
SETUP_PROGRAM = """
import sys, time
sys.path.insert(0, sys.argv[1])
from heatflux import cli, config
config.load_configured_material(config.load_config(sys.argv[2]))
print(repr(time.monotonic()))
"""


def _digest(out: Path, names=None) -> str:
    """Hash of the files under `out` (only those called `names`, if given)."""
    h = hashlib.sha256()
    files = out.rglob("*") if names is None else (out / n for n in names)
    for path in sorted(p for p in files if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _sizes(out: Path) -> dict:
    return {
        p: (p.stat().st_size, p.stat().st_mtime_ns) for p in out.rglob("*") if p.is_file()
    }


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "heatflux").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def _setup_sample(cfg_path: Path) -> float:
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROGRAM, str(SRC), str(cfg_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - t0


class Runner:
    """Runs one workload's commands and keeps the tally of failures."""

    def __init__(self, workload, seed: int, work: Path):
        from heatflux import cli, config

        self.cli = cli
        self.workload = workload
        self.cfg_path = work / "experiment.cfg"
        self.cfg_path.write_text(workload.config_text(seed) + f"output.dir = {work / 'out'}\n")
        self.cfg = config.load_config(self.cfg_path)
        self.work = work
        self.attempted = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []

    def fail(self, command_id: int | None, message: str) -> None:
        if command_id is not None:
            self.failed.add(command_id)
        self.problems.append(message)

    def command(self, name: str, out: Path) -> tuple[float, int]:
        """Run one subcommand: (seconds, command id)."""
        cid = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rc = self.cli.main([name, "--config", str(self.cfg_path), "--out", str(out)])
        except Exception:  # the harness must finish and report the failure
            traceback.print_exc()
            rc = None
        seconds = time.perf_counter() - t0
        if rc != 0:
            self.fail(cid, f"{name} exited with {rc}")
        return seconds, cid

    def iteration(self, out: Path, tracer, probe=None) -> dict:
        """`simulate`, the timed command, and `simulate` again.

        The timed command runs inside a `bench.<command>` span; the spans
        opened inside it and the tracer counters cleared before it belong to
        that command alone. The later `simulate` runs rewrite the same
        measurement files, which must come out byte-identical.

        With a reference `probe`, one probe runs just before and one just
        after the timed command; `probe_s` holds those and the probes the
        march wrappers ran inside it, whose time is taken out of `wall_s`.
        """
        sim_seconds, sim_digests = [], set()

        def simulate(repeats):
            for _ in range(repeats):
                seconds, cid = self.command("simulate", out)
                sim_seconds.append(seconds)
                sim_digests.add(_digest(out, ("clean.csv", "noisy.csv", "meta.json")))
                if len(sim_digests) > 1:
                    self.fail(cid, "simulate outputs differ between repeats")

        simulate(SIMULATE_REPEATS // 2)
        before = _sizes(out)
        tracer.counters.clear()
        first = len(tracer.start)
        if probe is not None:
            probe.run()
        first_probe = len(probe.samples) if probe is not None else 0
        with tracer.span(f"bench.{self.workload.command}"):
            wall, cid = self.command(self.workload.command, out)
        probes, probed = [], 0.0
        if probe is not None:
            probed = sum(probe.samples[first_probe:])
            probe.run()
            probes = list(probe.samples[first_probe - 1:])
        after = _sizes(out)
        counters = dict(tracer.counters)
        span_range = (first, len(tracer.start))
        simulate(SIMULATE_REPEATS - SIMULATE_REPEATS // 2)
        return {
            "out": out,
            "cid": cid,
            "simulate_s": sim_seconds,
            "wall_s": wall - probed,
            "probe_s": probes,
            "spans": span_range,
            "counters": counters,
            "bytes_written": sum(s for p, (s, m) in after.items() if before.get(p) != (s, m)),
            "digest": _digest(out),
        }

    def check(self, it: dict, heatflux) -> dict:
        from perfbench.workloads import check_outputs

        if it["cid"] in self.failed:
            return {}
        try:
            quality, failures = check_outputs(self.workload, self.cfg, it["out"], heatflux)
        except (OSError, KeyError, ValueError) as exc:
            quality, failures = {}, [f"unreadable output: {exc!r}"]
        for message in failures:
            self.fail(it["cid"], message)
        return quality

    def check_solves(self, it: dict, spans) -> None:
        from perfbench.workloads import expected_solves

        expected = expected_solves(self.workload, self.cfg)
        got = (spans.count("forward.solve_ibvp"), spans.count("adjoint.solve_adjoint"))
        if expected is not None and got != expected:
            self.fail(it["cid"], f"(forward, adjoint) solves {got}, expected {expected}")


def _check_digests(runner: Runner, iters: list, key: str) -> None:
    """All outputs of one seed must be byte-identical: across the iterations
    of this run and against earlier runs of this seed on the same sources."""
    first = iters[0]["digest"]
    for it in iters[1:]:
        if it["digest"] != first:
            runner.fail(it["cid"], "outputs differ between two runs of one seed")
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if known.setdefault(key, first) != first:
        runner.fail(iters[0]["cid"], "outputs differ from an earlier run of this seed")
    tmp = store.with_name(f"{store.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, store)


def _end_to_end(runner: Runner, modules, namespaces, seconds: float):
    """Untraced iterations for `seconds`, with set-up samples before and
    after them, and the end-to-end values.

    Only the two march entry points are wrapped, to count time steps and to
    run the reference probe between marches. A command's time is reported
    in steps of the reference march, each the mean probe time over the
    command divided by the probe's step count.
    """
    from perfbench.reference import ReferenceProbe
    from perfbench.tracer import MARCHES, Instrumentation, Tracer

    setups = [_setup_sample(runner.cfg_path) for _ in range(SETUP_REPEATS // 2)]
    tracer = Tracer()
    probe = ReferenceProbe()
    iters = []
    with Instrumentation(tracer, modules, namespaces, only=MARCHES, after=probe.maybe_run):
        window = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            iters.append(runner.iteration(runner.work / f"run{len(iters)}", tracer, probe))
            now = time.perf_counter()
            if now - window + (now - t0) > seconds:
                break
    setups += [_setup_sample(runner.cfg_path) for _ in range(SETUP_REPEATS - len(setups))]

    spans = tracer.spans()
    wall_ref, steps_rel = [], []
    for it in iters:
        runner.check_solves(it, spans.slice(*it["spans"]))
        ref_step = statistics.fmean(it["probe_s"]) / probe.steps
        steps = it["counters"].get("forward.steps", 0) + it["counters"].get("adjoint.steps", 0)
        wall_ref.append(it["wall_s"] / ref_step)
        steps_rel.append(steps / wall_ref[-1])
    values = {
        "wall_ref_steps": statistics.median(wall_ref),
        "setup_s": statistics.median(setups),
        "steps_per_ref_step": statistics.median(steps_rel),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "wall_ref_steps": wall_ref,
        "wall_s": [it["wall_s"] for it in iters],
        "probe_ms": [1e3 * statistics.fmean(it["probe_s"]) for it in iters],
        "probes": [len(it["probe_s"]) for it in iters],
        "setup_s": setups,
        "simulate_s": [s for it in iters for s in it["simulate_s"]],
    }
    return iters, values, samples


def _per_layer(runner: Runner, modules, namespaces):
    """One untraced and one traced iteration; per-layer values of the traced
    timed command, and the tracing overhead between the two."""
    from perfbench import layers
    from perfbench.tracer import MARCHES, Instrumentation, Tracer

    base = Tracer()
    with Instrumentation(base, modules, namespaces, only=MARCHES):
        plain = runner.iteration(runner.work / "untraced", base)
    tracer = Tracer()
    with Instrumentation(tracer, modules, namespaces):
        traced = runner.iteration(runner.work / "traced", tracer)
    runner.check_solves(plain, base.spans().slice(*plain["spans"]))
    spans = tracer.spans()
    mine = spans.slice(*traced["spans"])
    runner.check_solves(traced, mine)

    k_star = 0
    if runner.workload.command == "invert" and traced["cid"] not in runner.failed:
        k_star = json.loads((traced["out"] / "beta.json").read_text())["k_star"]
    values = layers.layer_metrics(mine, traced["counters"], k_star)
    values["cli.bytes_written"] = traced["bytes_written"]
    values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    # Span 0 of the slice is the harness's own span around the command.
    covered = mine.duration[mine.parent == 0].sum()
    values["trace.outside_frac"] = float(1.0 - covered / mine.duration[0])
    if values["trace.outside_frac"] > 0.05:
        runner.fail(None, "more than 5% of the traced command is outside every layer span")
    spans.save(OUT / f"spans-{runner.workload.name}.npz")
    return [plain, traced], values


def main(argv=None) -> int:
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    from perfbench.workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heatflux" / "cli.py").is_file():
        print(f"perfbench: no heatflux sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import heatflux.adjoint
    import heatflux.cli
    import heatflux.config
    import heatflux.forward
    import heatflux.material
    import heatflux.observation
    import heatflux.optimizer
    import heatflux.pchip
    from perfbench import layers
    from perfbench.tracer import LAYERS

    modules = {name: getattr(heatflux, name) for name in LAYERS}
    namespaces = [heatflux, *modules.values()]
    workload = WORKLOADS[args.workload]
    env = environment()

    work = OUT / "work" / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, args.seed, work)
        bindings = {(ns, a): obj for ns in namespaces for a, obj in vars(ns).items()}
        if args.trace == 0:
            iters, values, samples = _end_to_end(runner, modules, namespaces, args.seconds)
            units = E2E_UNITS
        else:
            iters, values = _per_layer(runner, modules, namespaces)
            samples = {"wall_s": [it["wall_s"] for it in iters]}
            units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        if any(getattr(ns, a) is not obj for (ns, a), obj in bindings.items()):
            runner.fail(None, "package attributes not restored after tracing")
        quality = [runner.check(it, heatflux) for it in iters]
        _check_digests(runner, iters, f"{workload.name}:{args.seed}:{env['source_digest']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": len(iters),
        "samples": samples,
        "quality": quality,
        "problems": runner.problems,
        "environment": env,
    }
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"record": record, "result": result}, sort_keys=True) + "\n")
    print(json.dumps({"perfbench": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
