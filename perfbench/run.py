"""Benchmark of the svbackend CLI chain, stage by stage.

    python3 perfbench/run.py --workload sdsv-eval --seed 1 --seconds 30 --trace 0

Set-up runs ``synth`` three times and reports the median as ``setup_s``.
The run then repeats the chain plan-batches -> lid-train -> lid-classify ->
alpha -> score -> fuse -> eval, one ``python -m svbackend`` child at a
time, in whole rounds until ``--seconds`` are used, and reports per-stage
medians over the rounds, rescaled to a fixed machine speed (see
PROBE_NOMINAL_S).  With ``--trace 1`` rounds alternate
between plain children and children started through ``traced_cli.py``; the
traced rounds give the per-layer metrics, and the difference of the two
kinds of round gives the tracing overhead.

Every artifact of the first round is checked by ``checks.py``; the
artifacts of every later round, and of every repeated ``synth``, must hash
the same.  An operation is one stage invocation; it fails when the child
exits non-zero or its output fails its check.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a record of the run is written next to its outputs under
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import ARTIFACTS, STAGES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
TRACED_CLI = HERE / "traced_cli.py"

SETUP_REPEATS = 3
DEADLINE_S = 170.0  # every child is killed past this point of the run

#: The runner and every child it starts run on one CPU.  On a shared machine
#: the speed of each CPU drifts by tens of percent within seconds, with the
#: load of whatever shares its core; a fixed piece of work timed on the same
#: CPU just before and just after a child tracks that speed (correlation
#: 0.78 with the child's wall time, against 0.17 unpinned).  Stage times
#: follow the probe less than proportionally: regressing log stage time on
#: log probe time over 600 stage runs gave slopes of 0.3-0.87, median 0.6.
#: Every reported time is therefore the child's wall time multiplied by
#: (PROBE_NOMINAL_S / mean of the two probe times) ** PROBE_ELASTICITY:
#: seconds at the speed where the probe takes PROBE_NOMINAL_S.  The raw wall
#: and probe times are kept in the record.
PROBE_TEXT = ",".join(repr(math.sin(i) / 3.0) for i in range(2000))
PROBE_REPEAT = 16
PROBE_WARMUP_S = 0.01
PROBE_NOMINAL_S = 0.02
PROBE_ELASTICITY = 0.6

#: BLAS threads of every stage child.  With one thread per core, any other
#: load on the second core made lid-classify's small per-utterance solves up
#: to 15 times slower; with one thread the stage is faster and steadier.
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "plan_s": "s",
    "lid_s": "s",
    "alpha_s": "s",
    "score_s": "s",
    "backend_s": "s",
    "peak_rss_mb": "MB",
}
STAGE_GROUPS = {
    "plan_s": ("plan-batches",),
    "lid_s": ("lid-train", "lid-classify"),
    "alpha_s": ("alpha",),
    "score_s": ("score",),
    "backend_s": ("fuse", "eval"),
}

#: Per-layer metric -> (unit, source).  Sources: ("span", name, field) sums
#: that field of a span over the round's stages; ("count", name) sums a
#: counter; ("spans", names) sums the total time of several spans.
LAYER_METRICS = {
    "formats.read_embeddings_text.s": ("s", ("span", "formats.read_embeddings_text", "total_s")),
    "formats.read_embeddings_binary.s": ("s", ("span", "formats.read_embeddings_binary", "total_s")),
    "formats.embedding_rows_read": ("count", ("count", "formats.embedding_rows_read")),
    "formats.read_prototypes.s": ("s", ("span", "formats.read_prototypes", "total_s")),
    "formats.write_scores.s": ("s", ("span", "formats.write_scores", "total_s")),
    "formats.read_scores.s": ("s", ("span", "formats.read_scores", "total_s")),
    "formats.write_manifests.s": ("s", ("span", "formats.write_manifests", "total_s")),
    "prototypes.similarity_matrix.s": ("s", ("span", "prototypes.similarity_matrix", "total_s")),
    "prototypes.top_similar.s": ("s", ("span", "prototypes.top_similar", "total_s")),
    "prototypes.top_similar.calls": ("count", ("span", "prototypes.top_similar", "calls")),
    "planner.plan_pass.self_s": ("s", ("span", "planner.plan_pass", "self_s")),
    "planner.entries": ("count", ("count", "planner.entries")),
    "lid.classify.s": ("s", ("span", "lid.classify", "total_s")),
    "lid.classify.calls": ("count", ("span", "lid.classify", "calls")),
    "lid.train_gb.s": ("s", ("span", "lid.train_gb", "total_s")),
    "scoring.estimate_alpha.self_s": ("s", ("span", "scoring.estimate_alpha", "self_s")),
    "scoring.cohort_builds": ("count", ("count", "scoring.cohort_builds")),
    "scoring.cohort_from_embeddings.s": ("s", ("span", "scoring.cohort_from_embeddings", "total_s")),
    "scoring.snorm_stats.s": ("s", ("span", "scoring.snorm_stats", "total_s")),
    "scoring.snorm_stats.calls": ("count", ("span", "scoring.snorm_stats", "calls")),
    "scoring.score_trials.self_s": ("s", ("span", "scoring.score_trials", "self_s")),
    "scoring.trials": ("count", ("count", "scoring.trials")),
    "vecmath.cosine.calls": ("count", ("count", "vecmath.cosine.calls")),
    "calibration.fuse.s": ("s", ("span", "calibration.fuse", "total_s")),
    "metrics.eer.s": ("s", ("span", "metrics.eer", "total_s")),
    "metrics.min_dcf.s": ("s", ("span", "metrics.min_dcf", "total_s")),
}
#: Per-layer metrics of the synth stage, taken from the traced set-up.
SETUP_LAYER_METRICS = {
    "synth.generate_corpus.s": ("s", ("span", "synth.generate_corpus", "total_s")),
    "formats.write_embeddings.s": (
        "s",
        ("spans", ("formats.write_embeddings_text", "formats.write_embeddings_binary")),
    ),
}


def probe() -> float:
    """Seconds this process takes for a fixed piece of parsing work, after a
    short spin so that the CPU is busy when the timing starts."""
    spin_end = time.perf_counter() + PROBE_WARMUP_S
    while time.perf_counter() < spin_end:
        pass
    t0 = time.perf_counter()
    for _ in range(PROBE_REPEAT):
        values = [float(x) for x in PROBE_TEXT.split(",")]
        {f"k{i}": v for i, v in enumerate(values)}
    return time.perf_counter() - t0


class Child:
    """Result of one stage child: exit code, wall time, peak RSS, spans, and
    the probe times around it."""

    def __init__(self, stage, code, wall_s, rss_mb, probes, spans=None):
        self.stage = stage
        self.code = code
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.probes = probes
        self.spans = spans

    @property
    def speed(self) -> float:
        """Factor from wall seconds to seconds at the nominal probe speed."""
        return (PROBE_NOMINAL_S / (sum(self.probes) / len(self.probes))) ** PROBE_ELASTICITY

    @property
    def time_s(self) -> float:
        return self.wall_s * self.speed


class Runner:
    """Starts stage children one at a time and waits for each to end."""

    def __init__(self, run_dir: Path, env: dict, deadline: float):
        self.run_dir = run_dir
        self.env = env
        self.deadline = deadline
        self.n = 0

    def run(self, stage: str, argv: list[str], traced: bool) -> Child:
        self.n += 1
        log = self.run_dir / "logs" / f"{self.n:04d}-{stage}.log"
        spans_path = log.with_suffix(".spans.json")
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "svbackend", *argv]
        before = probe()
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.run_dir, env=self.env, stdout=out, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        after = probe()
        proc.returncode = os.waitstatus_to_exitcode(status)
        spans = None
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text())
        return Child(stage, proc.returncode, wall, usage.ru_maxrss / 1024.0, (before, after), spans)


def sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(base: Path) -> str:
    """sha256 over the relative paths and bytes of every source file."""
    h = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        h.update(str(path.relative_to(base)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def stage_env() -> dict:
    env = dict(os.environ)
    # absolute: a relative entry does not resolve from the run directory
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


NO_SPANS = {"spans": {}, "counts": {}, "top_level_s": 0.0}


def span_value(children: list[Child], source) -> float:
    """A per-layer value summed over the children of one round."""
    kind = source[0]
    total = 0.0
    for c in children:
        s = c.spans or NO_SPANS
        if kind == "count":
            total += s["counts"].get(source[1], 0)
        elif kind == "spans":
            total += c.speed * sum(s["spans"].get(n, {}).get("total_s", 0.0) for n in source[1])
        else:
            _, name, field = source
            value = s["spans"].get(name, {}).get(field, 0.0)
            total += value if field == "calls" else c.speed * value
    return total


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "svbackend" / "__init__.py").is_file():
        print(f"error: no svbackend package under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still kills and waits for its current child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # inherited by every child
    start = time.monotonic()
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    run_dir = RUNS / f"{wl.name}-seed{args.seed}{'-trace' if trace else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "logs").mkdir(parents=True)
    env = stage_env()
    runner = Runner(run_dir, env, start + DEADLINE_S)

    # -- set-up: synth, several times --------------------------------------
    setups = []
    for k in range(SETUP_REPEATS):
        out = run_dir / f"data{k}"
        child = runner.run("synth", wl.synth_args(out, args.seed), traced=trace)
        digests = {f: sha256(out / f) for f in wl.corpus_files}
        setups.append((child, digests))
    data = run_dir / "data0"
    for k in range(1, SETUP_REPEATS):
        shutil.rmtree(run_dir / f"data{k}", ignore_errors=True)

    # -- measurement: whole rounds of the chain ------------------------------
    rounds = []  # (traced, [Child], {stage: digests})
    kinds = (False, True) if trace else (False,)
    t_measure = time.monotonic()
    while True:
        t_unit = time.monotonic()
        for traced in kinds:
            work = run_dir / f"work{len(rounds)}"
            work.mkdir()
            children = [
                runner.run(stage, wl.stage_args(stage, data, work, args.seed), traced)
                for stage in STAGES
            ]
            digests = {s: {a: sha256(work / a) for a in ARTIFACTS[s]} for s in STAGES}
            rounds.append((traced, children, digests))
            if len(rounds) > 1:
                shutil.rmtree(work)
        now = time.monotonic()
        if now + (now - t_unit) > t_measure + args.seconds or now > start + DEADLINE_S - 30:
            break
    measure_s = time.monotonic() - t_measure

    # -- checks: first round in full, everything else by digest --------------
    work0 = run_dir / "work0"
    checked = run_checks(wl, data, work0)
    problems = checked["problems"]
    agreement = checked["lid_agreement"]
    for stage, child in [("synth", setups[0][0]), *zip(STAGES, rounds[0][1])]:
        if child.code != 0:
            problems[stage] = [f"{stage} exited {child.code}"]

    verified = {s: d for s, d in rounds[0][2].items() if not problems[s]}
    if not problems["synth"]:
        verified["synth"] = setups[0][1]
    # artifacts of an earlier run of the same source and arguments must match
    src_digest = tree_digest(SRC)
    config = {
        "blas_threads": BLAS_THREADS,  # lid.tsv bytes depend on it
        "synth": wl.synth_args(Path("DATA"), args.seed),
        "stages": {s: wl.stage_args(s, Path("DATA"), Path("WORK"), args.seed) for s in STAGES},
    }
    digest_file = RUNS / "digests" / f"{wl.name}-seed{args.seed}.json"
    previous = {}
    if digest_file.is_file():
        stored = json.loads(digest_file.read_text())
        if stored.get("src") == src_digest and stored.get("config") == config:
            previous = stored["artifacts"]
    for stage, old in previous.items():
        if stage in verified and verified[stage] != old:
            problems.setdefault(stage, []).append("artifact differs from an earlier run of this source")
            del verified[stage]

    attempted = failed = 0
    unverified = []  # (operation number, stage) of every failed operation
    ops = [(c, d) for c, d in setups] + [(c, d[c.stage]) for _, ch, d in rounds for c in ch]
    for n, (child, digests) in enumerate(ops):
        attempted += 1
        if child.code != 0 or verified.get(child.stage) != digests:
            failed += 1
            unverified.append((n, child.stage))
    correct = all(not p for p in problems.values())
    if correct:
        digest_file.parent.mkdir(parents=True, exist_ok=True)
        stored = {"src": src_digest, "config": config, "artifacts": verified}
        digest_file.write_text(json.dumps(stored, indent=1, sort_keys=True))

    # -- metrics ----------------------------------------------------------------
    plain = [r for r in rounds if not r[0]]
    plain_wall = median(sum(c.time_s for c in r[1]) for r in plain)
    metrics = {}
    if not trace:
        metrics["setup_s"] = median(c.time_s for c, _ in setups)
        metrics["wall_s"] = plain_wall
        for name, group in STAGE_GROUPS.items():
            metrics[name] = median(sum(c.time_s for c in r[1] if c.stage in group) for r in plain)
        metrics["peak_rss_mb"] = median(max(c.rss_mb for c in r[1]) for r in plain)
        units = END_TO_END
    else:
        traced_rounds = [r for r in rounds if r[0]]
        per_round = []
        for children in [r[1] for r in traced_rounds] + [[c] for c, _ in setups]:
            table = SETUP_LAYER_METRICS if children[0].stage == "synth" else LAYER_METRICS
            values = {name: span_value(children, src) for name, (_, src) in table.items()}
            for c in children:
                top_level = (c.spans or NO_SPANS)["top_level_s"]
                values[f"cli.{c.stage}.self_s"] = (c.wall_s - top_level) * c.speed
                values[f"cli.{c.stage}.peak_rss_mb"] = c.rss_mb
            per_round.append(values)
        for name in set().union(*per_round):
            metrics[name] = median(v[name] for v in per_round if name in v)
        traced_wall = median(sum(c.time_s for c in r[1]) for r in traced_rounds)
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        units = per_layer_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())}

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": sys.version,
        "python_executable": sys.executable,
        "stage_env": {k: env.get(k) for k in ("PYTHONPATH", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")},
        **stage_runtime(env),
        "src_digest": src_digest,
        "args": config,
        "inputs_sha256": setups[0][1],
        "artifacts_sha256": rounds[0][2],
        "problems": {k: v for k, v in problems.items() if v},
        "failed_operations": unverified,
        "lid_agreement": agreement,
        "rounds": len(rounds),
        "measure_s": measure_s,
        "probe_nominal_s": PROBE_NOMINAL_S,
        "probe_elasticity": PROBE_ELASTICITY,
        "setup_wall_s": [c.wall_s for c, _ in setups],
        "setup_probes_s": [c.probes for c, _ in setups],
        "round_wall_s": [{"traced": t, **{c.stage: c.wall_s for c in ch}} for t, ch, _ in rounds],
        "round_probes_s": [{c.stage: c.probes for c in ch} for _, ch, _ in rounds],
        "round_peak_rss_mb": [{c.stage: c.rss_mb for c in ch} for _, ch, _ in rounds],
        "spans": [{c.stage: c.spans for c in ch} for t, ch, _ in rounds if t],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    for path in run_dir.iterdir():
        if path.is_dir() and path.name != "logs":
            shutil.rmtree(path)
    for name, msgs in problems.items():
        for msg in msgs:
            print(f"check failed: {name}: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_checks(wl, data: Path, work: Path) -> dict:
    """checks.py in a child of its own, so this process stays small: a child
    inherits its parent's resident size into its own peak RSS."""
    out = subprocess.run(
        [sys.executable, str(HERE / "checks.py"), "--workload", wl.name,
         "--data", str(data), "--work", str(work)],
        capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        msg = f"checker exited {out.returncode}: {out.stderr.strip()[-500:]}"
        return {"problems": {s: [msg] for s in ("synth", *STAGES)}, "lid_agreement": None}
    return json.loads(out.stdout.strip().splitlines()[-1])


def stage_runtime(env: dict) -> dict:
    """The svbackend file and numpy version a stage child resolves."""
    code = "import json, numpy, svbackend; print(json.dumps([svbackend.__file__, numpy.__version__]))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=RUNS, capture_output=True, text=True, timeout=60
    )
    if out.returncode != 0:
        return {"error": out.stderr.strip()}
    path, numpy_version = json.loads(out.stdout)
    return {"svbackend_file": str(Path(path).resolve()), "numpy": numpy_version}


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _) in {**LAYER_METRICS, **SETUP_LAYER_METRICS}.items()}
    for stage in ("synth", *STAGES):
        units[f"cli.{stage}.self_s"] = "s"
        units[f"cli.{stage}.peak_rss_mb"] = "MB"
    units["trace.overhead_s"] = "s"
    return units


if __name__ == "__main__":
    sys.exit(main())
