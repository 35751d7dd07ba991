"""Self-test of checks.py: clean artifacts pass, corrupted ones are rejected.

    python3 perfbench/selftest.py

Runs the benchmarked CLI chain once on a small corpus (binary training
embeddings, two balanced passes), confirms that every check accepts the
result, then applies one corruption at a time to a copy of the artifacts
and confirms that the check of the corrupted artifact reports a problem.
Exits 0 when every corruption is caught, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from workloads import STAGES, Workload, _synth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_runs" / "selftest"

SMALL = Workload(
    name="selftest",
    why="small corpus for the self-test",
    synth={**_synth(30, 20, 48, 10, (3, 5), targets=30, nontargets=250, enroll_utts=2), "dim": 64},
    plan={"mode": "balanced", "batch_size": 32, "anchors": 4, "imposters": 4,
          "utts_per_speaker": 2, "passes": 2},
    binary=True,
    top_n=10,
)


def cli(argv: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "svbackend", *argv], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")


# -- corruptions: each edits one file in place ---------------------------------


def _edit_rows(path: Path, fn) -> None:
    """Rewrite the rows after the header line as ``fn(rows)``; rows are
    lists of tab-separated fields."""
    lines = path.read_text(encoding="utf-8").split("\n")
    header, body = lines[0], [ln for ln in lines[1:] if ln]
    path.write_text("\n".join([header] + ["\t".join(r) for r in fn([ln.split("\t") for ln in body])]) + "\n")


def set_field(name: str, row: int, col: int, value_fn):
    def edit(base: Path):
        def fn(rows):
            data = [i for i, r in enumerate(rows) if not r[0].startswith("#")]
            rows[data[row]][col] = value_fn(rows[data[row]][col])
            return rows

        _edit_rows(base / name, fn)

    return edit


def drop_row(name: str, row: int):
    def edit(base: Path):
        def fn(rows):
            data = [i for i, r in enumerate(rows) if not r[0].startswith("#")]
            return rows[: data[row]] + rows[data[row] + 1 :]

        _edit_rows(base / name, fn)

    return edit


def swap_rows(name: str, a: int, b: int):
    def edit(base: Path):
        def fn(rows):
            data = [i for i, r in enumerate(rows) if not r[0].startswith("#")]
            rows[data[a]], rows[data[b]] = rows[data[b]], rows[data[a]]
            return rows

        _edit_rows(base / name, fn)

    return edit


def swap_imposter(base: Path, data_dir: Path) -> None:
    """Replace the first imposter block of the first group by the speaker
    least similar to the anchor, with that speaker's own utterances."""
    protos = checks.read_prototypes(data_dir / "prototypes.tsv")
    train = checks.read_embeddings(data_dir / SMALL.train_file)
    u = checks.unit(protos.w)
    u_per = SMALL.plan["utts_per_speaker"]

    def fn(rows):
        data = [i for i, r in enumerate(rows) if not r[0].startswith("#")]
        anchor = int(rows[data[0]][4])
        far = int((u @ u[anchor]).argmin())
        utts = [x for x, s in zip(train.utt, train.speaker) if s == protos.speaker[far]]
        for k in range(u_per):
            row = rows[data[u_per + k]]
            row[3], row[4] = utts[k % len(utts)], str(far)
        return rows

    _edit_rows(base / "manifest.tsv", fn)


def edit_gb(base: Path) -> None:
    path = base / "gb.json"
    header, body = path.read_text().split("\n", 1)
    gb = json.loads(body)
    gb["mu_farsi"][0] += 1e-6
    path.write_text(header + "\n" + json.dumps(gb, indent=1, sort_keys=True) + "\n")


def flip_decision(base: Path) -> None:
    set_field("lid.tsv", 0, 1, lambda v: "FARSI" if v == "ENGLISH" else "ENGLISH")(base)


def flip_binary_vector(base: Path, data_dir: Path) -> None:
    """Change one float32 of the binary training container."""
    path = data_dir / SMALL.train_file
    raw = bytearray(path.read_bytes())
    start = raw.index(b"\n") + 1 + 4 + 14
    raw[start + 3] ^= 0x40  # exponent bits of the first component
    path.write_bytes(bytes(raw))


def swap_blocks(base: Path) -> None:
    """Exchange the first two imposter blocks of the first group, keeping
    the pass/batch/position columns in place."""
    u = SMALL.plan["utts_per_speaker"]

    def fn(rows):
        data = [i for i, r in enumerate(rows) if not r[0].startswith("#")]
        for k in range(u):
            a, b = rows[data[u + k]], rows[data[2 * u + k]]
            a[3:], b[3:] = b[3:], a[3:]
        return rows

    _edit_rows(base / "manifest.tsv", fn)


def _add(delta: float):
    return lambda v: repr(float(v) + delta)


CORRUPTIONS = [
    ("synth", "a dropped trial", "data", drop_row("trials.tsv", 5)),
    ("synth", "a changed binary vector", "binary", flip_binary_vector),
    ("plan-batches", "a swapped imposter", "manifest", swap_imposter),
    ("plan-batches", "two imposters in swapped order", "work", swap_blocks),
    ("plan-batches", "a dropped manifest row", "work", drop_row("manifest.tsv", 7)),
    ("lid-train", "a moved class mean", "work", edit_gb),
    ("lid-classify", "a flipped decision", "work", flip_decision),
    ("lid-classify", "a changed llr", "work", set_field("lid.tsv", 3, 2, _add(1e-6))),
    ("lid-classify", "a dropped row", "work", drop_row("lid.tsv", 4)),
    ("alpha", "a changed alpha", "work", set_field("alpha.tsv", 0, 1, _add(1e-9))),
    ("score", "a changed score", "work", set_field("scores.tsv", 10, 2, _add(1e-6))),
    ("score", "a dropped row", "work", drop_row("scores.tsv", 3)),
    ("score", "two rows in swapped order", "work", swap_rows("scores.tsv", 0, 1)),
    ("score", "a flipped label", "work", set_field("scores.tsv", 0, 3, lambda v: "nontarget" if v == "target" else "target")),
    ("calibrate", "a changed slope", "work", set_field("cal.tsv", 0, 1, _add(1e-3))),
    ("calibrate", "a changed calibrated score", "work", set_field("calibrated.tsv", 2, 2, _add(1e-9))),
    ("fuse", "a changed fused score", "work", set_field("fused.tsv", 6, 2, _add(1e-9))),
    ("fuse", "a dropped row", "work", drop_row("fused.tsv", 0)),
    ("fuse", "a changed input score", "work", set_field("scores.tsv", 4, 2, _add(1e-9))),
    ("eval", "a changed EER", "work", set_field("metrics.tsv", 0, 1, _add(1e-9))),
    ("eval", "a changed MinDCF", "work", set_field("metrics.tsv", 1, 1, _add(1e-9))),
    ("eval", "a changed trial count", "work", set_field("metrics.tsv", 5, 1, lambda v: str(int(v) + 1))),
]


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    data, work = OUT / "data", OUT / "work"
    work.mkdir(parents=True)
    cli(SMALL.synth_args(data, seed=11))
    for stage in STAGES + ("calibrate",):
        cli(SMALL.stage_args(stage, data, work, seed=11))

    ok = True
    clean = checks.check_run(data, work, SMALL)
    clean["calibrate"] = checks.check_stage("calibrate", data, work, SMALL)
    for stage, problems in clean.items():
        print(f"{'PASS' if not problems else 'FAIL'} clean {stage}: {problems or 'accepted'}")
        ok &= not problems

    for stage, what, target, edit in CORRUPTIONS:
        d2, w2 = OUT / "data-c", OUT / "work-c"
        shutil.rmtree(d2, ignore_errors=True)
        shutil.rmtree(w2, ignore_errors=True)
        shutil.copytree(data, d2)
        shutil.copytree(work, w2)
        if target == "data":
            edit(d2)
        elif target in ("binary", "manifest"):
            edit(w2, d2)
        else:
            edit(w2)
        try:
            problems = checks.check_stage(stage, d2, w2, SMALL)
        except (ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable: {type(exc).__name__}: {exc}"]
        caught = bool(problems)
        print(f"{'PASS' if caught else 'FAIL'} {stage}: {what} -> {problems[0] if caught else 'not rejected'}")
        ok &= caught
    shutil.rmtree(OUT, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
