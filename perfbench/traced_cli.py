"""Run one svbackend CLI stage with spans around the calls into each layer.

Usage: python traced_cli.py <spans.json> <svbackend arguments...>

The stage runs through ``svbackend.cli.main`` exactly as ``python -m
svbackend`` would run it, after the names that ``cli`` and the modules look
their callees up by have been replaced with timing wrappers.  Nothing in the
package changes.  On exit the spans, aggregated per name, are written to
``spans.json``:

    {"spans": {name: {"calls", "total_s", "self_s"}}, "counts": {...},
     "top_level_s": time covered by spans with no parent span}

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time


class Tracer:
    def __init__(self):
        self._child_time = [0.0]  # per open span; index 0 is the stage itself
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}

    def span(self, name, fn, count=None):
        """Wrap ``fn`` in a span; ``count(result)`` yields (counter, n) pairs."""

        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child_time.pop()
                self._child_time[-1] += dt
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if count is not None:
                for key, n in count(result):
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        return wrapper

    def counter(self, name, fn):
        """Count calls of ``fn`` without timing them (for per-trial calls)."""
        self.counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path):
        out = {
            "spans": {
                k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.spans.items()
            },
            "counts": self.counts,
            "top_level_s": self._child_time[0],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, sort_keys=True)


def install(tracer: Tracer) -> None:
    from svbackend import cli, formats, planner, scoring

    def rows(result):
        yield "formats.embedding_rows_read", len(result)

    def entries(manifest):
        yield "planner.entries", sum(len(b) for b in manifest.batches)

    def trials(result):
        yield "scoring.trials", len(result)

    for name in dir(formats):
        if name.startswith(("read_", "write_")) and callable(getattr(formats, name)):
            count = rows if name in ("read_embeddings_text", "read_embeddings_binary") else None
            setattr(formats, name, tracer.span(f"formats.{name}", getattr(formats, name), count))

    wraps = [
        (cli, "generate_corpus", "synth.generate_corpus", None),
        (cli, "similarity_matrix", "prototypes.similarity_matrix", None),
        (planner, "top_similar", "prototypes.top_similar", None),
        (cli, "plan_pass_broad", "planner.plan_pass", entries),
        (cli, "plan_pass_balanced", "planner.plan_pass", entries),
        (cli, "train_gb", "lid.train_gb", None),
        (cli, "classify", "lid.classify", None),
        (scoring, "estimate_alpha", "scoring.estimate_alpha", None),
        (scoring, "snorm_stats", "scoring.snorm_stats", None),
        (cli, "score_trials", "scoring.score_trials", trials),
        (cli, "fuse", "calibration.fuse", None),
        (cli, "eer", "metrics.eer", None),
        (cli, "min_dcf", "metrics.min_dcf", None),
    ]
    for module, attr, span_name, count in wraps:
        setattr(module, attr, tracer.span(span_name, getattr(module, attr), count))

    scoring.cosine = tracer.counter("vecmath.cosine.calls", scoring.cosine)
    cohort = scoring.Cohort
    cohort.__post_init__ = tracer.counter("scoring.cohort_builds", cohort.__post_init__)
    cohort.from_embeddings = classmethod(
        tracer.span("scoring.cohort_from_embeddings", cohort.from_embeddings.__func__)
    )


def main(argv: list[str]) -> int:
    spans_path, stage_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from svbackend import cli

    try:
        return cli.main(stage_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
