"""Run pipeline stages in-process through `cli.main` and record their times.

run.py starts one worker for the set-up repetitions and one fresh worker
per measured repetition, so the peak RSS a worker reports covers only the
stages it ran. Around and during every stage the worker times a fixed
probe (see `Sampler`), from which run.py scales the stage's time. Usage:

    PYTHONPATH=src python3 perfbench/worker.py --config CFG --out DIR \
        --stages cluster,detect --repeat 1 --fresh 0 --trace 0 --result OUT.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import random
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

from tracer import Tracer


def _error_line(stderr: str) -> str:
    """The CLI's JSON error line, if the stage printed one."""
    for line in reversed(stderr.splitlines()):
        if line.startswith("{"):
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            return f"{payload.get('code')}: {payload.get('error')}"
    return ""


SAMPLE_EVERY_S = 0.25
# The probe's inputs are built once, so a probe run in the middle of a stage
# allocates only one small dict and one list, both freed when it returns.
# With probes during the stages, the peak RSS of `rescreen` at seed 3 was
# 145 to 147 MB; with none, 142 MB.
_KEYS = [str(i) for i in range(1000)]
_WORDS = [str(i) for i in range(16_000)]
random.Random(0).shuffle(_WORDS)


def probe() -> float:
    """Seconds a fixed pure-Python workload takes right now.

    The host is shared: stage times swing by half between busy and quiet
    moments, and this probe's time swings with them, so run.py divides it
    out. The collector is off so the program's heap does not slow it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts = dict.fromkeys(_KEYS, 0)
        for i in range(64_000):
            counts[_KEYS[i % 1000]] += 1
        sorted(_WORDS)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Sampler:
    """Runs `probe` every SAMPLE_EVERY_S seconds of wall time from SIGALRM
    while a stage runs. In a traced repetition each probe is a `probe` span,
    so its time is not counted in the self time of the span it interrupted."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.samples: list[float] = []
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            with self.tracer.span("probe") if self.tracer else contextlib.nullcontext():
                self.samples.append(probe())
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_stages(cli, stages, config: str, out: Path, tracer: Tracer | None) -> dict:
    """One repetition: each stage once, in order, whatever the exit codes.

    A stage's `seconds` leave out the probes run during it; its `probe_s`
    holds those probes plus one just before and one just after it.
    """
    sampler = Sampler(tracer)
    results = []
    for stage in stages:
        before = probe()
        captured = io.StringIO()
        stage_start = time.perf_counter()
        # Sampling inside the stage's span keeps every probe span below it.
        with contextlib.redirect_stderr(captured), (
            tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        ), sampler.sampling():
            rc = cli.main([stage, "--config", config, "--out", str(out)])
        elapsed = time.perf_counter() - stage_start
        results.append({
            "stage": stage,
            "rc": rc,
            "seconds": elapsed - sum(sampler.samples),
            "probe_s": [before, *sampler.samples, probe()],
            "error": _error_line(captured.getvalue()),
        })
    return {"wall_s": sum(r["seconds"] for r in results), "stages": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--stages", required=True)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--fresh", type=int, default=0, help="empty --out before each repetition")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)

    # Configured before the CLI configures it, so tracebacks of failing
    # stages go to this process's stderr, not into a stage's captured one.
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    from airdrop_forensics import cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    reps = []
    for _ in range(args.repeat):
        if args.fresh:
            shutil.rmtree(args.out, ignore_errors=True)
        rep = run_stages(cli, args.stages.split(","), args.config, args.out, tracer)
        if tracer:
            rep["trace"] = tracer.take()
        reps.append(rep)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.result.write_text(json.dumps({"reps": reps, "peak_rss_mb": peak_kb / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
