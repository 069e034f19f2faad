"""surfemb4 benchmark: closed-loop CLI runs, or a traced in-process replay.

Run from the repository root:

    python3 perfbench/run.py --workload decide-finite --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload as a closed loop with one client: a single
process that starts one ``surfemb4`` CLI child at a time, checks every
answer and reports the end-to-end metrics.  ``--trace 1`` replays the same
inputs in-process, once untraced and once with spans around each module's
public functions, and reports the per-layer metrics.  Human-readable lines
go first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

# One round's wall time on the reference machine (README.md), calibration
# included.  A run measures round(seconds / this) whole rounds: the work, and
# so the sample count and the tail percentile, is the same for every commit,
# and a run lasts a few seconds of set-up more than --seconds on that machine.
NOMINAL_ROUND_S = {"decide-finite": 12.5, "decide-abelian": 4.5, "knots": 11.0}
CHILD_TIMEOUT_S = 60
# The host's CPU speed drifts by 25% and more within seconds, and each CPU on
# its own (README.md).  So the client pins itself, and with it every child, to
# one CPU, and times a fixed pure-Python loop there before the first child and
# after every child.  Each child's wall time is scaled by CALIBRATION_REF_S
# over the mean of the two loops around it: it is reported at the speed the
# reference machine has when that loop takes CALIBRATION_REF_S.
CALIBRATION_LOOPS = 200_000
CALIBRATION_REF_S = 0.028
SETUP_PROBES = 12
PERCENTILES = (99, 95, 90, 75, 50)
END_TO_END = [("setup_s", "s"), ("latency_p50_s", "s"), ("latency_tail_s", "s"),
              ("items_per_s", "1/s"), ("peak_rss_mb", "MB")]


def _cli(src: Path) -> tuple[list[str], dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "surfemb4.cli"], env


def _invoke(cmd: list[str], env: dict, cwd: Path) -> tuple[float, int | None, object]:
    """Wall time, exit code (None on timeout) and parsed stdout (None if not JSON)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, None
    elapsed = time.perf_counter() - t0
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        doc = None
    return elapsed, proc.returncode, doc


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
    return time.perf_counter() - t0


def _failure(item, code) -> str:
    return (f"FAILED {' '.join(item.argv)} (exit {code}): expected {item.expect}, "
            f"because {item.reason}")


def _probe_ok(code, doc) -> bool:
    return code == 0 and isinstance(doc, dict) and bool(doc.get("instances")) \
        and bool(doc.get("knots"))


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond): the highest of PERCENTILES with >= 10 beyond.

    Nearest-rank percentiles; with fewer than 11 samples the maximum is
    reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        rank = -(-p * n // 100)  # ceil(p*n/100), 1-based
        if n - rank >= 10:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


def cli_run(name: str, items: list, inputs: Path, src: Path, seed: int, rounds: int) -> dict:
    cmd, env = _cli(src)
    rng = random.Random(f"{name}/order/{seed}")
    schedule = []
    for _ in range(rounds):
        order = list(items)
        rng.shuffle(order)
        schedule += order
    probe_every = max(1, len(schedule) // (SETUP_PROBES - 2))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    before = calibrate()

    def timed(argv):
        """(wall s, wall s at reference speed, exit code, parsed stdout)."""
        nonlocal before
        elapsed, code, doc = _invoke(cmd + argv, env, inputs)
        after = calibrate()
        scale = CALIBRATION_REF_S * 2 / (before + after)
        before = after
        return elapsed, elapsed * scale, code, doc

    setup = [timed(["examples", "list"]) for _ in range(2)]
    latency, raw, failures = [], [], []
    attempted = failed = done = 0
    for k, item in enumerate(schedule):
        if k and k % probe_every == 0 and len(setup) < SETUP_PROBES:
            setup.append(timed(["examples", "list"]))
        elapsed, scaled, code, doc = timed(item.argv)
        bad = item.items if code is None else workloads.check(item, code, doc)
        if bad:
            failures.append(_failure(item, code))
        latency.append(scaled)
        raw.append(elapsed)
        attempted += item.items
        failed += bad
        done += item.items - bad
    bad_probes = sum(not _probe_ok(code, doc) for _, _, code, doc in setup)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    value, pct, beyond = tail(latency)
    metrics = {
        "setup_s": statistics.median(t for _, t, _, _ in setup),
        "latency_p50_s": statistics.median(latency),
        "latency_tail_s": value,
        "items_per_s": done / sum(latency),
        "peak_rss_mb": peak_kb / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} 'examples list' children; "
                   f"unscaled {statistics.median(t for t, _, _, _ in setup):.4f} s",
        "latency_p50_s": f"median of {len(latency)} invocations; "
                         f"unscaled {statistics.median(raw):.4f} s",
        "latency_tail_s": f"p{pct}, {beyond} samples beyond, {len(latency)} samples; "
                          f"unscaled {tail(raw)[0]:.4f} s",
        "items_per_s": f"{done} items in {sum(latency):.2f} s of scaled invocation time; "
                       f"unscaled {done / sum(raw):.4g} 1/s",
        "peak_rss_mb": "largest child max RSS",
    }
    return {"metrics": metrics, "notes": notes, "units": dict(END_TO_END),
            "attempted": attempted + len(setup), "failed": failed + bad_probes,
            "lines": [f"fail_ratio {failed / attempted:.4g} ({failed}/{attempted} items); "
                      f"setup probes failed: {bad_probes}/{len(setup)}"] + failures[:10]}


def _replay(cli, items: list, inputs: Path, tracer=None) -> tuple[list, float, float]:
    """Run every item through ``cli.main`` in-process; (outputs, wall s, process CPU s)."""
    outputs = []
    cwd = os.getcwd()
    os.chdir(inputs)
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        for k, item in enumerate(items):
            if tracer is not None:
                tracer.item = k
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(item.argv))
            except Exception:  # a crash is a failed item, not a failed benchmark
                code = None
            outputs.append((code, buf.getvalue()))
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    finally:
        os.chdir(cwd)
    return outputs, wall, cpu


def _score(items: list, outputs: list) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    failures = []
    for item, (code, text) in zip(items, outputs):
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        bad = item.items if code is None else workloads.check(item, code, doc)
        if bad:
            failures.append(_failure(item, code))
        attempted += item.items
        failed += bad
    return attempted, failed, failures


def _import_times(src: Path, runs: int = 5) -> dict[str, float]:
    """Median seconds per module from ``python -X importtime``: self time for
    surfemb4 modules, cumulative for mpmath (its own submodules included)."""
    import layers

    cmd, env = _cli(src)
    samples: dict[str, list[float]] = {m: [] for m in layers.IMPORTED}
    for _ in range(runs):
        proc = subprocess.run([cmd[0], "-X", "importtime", "-c", "import surfemb4.cli"],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in samples:
                us = parts[1] if parts[2] == "mpmath" else parts[0]
                samples[parts[2]].append(int(us) / 1e6)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def traced_run(name: str, items: list, inputs: Path, src: Path, out: Path) -> dict:
    sys.path.insert(0, str(src))
    import surfemb4.cli as cli
    import layers
    from tracing import Tracer

    plain, plain_wall, _ = _replay(cli, items, inputs)
    tracer = Tracer(layers.TARGETS)
    tracer.install("surfemb4")
    try:
        traced, traced_wall, traced_cpu = _replay(cli, items, inputs, tracer)
    finally:
        tracer.uninstall()
    a1, f1, bad1 = _score(items, plain)
    a2, f2, bad2 = _score(items, traced)
    values, lines = layers.per_layer_metrics(tracer, traced_cpu)
    for module, sec in _import_times(src).items():
        values[f"cli.import.{module}_s"] = sec
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    spans = tracer.dump(out / f"spans-{name}.json")
    units = dict(layers.PER_LAYER)
    metrics = {m: values[m] for m in units}
    shares = sorted(((values[f"layer.{layer}.share"], layer) for layer in layers.LAYERS),
                    reverse=True)
    lines = [
        f"fail_ratio {(f1 + f2) / (a1 + a2):.4g} ({f1 + f2}/{a1 + a2} items, two replays)",
        f"traced replay: {traced_wall:.2f} s wall, {traced_cpu:.2f} s CPU; untraced "
        f"{plain_wall:.2f} s; {spans} stored spans in {out.name}/spans-{name}.json",
        "self-time share by layer: " + ", ".join(f"{layer} {s:.1%}" for s, layer in shares)
        + f", uncovered {values['trace.uncovered_s'] / max(traced_cpu, 1e-9):.1%}",
    ] + lines + (bad1 + bad2)[:10]
    return {"metrics": metrics, "notes": {}, "units": units, "attempted": a1 + a2,
            "failed": f1 + f2, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one round (smoke test)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "surfemb4" / "cli.py").is_file():
        print(f"error: no surfemb4 sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    items = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="inputs-") as tmp:
        inputs = Path(tmp)
        workloads.write_inputs(items, inputs)
        if args.trace:
            result = traced_run(args.workload, items, inputs, src, out)
        else:
            result = cli_run(args.workload, items, inputs, src, args.seed, rounds)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(items)} invocations per round")
    for name, value in result["metrics"].items():
        note = result["notes"].get(name)
        print(f"  {name:48s} {value:14.6g} {result['units'][name]:6s}"
              + (f"  ({note})" if note else ""))
    for line in result["lines"]:
        print("  " + line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
