"""Closed-loop benchmark of toricres: one process, one thread, one problem
at a time, through the package's public API.

    python3 perfbench/run.py --workload dense-cold --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
``--seconds`` sets how many rounds of the workload run: as many as take
that long in reference seconds at the commit that defined the benchmark,
so every run of a workload does the same work.  Times are in reference
seconds: wall time scaled by the speed of the host measured around each
piece of work (``harness.SpeedClock``); the wall times are printed too.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
and the spans are written to ``.bench_out/``.  Lines before it print every
metric by name with its unit, the environment and any failed check.  The
exit code is non-zero when a check fails or the package cannot be
imported.  See ``perfbench/NOTES.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import Ledger, SpeedClock, Tracer, digest, self_times, tail  # noqa: E402

GOLDEN = HERE / "golden.json"
GOLDEN_ROUNDS = 2
SETUP_REPEATS = 5

SPAN_LAYERS = (
    "lattice.is_complete", "grading.compute_grading", "grading.critical_degree",
    "polytopes.monomial_basis", "polytopes.intersection_number",
    "divisors.is_ample", "cayley.checks", "files.load_problem", "cli.main",
    "groebner.buchberger", "groebner.normal_form",
    "residues.membership", "residues.zero_locus", "residues.codim", "residues.delta",
    "residues.c_sigma", "residues.toric_residue", "residues.checks",
    "localres.sum_local_residues",
)
COUNTS = (
    ("lattice.is_complete.calls", "count"),
    ("polytopes.monomial_basis.monomials", "count"),
    ("groebner.normal_form.calls", "count"),
    ("localres.sum_local_residues.calls", "count"),
)
MAXIMA = (
    ("groebner.basis_len", "count"),
    ("groebner.coeff_bits_max", "bits"),
    ("localres.abs_err_max", "abs"),
)
LOCALRES_REFUSALS = ("InfiniteIntersection", "NonSimpleZero", "NotShapePosition",
                     "NotTorusZero", "NotZeroDimensional", "ZeroOnPolarLocus")


def load_golden(workload, seed):
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed), {})


def run_rounds(wl, state, first, led, rounds, clock):
    """Run ``rounds`` whole rounds, one unit at a time.

    Inputs of later rounds are generated outside the timed units.  Each
    unit's wall time and item latencies are scaled by its ``clock`` factor,
    so they are in reference seconds.  Returns the item latencies, the
    timed time (the sum over units), the timed wall time and the exact
    outputs of every unit by key.
    """
    timed, outputs = [], {}
    clock.read()
    for r in range(rounds):
        units = first if r == 0 else wl.round(state, r)
        for key, unit in units:
            with led.tracer.span("unit"):
                t = time.perf_counter()
                values, items = unit(led)
                dt = time.perf_counter() - t
            clock.read()
            timed.append((dt, items))
            outputs[key] = values
    samples, total = [], 0.0
    for k, (dt, items) in enumerate(timed):
        f = clock.factor(k)
        samples.extend([dt * f] if items is None else [x * f for x in items])
        total += dt * f
    return samples, total, sum(dt for dt, _ in timed), outputs


def layer_metrics(led, problems_per_s, scale=1.0, ref_s=harness.REF_S):
    """Per-layer metrics; self times are scaled by the run's ``scale``."""
    tr = led.tracer
    selfs = {k: v * scale for k, v in self_times(tr.spans).items()}
    out = {}
    for name in SPAN_LAYERS:
        out[f"{name}.s"] = (selfs.get(name, 0.0), "s")
    for name, unit in COUNTS:
        out[name] = (tr.counts.get(name, 0), unit)
    for name, unit in MAXIMA:
        out[name] = (tr.maxima.get(name, 0), unit)
    refused = {kind: n for (layer, kind), n in led.refusals.items()
               if layer == "localres"}
    out["localres.refused"] = (sum(refused.values()), "count")
    for kind in LOCALRES_REFUSALS:
        out[f"localres.refused.{kind}"] = (refused.get(kind, 0), "count")
    out["bench.unit_self.s"] = (selfs.get("unit", 0.0), "s")
    out["failed_ratio"] = (led.failed / max(led.attempted, 1), "ratio")
    out["refused_ratio"] = (led.refused / max(led.attempted, 1), "ratio")
    out["traced.problems_per_s"] = (problems_per_s, "1/s")
    out["bench.reference_loop.s"] = (ref_s, "s")
    return out


def write_trace(workload, seed, tracer, env, metrics):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    doc = {"workload": workload, "seed": seed, "environment": env,
           "span_fields": ["id", "name", "start", "end", "parent"],
           "spans": tracer.spans,
           "self_s": self_times(tracer.spans),
           "metrics": {k: v for k, (v, _) in metrics.items()}}
    path.write_text(json.dumps(doc))
    return path


def record_golden(wl, seed):
    """Store digests of the first GOLDEN_ROUNDS rounds for this seed."""
    state = wl.setup(seed)
    led = Ledger(Tracer(False))
    _, _, _, outputs = run_rounds(wl, state, wl.round(state, 0), led,
                                  GOLDEN_ROUNDS, SpeedClock())
    if led.failed:
        sys.exit("refusing to record golden digests from a run with failures:\n"
                 + "\n".join(led.failures))
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    doc.setdefault(wl.name, {})[str(seed)] = {k: digest(v) for k, v in outputs.items()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help=f"store digests of the first {GOLDEN_ROUNDS} rounds and exit")
    args = ap.parse_args(argv)

    harness.pin_threads()
    if not (ROOT / "src" / "toricres").is_dir():
        print(f"toricres sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    setup_clock = SpeedClock()
    setup_clock.read()
    t = time.perf_counter()
    try:
        import toricres  # noqa: F401
        from workloads import WORKLOADS, trace_normal_forms
    except ImportError as exc:
        print(f"cannot import toricres: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t
    setup_clock.read()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.record_golden:
        record_golden(wl, args.seed)
        return 0

    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        state = wl.setup(args.seed)
        first = wl.round(state, 0)
        setups.append(time.perf_counter() - t)
        setup_clock.read()
    setup_wall = import_s + median(setups)
    setup_s = setup_wall * setup_clock.run_factor()

    led = Ledger(Tracer(bool(args.trace)))
    if args.trace:
        trace_normal_forms(led.tracer)
    rounds = wl.rounds(args.seconds)
    clock = SpeedClock()
    samples, timed_s, wall_s, outputs = run_rounds(wl, state, first, led,
                                                   rounds, clock)

    golden = load_golden(wl.name, args.seed)
    checked = 0
    for key, values in outputs.items():
        if key in golden:
            checked += 1
            led.check(digest(values) == golden[key], "golden",
                      f"unit {key} differs from the recorded outputs")

    problems_per_s = len(outputs) / timed_s
    env = harness.environment()
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{rounds} rounds, {len(outputs)} units, {len(samples)} items "
          f"in {timed_s:.3f} reference s timed ({wall_s:.3f} s wall)")
    ref_s = median(clock.readings)
    print(f"reference loop median {ref_s * 1e3:.3f} ms over "
          f"{len(clock.readings)} readings (REF_S {harness.REF_S * 1e3:g} ms); "
          f"wall set-up {setup_wall:.3f} s (import {import_s:.3f} s), "
          f"wall problems_per_s {len(outputs) / wall_s:.4f}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"operations attempted {led.attempted} failed {led.failed} "
          f"refused {led.refused}; golden units checked {checked}")
    for line in led.failures:
        print(f"FAILED {line}")
    if args.trace:
        metrics = layer_metrics(led, problems_per_s, clock.run_factor(), ref_s)
        path = write_trace(wl.name, args.seed, led.tracer, env, metrics)
        print(f"spans {len(led.tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        tail_s, pct, n = tail(samples)
        print(f"solve_tail_s is p{pct:.1f} of {n} items")
        print(f"failed_ratio {led.failed / led.attempted:.6f} ratio")
        print(f"refused_ratio {led.refused / led.attempted:.6f} ratio")
        metrics = {
            "setup_s": (setup_s, "s"),
            "problems_per_s": (problems_per_s, "1/s"),
            "solve_p50_s": (median(samples), "s"),
            "solve_tail_s": (tail_s, "s"),
            "residues_per_s": (led.done["residues.toric_residue"] / timed_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    correct = led.failed == 0
    print(json.dumps({"correct": correct, "attempted": led.attempted,
                      "failed": led.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
