"""Benchmark of the subposet CLI: one client, closed loop, one job at a time.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its src/.
Set-up builds the workload's families, relabels each with a permutation of
[n] drawn from the seed, writes the family files under .bench_work/ and warms
up. It runs three times and setup_s is their median. The seed also shuffles
the job order. The measured loop then runs whole passes over the job pool
until --seconds have gone by (at least two passes), calling
subposet.cli.main(argv) in-process with stdout captured; the maximum-antichain
jobs of "scan" call the library, as the CLI has no command for them. Job
times are reported in ref_s (see CALIB_REF_S) and, on a separate line, in
wall seconds.

The first pass is the reference: every answer is checked by checks.py, and
every later pass must print byte-identical stdout with the same exit code.
With --trace 1 the first pass runs untraced and the later ones traced
(spans.py); per-layer numbers are per traced pass, and each job's work counts
must repeat exactly across traced passes and match the node counts the
untraced pass printed. Outputs and counts are also kept in
.bench_work/state/, keyed by the source code, workload and seed, and must
match those of earlier runs of the same code and seed.

Human-readable lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. A job fails when it raised,
printed no JSON, or gave an answer or exit code the checks reject; only the
last two make "correct" false, as does any output or count that changed
between passes or runs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import spans
from workloads import FAMILIES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
SETUPS = 3
MIN_PASSES = 2
# Job times are also reported in ref_s: wall seconds scaled to a machine on
# which calibration_loop() takes CALIB_REF_S. The loop runs three times
# before every job and after each pass, and each job is scaled by the mean of
# the medians of the three loops on either side of it. This host's speed
# swings by about 1.5x over tens of seconds; the scaled times follow the
# program, not the swings.
CALIB_REF_S = 0.01
CALIB_MASKS = tuple((i * 2654435761) & 0xFFFF for i in range(600))


def calibration_loop() -> float:
    """Seconds taken by a fixed loop of the kind the library runs: subset
    tests on masks and growing int bitsets."""
    start = perf_counter()
    masks = CALIB_MASKS
    rows = []
    for i, mi in enumerate(masks):
        row = 0
        for j in range(i + 1, len(masks)):
            if mi & masks[j] == mi:
                row |= 1 << j
        rows.append(row)
    return perf_counter() - start


def calibrate() -> float:
    return statistics.median(calibration_loop() for _ in range(3))


def load_library():
    if not (SRC / "subposet" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'subposet'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import subposet
    from subposet import chains, cli, constructions, containment, lattice, posets, solver

    if Path(subposet.__file__).resolve().parent != SRC / "subposet":
        sys.exit(f"perfbench: imported subposet from {subposet.__file__}, not from {SRC}")
    return SimpleNamespace(chains=chains, cli=cli, constructions=constructions,
                           containment=containment, lattice=lattice, posets=posets, solver=solver)


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "subposet").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def relabel(mask: int, perm: list[int]) -> int:
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def set_up(sp, pool, warmup, seed, workdir):
    """Build, relabel and write the families; warm up. Returns the job order
    and, per family, its file path, n and member set."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in sorted({job["family"] for job in pool.values() if job.get("family")}):
        builder, args = FAMILIES[name]
        module = sp.constructions if builder.startswith("construct") else sp.lattice
        fam = getattr(module, builder)(*args)
        perm = list(range(fam.n))
        rng.shuffle(perm)
        fam = sp.lattice.SetFamily.of(fam.n, [relabel(m, perm) for m in fam.members])
        path = workdir / f"{name}.txt"
        path.write_text(sp.lattice.serialize_family(fam), encoding="utf-8")
        sp.lattice.parse_family(path.read_text(encoding="utf-8"))
        files[name] = (path, fam.n, frozenset(fam.members))
    for job_id in warmup:
        run_job(sp, pool[job_id], files)
    order = sorted(pool)
    rng.shuffle(order)
    return order, files


def antichain_job(sp, path: Path) -> int:
    fam = sp.lattice.parse_family(path.read_text(encoding="utf-8"))
    res = sp.containment.max_antichain(fam)
    witness = [checks.format_set(fam.members[i]) for i in res.witness]
    print(json.dumps({"size": res.size, "witness": witness}, sort_keys=True))
    return 0


def run_job(sp, job, files):
    """Run one job; returns (seconds, stdout, exit code, exception or None)."""
    out, err = io.StringIO(), io.StringIO()
    path = files[job["family"]][0] if job.get("family") else None
    gc.collect()  # each job starts from a collected heap, as a fresh CLI process would
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if job["kind"] == "antichain":
                code = antichain_job(sp, path)
            else:
                code = sp.cli.main([str(path) if a == "{family}" else a for a in job["argv"]])
        error = None
    except Exception as exc:  # a job that raises is counted as failed, not fatal
        code, error = None, exc
    return perf_counter() - start, out.getvalue(), code, error


def evaluate(sp, job, files, out, code, error):
    """Status ("ok", "unresolved" or "failed") and the problems the checks found."""
    if error is not None:
        return "failed", []
    try:
        result = json.loads(out)
    except ValueError:
        return "failed", []
    _, n, family = files[job["family"]] if job.get("family") else (None, None, None)
    try:
        if job["kind"] == "antichain":
            problems = checks.check_antichain(job, result, family)
        elif job["kind"] == "check":
            problems = checks.check_check(job, result["payload"], code, family)
        elif job["kind"] == "solve":
            problems = checks.check_solve(job, result["payload"], code, sp)
        else:
            problems = checks.check_chains(job, result["payload"], code, family, n)
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"malformed output {exc!r}"]
    if problems:
        return "failed", problems
    return ("unresolved" if code == checks.EXIT_BUDGET else "ok"), []


def payload_counts(job, out):
    """Work counts the untraced CLI output itself reports, keyed like the traced ones."""
    if job["kind"] not in ("check", "solve"):
        return {}
    try:
        nodes = int(json.loads(out)["payload"]["nodes"])
    except (ValueError, KeyError):
        return {}
    return {"containment.check.nodes" if job["kind"] == "check" else "solver.solve.attempts": nodes}


def same_counts(old: dict, new: dict, exact: bool) -> bool:
    """Counts agree on every key both have (on all keys when `exact`)."""
    if exact:
        return old == new
    return all(new[k] == v for k, v in old.items() if k in new)


def measure(sp, pool, order, files, seconds, tracer, problems):
    """Whole passes over the job order until `seconds` have gone by. With a
    tracer, every pass after the first is traced."""
    reference = {}
    samples = []
    traced_passes = []
    counts_ref = {}
    start = perf_counter()
    passes = 0
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        traced = tracer is not None and passes > 0
        pass_samples = []
        calib = []
        with tracer.installed() if traced else nullcontext():
            for job_id in order:
                job = pool[job_id]
                if traced:
                    tracer.job = job_id
                calib.append(calibrate())
                seconds_, out, code, exc = run_job(sp, job, files)
                # compared by type: a RecursionError message depends on where the limit hit
                error = type(exc).__name__ if exc else None
                if job_id not in reference:
                    status, wrong = evaluate(sp, job, files, out, code, error)
                    reference[job_id] = (out, code, error, status)
                    counts_ref[job_id] = payload_counts(job, out)
                    problems += [f"{job_id}: {p}" for p in wrong]
                    if exc:
                        print(f"job {job_id} failed: {error}: {str(exc)[:200]}")
                elif reference[job_id][:3] != (out, code, error):
                    problems.append(f"{job_id}: output differs from the first pass")
                pass_samples.append([job_id, seconds_, reference[job_id][3]])
        calib.append(calibrate())
        for i, sample in enumerate(pass_samples):
            sample.append(sample[1] * 2 * CALIB_REF_S / (calib[i] + calib[i + 1]))
        if traced:
            layers, per_job = spans.summarize(tracer.take())
            traced_passes.append((pass_samples, layers))
            for job_id in order:
                got = dict(per_job.get(job_id, {}))
                if not same_counts(counts_ref[job_id], got, exact=passes > 1):
                    problems.append(f"{job_id}: traced counts {got} differ from {counts_ref[job_id]}")
                counts_ref[job_id] = got
        else:
            samples += pass_samples
        passes += 1
    return samples, traced_passes, reference, counts_ref


def check_state(workload, seed, reference, counts, problems):
    """Compare outputs and traced counts with earlier runs of this code and seed."""
    path = WORK / "state" / f"{code_hash()}-{workload}-{seed}.json"
    digests = {job_id: hashlib.sha256(repr(ref[:3]).encode()).hexdigest()
               for job_id, ref in reference.items()}
    old = json.loads(path.read_text()) if path.exists() else {"stdout": {}, "counts": {}}
    for job_id, digest in digests.items():
        if old["stdout"].get(job_id, digest) != digest:
            problems.append(f"{job_id}: output differs from an earlier run of this seed")
    for job_id, got in counts.items():
        if not same_counts(old["counts"].get(job_id, {}), got, exact=False):
            problems.append(f"{job_id}: work counts differ from an earlier run of this seed")
        old["counts"].setdefault(job_id, {}).update(got)
    old["stdout"].update(digests)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(old, sort_keys=True))
    os.replace(tmp, path)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_times, samples):
    attempted = len(samples)
    statuses = [sample[2] for sample in samples]
    failed = statuses.count("failed")
    unresolved = statuses.count("unresolved")
    wall = [sample[1] for sample in samples]
    ref = [sample[3] for sample in samples]
    by_job = {}
    for job_id, _, _, ref_s in samples:
        by_job.setdefault(job_id, []).append(ref_s)
    ok_jobs = {job_id for job_id, _, status, _ in samples if status != "failed"}
    # one median pass: each job's median time across passes, summed
    pass_ref_s = sum(statistics.median(times) for times in by_job.values())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"failed_ratio     {failed / attempted:.4f}   ({failed}/{attempted} jobs)")
    print(f"unresolved_ratio {unresolved / attempted:.4f}   ({unresolved}/{attempted} jobs)")
    print(f"wall jobs_per_s {(attempted - failed) / sum(wall):.4f} 1/s, job_s.p50 "
          f"{statistics.median(wall):.4f} s, job_s.p90 {percentile(wall, 90):.4f} s "
          f"({attempted} samples; unscaled, follows the host's speed)")
    return {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "jobs_per_ref_s": (len(ok_jobs) / pass_ref_s, "1/ref_s",
                           f"{len(ok_jobs)} jobs per median pass of {pass_ref_s:.3f} ref_s"),
        "job_ref_s.p50": (statistics.median(ref), "ref_s", f"{attempted} samples"),
        "job_ref_s.p90": (percentile(ref, 90), "ref_s", f"{attempted} samples"),
        "ok_ratio": (1 - failed / attempted, "ratio", f"{attempted} jobs"),
        "resolved_ratio": (1 - unresolved / attempted, "ratio", f"{attempted} jobs"),
        "peak_rss_mb": (peak_kb / 1024, "MB", "ru_maxrss"),
    }


def per_layer(setup_layers, traced_passes, untraced_samples):
    count = len(traced_passes)

    def total(name, key):
        return sum(layers.get(name, {}).get(key, 0) for _, layers in traced_passes) / count

    def rate(num, den):
        return num / den if den else 0.0

    check_s, nodes, pairs = (total("containment.check", k) for k in ("s", "nodes", "pairs"))
    embed_calls = total("solver.embed", "calls")
    part_s, walked = total("chains.partition", "s"), total("chains.partition", "walked")
    traced_ref_s = sum(x[3] for samples, _ in traced_passes for x in samples) / count
    untraced_ref_s = sum(x[3] for x in untraced_samples)
    jobs = sum(x[2] != "failed" for x in untraced_samples)
    build = setup_layers.get("constructions.build", {})
    return {
        "containment.check_s": (check_s, "s"),
        "containment.checks": (total("containment.check", "calls"), "count"),
        "containment.nodes": (nodes, "count"),
        "containment.nodes_per_s": (rate(nodes, check_s), "1/s"),
        "containment.pairs": (pairs, "count"),
        "containment.pairs_per_s": (rate(pairs, check_s), "1/s"),
        "containment.antichain_calls": (total("containment.antichain", "calls"), "count"),
        "containment.antichain_s": (total("containment.antichain", "s"), "s"),
        "solver.solve_s": (total("solver.solve", "s"), "s"),
        "solver.attempts": (total("solver.solve", "attempts"), "count"),
        "solver.embed_calls": (embed_calls, "count"),
        "solver.embed_s": (total("solver.embed", "s"), "s"),
        "solver.self_s": (total("solver.solve", "self_s"), "s"),
        "solver.embed_found_ratio": (rate(total("solver.embed", "found"), embed_calls), "ratio"),
        "chains.partition_s": (part_s, "s"),
        "chains.chains_walked": (walked, "count"),
        "chains.chains_per_s": (rate(walked, part_s), "1/s"),
        "chains.marker_calls": (total("chains.marker", "calls"), "count"),
        "chains.marker_s": (total("chains.marker", "s"), "s"),
        "chains.self_s": (total("chains.partition", "self_s"), "s"),
        "lattice.parse_s": (total("lattice.parse", "s"), "s"),
        "lattice.members_parsed": (total("lattice.parse", "members"), "count"),
        "cli.self_s": (total("cli", "self_s"), "s"),
        "constructions.build_s": (build.get("s", 0.0), "s"),
        "constructions.members": (build.get("members", 0), "count"),
        "trace.jobs_per_ref_s": (jobs / traced_ref_s, "1/ref_s"),
        "trace.overhead_ratio": (traced_ref_s / untraced_ref_s, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    sp = load_library()
    os.chdir(ROOT)
    pool, warmup = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}"
    tracer = spans.Tracer(sp) if args.trace else None
    problems: list[str] = []
    try:
        setup_times = []
        setup_layers = {}
        for _ in range(1 if tracer else SETUPS):
            start = perf_counter()
            if tracer:
                with tracer.installed():
                    order, files = set_up(sp, pool, warmup, args.seed, workdir)
                setup_layers, _ = spans.summarize(tracer.take())
            else:
                order, files = set_up(sp, pool, warmup, args.seed, workdir)
            setup_times.append(perf_counter() - start)
        samples, traced_passes, reference, counts = measure(
            sp, pool, order, files, args.seconds, tracer, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_state(args.workload, args.seed, reference, counts, problems)

    all_samples = samples + [s for pass_samples, _ in traced_passes for s in pass_samples]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(all_samples) // len(order)} passes of {len(order)} jobs")
    for job_id in sorted(pool):
        if pool[job_id].get("baseline"):
            runs = [x for x in all_samples if x[0] == job_id]
            print(f"baseline {pool[job_id]['baseline']} [{job_id}]: median "
                  f"{statistics.median(x[1] for x in runs):.4f} s, "
                  f"{statistics.median(x[3] for x in runs):.4f} ref_s over {len(runs)} runs")
    if tracer:
        metrics = {k: (v, unit, "per traced pass")
                   for k, (v, unit) in per_layer(setup_layers, traced_passes, samples).items()}
    else:
        metrics = end_to_end(setup_times, samples)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}   ({note})")
    for problem in problems:
        print(f"PROBLEM {problem}")
    failed = sum(x[2] == "failed" for x in all_samples)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(all_samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
