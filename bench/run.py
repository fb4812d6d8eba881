"""pactop benchmark: family sweep, ideal sweep and report ladder.

    python3 bench/run.py --workload family-sweep --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
child process (``child.py``), one at a time, so each operation runs cold
and single-threaded, the way a user runs it.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
exit code is 0 when every output passed the correctness gate, 1 when one
did not, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from gauge import NOMINAL_S  # noqa: E402
from spans import CACHED, traced_names  # noqa: E402

WORKLOADS = ("family-sweep", "ideal-sweep", "report-ladder")
# cold passes a run makes; they fit --seconds 45 at the commit the
# benchmark was written for, with room to spare on a loaded host
PASSES = {"family-sweep": 6, "ideal-sweep": 3, "report-ladder": 3}
SETUPS = 7  # set-up runs per benchmark run; setup_s is their median
REACH_BUDGET_S = 3.0  # wall budget of one reach rung, inside its process
REACH_TOTAL_S = 6.0  # wall budget of all reach rungs of one run
REACH_MEMORY_MB = 2048  # address-space limit of one reach rung
CHILD_TIMEOUT_S = 120.0  # backstop for any child that hangs

# per-function self times reported as metrics: the functions every
# workload calls, so none of these reads 0 (the full table is printed)
COMMON_SELF = ("paction.acting_set", "vaught.star_transform", "topology.product",
               "topology.discrete", "topology.is_meager_in",
               "topology.minimal_neighborhoods")
COMMON_LAYERS = ("paction", "vaught", "topology")


class ChildFailed(Exception):
    pass


def _child(job: dict, timeout: float = CHILD_TIMEOUT_S):
    """Run one job in a fresh interpreter; returns its decoded result."""
    proc = subprocess.run([sys.executable, CHILD], input=pickle.dumps(job),
                          capture_output=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise ChildFailed(f"{job['role']} child exited {proc.returncode}: {' | '.join(tail)}")
    if job["role"] == "setup":
        return pickle.loads(proc.stdout)
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _load(name: str):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return fh.read() if name.endswith(".txt") else json.load(fh)


def _per_op_median(passes):
    """Each operation's median time over the run's passes.  The times are
    already corrected for the host's speed (``gauge.py``); the median
    drops the passes that a burst of load hit anyway.  Percentiles are
    then taken over operations."""
    return [statistics.median(column) for column in zip(*passes)]


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


class Run:
    def __init__(self, args):
        self.start = time.perf_counter()
        self.workload, self.seed = args.workload, args.seed
        self.seconds, self.trace = args.seconds, bool(args.trace)
        self.expected = _load("expected.json")
        self.failures: list[str] = []
        self.attempted = 0

    def say(self, line: str) -> None:
        print(line, flush=True)

    def fail(self, what: str) -> None:
        self.failures.append(what)
        self.say(f"FAIL {what}")

    # -- set-up -------------------------------------------------------------

    def setup(self):
        """The first set-up; ``more_setups`` makes the others."""
        self.setup_job = {"role": "setup", "workload": self.workload, "seed": self.seed,
                          "trace": False}
        first = _child(self.setup_job)
        self.inputs, self.setup_times = first["inputs"], [first["setup_s"]]
        self.setup_raw = [first["import_s"] + first["gen_s"]]
        self.setup_trace = (_child(dict(self.setup_job, trace=True))["trace"]
                            if self.trace else None)
        want = self.expected["valid_counts"].get(self.workload)
        if want is not None and self.inputs["valid_counts"] != want:
            self.fail(f"valid instance counts {self.inputs['valid_counts']} != {want}")
        return self.inputs

    def more_setups(self, passes_left: int) -> None:
        """Spread the untraced run's other set-ups over the gaps between
        passes, so that one slow phase of the host cannot hold them all;
        ``setup_s`` is their median."""
        left = 0 if self.trace else SETUPS - len(self.setup_times)
        for _ in range(-(-left // (passes_left + 1))):
            r = _child(self.setup_job)
            if r["inputs"] != self.inputs:
                self.fail(f"seed {self.seed} gave different inputs on two set-ups")
            self.setup_times.append(r["setup_s"])
            self.setup_raw.append(r["import_s"] + r["gen_s"])
        self.setup_s = statistics.median(self.setup_times)

    # -- measuring loop -------------------------------------------------------

    def passes(self, one_pass):
        """Run the workload's fixed number of cold passes.  ``seconds`` caps
        the whole run, set-up included: a pass that would end past it is not
        started.  A traced run alternates untraced and traced passes,
        untraced first, and makes at least one of each; the untraced ones are
        the overhead reference."""
        planned = max(PASSES[self.workload], 2 if self.trace else 1)
        results, longest = [], 0.0
        while len(results) < planned:
            elapsed = time.perf_counter() - self.start
            if len(results) >= (2 if self.trace else 1) and elapsed + longest > self.seconds:
                break
            traced = self.trace and len(results) % 2 == 1
            t0 = time.perf_counter()
            results.append(one_pass(traced))
            self.more_setups(planned - len(results))
            longest = max(longest, time.perf_counter() - t0)
        self.more_setups(0)
        self.say(f"{len(results)} of {planned} passes; run time so far "
                 f"{time.perf_counter() - self.start:.1f} s; setup_s {self.setup_s:.4f} s, the "
                 f"median of {len(self.setup_times)} set-ups (uncorrected median "
                 f"{statistics.median(self.setup_raw):.4f} s)")
        return results

    # -- workloads -------------------------------------------------------------

    def family(self, inputs):
        job = {"role": "family-sweep", "inputs": inputs}
        res = self.passes(lambda traced: _child(dict(job, trace=traced)))
        n_valid, n_mut = len(inputs["valid"]), len(inputs["mutants"])
        for r in res:
            self.attempted += n_valid + n_mut
            for f in r["failures"]:
                self.fail(f)
        if self.trace:
            return self.per_layer([r["pass_s"] for r in res], [r["trace"] for r in res])
        _host_speed(self.say, [r["gauge_slice_s"] for r in res])
        valid_ms = _per_op_median([r["valid_ms"] for r in res])
        mutant_ms = _per_op_median([r["mutant_ms"] for r in res])
        ranked = sorted(valid_ms)
        p50, p95 = _percentile(ranked, 0.5), _percentile(ranked, 0.95)
        self.say(f"family.valid_per_s = {n_valid / sum(valid_ms) * 1e3:.2f} 1/s "
                 f"({n_valid} valid instances {inputs['valid_counts']}, {len(res)} passes)")
        self.say(f"family.report_ms_p50 = {p50:.3f} ms, family.report_ms_p95 = {p95:.3f} ms "
                 f"({n_valid} samples, each the median of {len(res)} passes)")
        self.say(f"family.reject_per_s = {n_mut / sum(mutant_ms) * 1e3:.1f} 1/s "
                 f"({n_mut} mutants)")
        gx = max(len(t.mul) * t.size for t in inputs["valid"])
        return self.end_to_end(res, (sum(valid_ms) + sum(mutant_ms)) / 1e3, p50, p95, 1.0, gx)

    def ideal(self, inputs):
        job = {"role": "ideal-sweep", "inputs": inputs}
        res = self.passes(lambda traced: _child(dict(job, trace=traced)))
        for r in res:
            self.attempted += len(r["call_ms"]) + r["members"]
            if len(r["call_ms"]) != self.expected["ideal_sections"]:
                self.fail(f"ideal sweep made {len(r['call_ms'])} calls, expected "
                          f"{self.expected['ideal_sections']}")
            if r["digest"] != self.expected["ideal_digest"]:
                self.fail(f"ideal_section_set results digest {r['digest']} != "
                          f"{self.expected['ideal_digest']}")
            for f in r["failures"]:
                self.fail(f)
        if self.trace:
            return self.per_layer([r["pass_s"] for r in res], [r["trace"] for r in res])
        _host_speed(self.say, [r["gauge_slice_s"] for r in res])
        call_ms = _per_op_median([r["call_ms"] for r in res])
        ranked = sorted(call_ms)
        p50, p95 = _percentile(ranked, 0.5), _percentile(ranked, 0.95)
        work = (sum(call_ms) + sum(_per_op_median([r["member_ms"] for r in res]))) / 1e3
        self.say(f"ideal.sections_per_s = {len(call_ms) / sum(call_ms) * 1e3:.1f} 1/s "
                 f"({len(call_ms)} pair sets of {len(inputs['valid'])} instances, "
                 f"each the median of {len(res)} passes); "
                 f"call p50 {p50:.4f} ms, p95 {p95:.4f} ms")
        gx = max(len(t.mul) * t.size for t in inputs["valid"])
        return self.end_to_end(res, work, p50, p95, 1.0, gx)

    def ladder(self, inputs):
        work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
        os.makedirs(work, exist_ok=True)
        try:
            return self._ladder(inputs["rungs"], work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(work))
            except OSError:  # another run still uses it
                pass

    def _rung(self, i, rung, work, traced, budget=0.0):
        path = os.path.join(work, f"rung{i}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rung.document)
        job = {"role": "rung", "path": path, "budget_s": budget,
               "memory_mb": REACH_MEMORY_MB, "trace": traced,
               "keep_output": rung.name == "example48"}
        try:
            return _child(job, timeout=budget + 10.0 if budget else CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"outcome": "over-budget", "limit": "killed: no answer to its timer",
                    "report_s": budget, "sizes": {}, "trace": None}
        except ChildFailed as exc:
            return {"outcome": "child-failed", "limit": str(exc), "report_s": 0.0,
                    "sizes": {}, "trace": None}

    def _reach(self, reach, work):
        """Each reach rung once, under its own budget and while the run's
        reach budget lasts; a rung past the latter is not started."""
        out, t0 = [], time.perf_counter()
        for i, rung in reach:
            left = REACH_TOTAL_S - (time.perf_counter() - t0)
            if left < 0.5:
                r = {"outcome": "over-budget", "report_s": 0.0, "sizes": {},
                     "limit": f"not started: the run's reach budget {REACH_TOTAL_S:g} s is used up"}
            else:
                r = self._rung(i, rung, work, False, min(REACH_BUDGET_S, left))
            out.append((rung, r))
        self.attempted += len(reach)
        return out

    def _ladder(self, rungs, work):
        core = [(i, r) for i, r in enumerate(rungs) if r.core]
        reach = [(i, r) for i, r in enumerate(rungs) if not r.core]
        expect = self.expected["core_rungs"]
        golden = _load("example48.report.txt")

        def one_pass(traced):
            out = []
            for i, rung in core:
                res = self._rung(i, rung, work, traced)
                self.attempted += 1
                want = expect[rung.name]
                got = {k: res.get(k) for k in want}
                if res["outcome"] != "decided" or got != want:
                    self.fail(f"core rung {rung.name!r}: {res['outcome']} "
                              f"{res.get('limit', '')} {got} != {want}")
                if "output" in res and res["output"] != golden:
                    self.fail("example48 report --format json differs from the seed's bytes")
                out.append(res)
            return out

        # reach rungs first, so that their time counts against --seconds
        reached = [] if self.trace else self._reach(reach, work)
        res = self.passes(one_pass)
        if self.trace:
            def large(p):
                return [r for (_, rung), r in zip(core, p) if rung.core == "large"]

            untraced = min(sum(r["report_s"] for r in large(p)) for p in res[0::2])
            best = large(min(res[1::2], key=lambda p: sum(r["report_s"] for r in p)))
            self.say(f"large rungs: untraced {untraced:.4f} s; traced "
                     f"{sum(r['report_s'] for r in best):.4f} s, of which top-level stage spans "
                     f"{sum(r['trace']['stage_s'] for r in best):.4f} s")
            return self.per_layer([sum(r["report_s"] for r in p) for p in res],
                                  [_merge([r["trace"] for r in p]) if k % 2 else None
                                   for k, p in enumerate(res)])

        outcomes = [(rung, res[0][k]) for k, (_, rung) in enumerate(core)] + reached
        for rung, r in outcomes:
            sizes = " ".join(f"{k}={v:g}" for k, v in r["sizes"].items())
            verdict = (f"{r['overall']} classes={r['classes']}" if r["outcome"] == "decided"
                       else f"{r.get('limit', '')} {r.get('raised_at', '')}".strip())
            self.say(f"rung {rung.gx:4d} {rung.core or 'reach':5s} {rung.name:46s} "
                     f"{r['outcome']:13s} {r['report_s']:8.3f} s  {verdict} | {sizes}")
        decided = [rung for rung, r in outcomes if r["outcome"] == "decided"]
        stopped = [(rung, r) for rung, r in outcomes if r["outcome"] != "decided"]
        samples: dict[str, list[float]] = {}
        for p in res:
            for (_, rung), r in zip(core, p):
                samples.setdefault(rung.name, []).append(r["report_s"])
        small = sum(statistics.median(samples[rung.name])
                    for _, rung in core if rung.core == "small")
        large = sum(statistics.median(samples[rung.name])
                    for _, rung in core if rung.core == "large")
        raw = sum(r.get("report_raw_s", 0.0) for p in res for r in p) / len(res)
        passes = [{"peak_rss_mb": max(r.get("peak_rss_mb", 0.0) for r in p)} for p in res]
        rss = statistics.median(p["peak_rss_mb"] for p in passes)
        max_gx = max((rung.gx for rung in decided), default=0)
        self.say(f"ladder.small_s = {small:.4f} s, ladder.large_s = {large:.4f} s (each rung "
                 f"the median of {len(res)} passes; "
                 f"a pass took {raw:.4f} s uncorrected, gauge slices excluded)")
        self.say(f"ladder.peak_rss_mb = {rss:.1f} MB, ladder.decided = {len(decided)} "
                 f"of {len(outcomes)}, ladder.max_gx = {max_gx}")
        self.say(f"ops_failed_share = {len(stopped) / len(outcomes):.4f} "
                 f"({len(stopped)} of {len(outcomes)} rungs): " + "; ".join(
                     f"{rung.name}: {r['outcome']} ({r.get('limit', '')})" for rung, r in stopped))
        n_small = sum(1 for _, rung in core if rung.core == "small")
        return self.end_to_end(passes, small + large, small / n_small * 1e3,
                               large / (len(core) - n_small) * 1e3,
                               len(decided) / len(outcomes), max_gx)

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self, res, work_s, typical_ms, heavy_ms, decided_share, max_gx):
        if self.workload != "report-ladder":
            self.say(f"ops_failed_share = {len(self.failures) / max(self.attempted, 1):.4f} "
                     f"({len(self.failures)} of {self.attempted} operations)")
        return {
            "setup_s": (self.setup_s, "s"),
            "work_s": (work_s, "s"),
            "typical_ms": (typical_ms, "ms"),
            "heavy_ms": (heavy_ms, "ms"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in res), "MB"),
            "decided_share": (decided_share, "share"),
            "max_gx_decided": (max_gx, "count"),
        }

    def per_layer(self, pass_s, traces):
        """Per-layer figures of the fastest traced pass; ``pass_s`` and
        ``traces`` list every pass, untraced ones with trace None."""
        untraced_s = min(t for t, tr in zip(pass_s, traces) if tr is None)
        wall, first = min(((t, tr) for t, tr in zip(pass_s, traces) if tr is not None),
                          key=lambda pair: pair[0])
        setup = self.setup_trace
        stage = first["stage_s"]
        overhead = wall / untraced_s - 1.0
        metrics = {}
        self.say(f"{'function':40s} {'calls':>9s} {'self_s':>9s} {'total_s':>9s}  parents")
        for name in traced_names():
            src = setup if name.startswith("instances.") else None
            calls = (src or first)["calls"][name]
            self_s = (src or first)["self_s"][name]
            total = (src or first)["total_s"][name]
            parents = sorted((src or first)["parents"][name].items(), key=lambda kv: -kv[1])
            self.say(f"{name:40s} {calls:9d} {self_s:9.4f} {total:9.4f}  " +
                     ", ".join(f"{p} x{n}" for p, n in parents[:4]))
            metrics[f"{name}.calls"] = (calls, "count")
            if name in COMMON_SELF:
                metrics[f"{name}.self_s"] = (self_s, "s")
        for mod in COMMON_LAYERS:
            metrics[f"layer.{mod}.self_s"] = (
                sum(v for k, v in first["self_s"].items() if k.startswith(mod + ".")), "s")
        for name in CACHED:
            c = first["caches"][name]
            base = c["hits"] + c["misses"]
            ratio = f"{c['hits'] / base:.4f}" if base else "n/a"
            self.say(f"cache {name}: hit ratio {ratio} ({c['hits']} hits of {base} calls)")
            metrics[f"cache.{name}.hits"] = (c["hits"], "count")
            metrics[f"cache.{name}.misses"] = (c["misses"], "count")
        metrics["relations.from_relation.max_n"] = (first["from_relation_max_n"], "count")
        self.say(f"fastest traced pass {wall:.4f} s vs fastest untraced {untraced_s:.4f} s: "
                 f"overhead {overhead:.4f}; top-level stage spans {stage:.4f} s "
                 f"({stage / wall:.4f} of the traced operation time)")
        metrics.update({
            "trace.untraced_s": (untraced_s, "s"),
            "trace.traced_s": (wall, "s"),
            "trace.stage_s": (stage, "s"),
            "trace.overhead_share": (overhead, "share"),
        })
        return metrics


def _host_speed(say, slices) -> None:
    say("host speed: mean gauge slice per pass " +
        ", ".join(f"{s * 1e3:.3f}" for s in slices) + f" ms (nominal {NOMINAL_S * 1e3:g} ms)")


def _merge(snapshots):
    """Sum the traces of the rungs of one ladder pass (one process each)."""
    out = {"calls": {}, "total_s": {}, "self_s": {}, "parents": {}, "stage_s": 0.0,
           "from_relation_max_n": 0, "caches": {n: {"hits": 0, "misses": 0} for n in CACHED}}
    for s in snapshots:
        for key in ("calls", "total_s", "self_s"):
            for k, v in s[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for k, ps in s["parents"].items():
            dst = out["parents"].setdefault(k, {})
            for p, n in ps.items():
                dst[p] = dst.get(p, 0) + n
        for n in CACHED:
            for k in ("hits", "misses"):
                out["caches"][n][k] += s["caches"][n][k]
        out["stage_s"] += s["stage_s"]
        out["from_relation_max_n"] = max(out["from_relation_max_n"], s["from_relation_max_n"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pactop", "__init__.py")):
        print(f"error: no pactop sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        inputs = run.setup()
        measure = {"family-sweep": run.family, "ideal-sweep": run.ideal,
                   "report-ladder": run.ladder}[args.workload]
        metrics = measure(inputs)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = min(len(run.failures), run.attempted)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
