"""One measuring process: set-up, one cold pass, or one ladder rung.

``run.py`` starts this script once per job, sends the job as a pickle on
standard input and reads one JSON object from the last line of standard
output.  Each job runs in a fresh interpreter, so every engine cache starts
empty, as it does for a user who runs the engine once.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import resource
import signal
import sys
import time
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.dirname(os.path.abspath(__file__))]

from gauge import Gauge  # noqa: E402


class BudgetExceeded(BaseException):
    """Raised by the timer of a reach rung; a BaseException so that no
    engine ``except Exception`` can swallow it."""


def _peak_rss_mb() -> float:
    """Peak RSS of this process image.  ``getrusage`` is not used: on Linux
    its ``ru_maxrss`` also covers the parent's RSS at fork time."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _tracer(enabled: bool):
    if not enabled:
        return None
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _snapshot(tracer):
    return tracer.snapshot() if tracer is not None else None


def setup(job: dict) -> dict:
    clock = time.perf_counter
    with Gauge(not job["trace"]) as gauge:
        t0 = clock()
        import pactop

        t1 = clock()
        if not os.path.abspath(pactop.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"pactop imported from {pactop.__file__}, not from {SRC}")
        import inputs

        tracer = _tracer(job["trace"])
        t2 = clock()
        workload, seed = job["workload"], job["seed"]
        if workload == "family-sweep":
            data = inputs.family_inputs(seed)
        elif workload == "ideal-sweep":
            data = inputs.ideal_inputs(seed)
        else:
            with open(os.path.join(SRC, "pactop", "data", "example48.json"),
                      encoding="utf-8") as fh:
                example = fh.read()
            data = {"rungs": inputs.ladder_inputs(seed, example)}
        t3 = clock()
    return {"import_s": t1 - t0, "gen_s": t3 - t2, "setup_s": gauge.corrected(t0, t3),
            "inputs": data, "trace": _snapshot(tracer)}


def _stage_list(P, pa) -> list:
    """The reports ``pactop report`` computes, in ``cli._cmd_report`` order;
    each returned report must pass."""
    reports = [P.validate(pa)]
    if not reports[0].ok:
        return reports
    glob = P.build(pa)
    reports += [P.embedding_report(glob), P.hat_relation_report(glob), P.effros_report(pa),
                P.orbit_consistency_report(pa), P.transform_identities_report(pa)]
    P.separation(glob.topology)
    sel = P.normalized_selector(pa)
    brep = P.transversal_topology(glob, sel)
    _, cont = P.action_continuity_table(glob, brep)
    reports += [brep.report, cont, P.bireducibility_report(glob, sel),
                P.orbit_homeomorphism_report(pa)]
    P.transversal(sel)
    return reports


def family(job: dict) -> dict:
    import pactop as P
    from inputs import FromTables

    to_engine = FromTables()
    valid = [to_engine(t) for t in job["inputs"]["valid"]]
    mutants = [(kind, to_engine(t)) for kind, t in job["inputs"]["mutants"]]
    tracer = _tracer(job["trace"])
    clock = time.perf_counter
    failures, valid_t, mutant_t = [], [], []
    with Gauge(not job["trace"]) as gauge:
        t_pass = clock()
        for i, pa in enumerate(valid):
            t0 = clock()
            try:
                reports = _stage_list(P, pa)
            except Exception as exc:  # an engine defect fails this instance, not the run
                reports, error = [], f"{type(exc).__name__}: {exc}"
            else:
                error = None
            valid_t.append((t0, clock()))
            bad = error or next((r.name for r in reports if not r.ok), None)
            if bad:
                failures.append(f"valid instance {i}: {bad}")
        for i, (kind, m) in enumerate(mutants):
            t0 = clock()
            rep = P.validate(m)
            mutant_t.append((t0, clock()))
            if rep.ok or not any(c.witness for _, c in rep.failures()):
                failures.append(f"{kind} mutant {i} not rejected with a witness")
        pass_s = clock() - t_pass
    return {"valid_ms": [gauge.corrected(a, b) * 1e3 for a, b in valid_t],
            "mutant_ms": [gauge.corrected(a, b) * 1e3 for a, b in mutant_t],
            "pass_s": pass_s, "gauge_slice_s": gauge.mean_slice(), "failures": failures,
            "peak_rss_mb": _peak_rss_mb(), "trace": _snapshot(tracer)}


def ideal(job: dict) -> dict:
    import pactop as P
    from inputs import FromTables

    to_engine = FromTables()
    valid = [to_engine(t) for t in job["inputs"]["valid"]]
    tracer = _tracer(job["trace"])
    clock = time.perf_counter
    failures, member_t, members = [], [], 0
    # preallocated, so that the samples do not weigh on the peak RSS:
    # the start and the end of call k are call_t[2k] and call_t[2k + 1]
    total = sum(1 << t.size ** 2 for t in job["inputs"]["valid"])
    call_t, sections = array("d", bytes(16 * total)), bytearray(total)
    calls, starts = 0, []
    with Gauge(not job["trace"]) as gauge:
        t_pass = clock()
        for i, pa in enumerate(valid):
            t0 = clock()
            for x in pa.space.points():
                members += 1
                if P.ideal_member(pa, x, P.orbit(pa, x)) is not False:
                    failures.append(f"instance {i}: orbit of point {x} small in its own ideal")
            member_t.append((t0, clock()))
            starts.append(calls)
            try:
                for pairs in range(1 << pa.space.size ** 2):
                    call_t[2 * calls] = clock()
                    sections[calls] = P.ideal_section_set(pa, pairs)
                    call_t[2 * calls + 1] = clock()
                    calls += 1
            except Exception as exc:  # an engine defect fails this instance, not the run
                failures.append(f"instance {i}: {type(exc).__name__}: {exc}")
        pass_s = clock() - t_pass
    rss = _peak_rss_mb()
    # every instance's results in pair-set order, keyed by its tables and
    # summed, so the digest does not depend on the seeded instance order
    digest = 0
    for t, lo, hi in zip(job["inputs"]["valid"], starts, starts[1:] + [calls]):
        h = hashlib.blake2b(repr(t).encode() + bytes(sections[lo:hi]), digest_size=8)
        digest += int.from_bytes(h.digest(), "big")
    fix = gauge.corrected
    return {"call_ms": [fix(call_t[2 * k], call_t[2 * k + 1]) * 1e3 for k in range(calls)],
            "members": members, "member_ms": [fix(a, b) * 1e3 for a, b in member_t],
            "pass_s": pass_s, "gauge_slice_s": gauge.mean_slice(), "failures": failures,
            "peak_rss_mb": rss,
            "digest": f"{digest % (1 << 64):016x}", "trace": _snapshot(tracer)}


def rung(job: dict) -> dict:
    """Run ``pactop report`` on one document in this process, the way its
    user runs it, and classify how it ended."""
    budget = job["budget_s"]
    if budget:
        limit = job["memory_mb"] << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        def expire(signum, frame):
            raise BudgetExceeded

        signal.signal(signal.SIGALRM, expire)
    from pactop import cli
    from pactop.errors import PactopError

    tracer = _tracer(job["trace"])
    seen = {}

    def capture(name, fn):
        def call(*args, **kwargs):
            seen[name] = out = fn(*args, **kwargs)
            return out
        return call

    # keep the returned objects for the size counters; no timing here
    cli.build = capture("glob", cli.build)
    cli.transversal_topology = capture("brep", cli.transversal_topology)
    out, err = io.StringIO(), io.StringIO()
    result = {"outcome": "decided"}
    # reach rungs are timed only against their budget, so run ungauged
    with Gauge(not job["trace"] and not budget) as gauge:
        t0 = time.perf_counter()
        try:
            if budget:
                signal.setitimer(signal.ITIMER_REAL, budget)
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(["report", job["path"], "--format", "json"])
        except BudgetExceeded:
            result = {"outcome": "over-budget", "limit": f"time budget {budget:g} s"}
        except MemoryError:
            result = {"outcome": "over-budget", "limit": f"memory budget {job['memory_mb']} MB"}
        except PactopError as exc:
            result = {"outcome": "typed-error", "limit": f"{type(exc).__name__}: {exc}",
                      "exit": 1}
        except Exception as exc:
            frames = [f"{os.path.basename(f.filename)[:-3]}.{f.name}:{f.lineno}"
                      for f in traceback.extract_tb(exc.__traceback__)
                      if f.filename.startswith(SRC)]
            result = {"outcome": "untyped-error", "limit": f"{type(exc).__name__}: {exc}",
                      "raised_at": " > ".join(frames[-3:]), "exit": 1}
        else:
            result["exit"] = code
            if code not in (0, 1):
                result["outcome"] = "exit-code"
                result["limit"] = f"exit {code}: {err.getvalue().strip()[:200]}"
        finally:
            if budget:
                signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
    result["report_s"] = gauge.corrected(t0, t1)
    result["report_raw_s"] = t1 - t0
    result["trace"] = _snapshot(tracer)
    if result["outcome"] == "decided":
        payload = json.loads(out.getvalue())
        result["overall"] = payload["overall"]
        result["classes"] = len(payload["data"].get("classes", ()))
        if job["keep_output"]:
            result["output"] = out.getvalue()
    with open(job["path"], "rb") as fh:
        spec = cli.parse(fh.read())
    sizes = {"G": spec.pa.group.order, "X": spec.pa.space.size,
             "product_points": spec.pa.group.order * spec.pa.space.size,
             "space_opens": len(spec.pa.space.opens)}
    glob, brep = seen.get("glob"), seen.get("brep")
    if glob is not None:
        sizes.update(product_opens=len(glob.product.opens),
                     quotient_opens=len(glob.topology.opens), classes=glob.num_classes)
    else:
        sizes["product_opens_needed"] = float(len(spec.pa.space.opens) ** spec.pa.group.order)
    if brep is not None:
        sizes["transversal_opens"] = len(brep.tau.opens)
    result.update(sizes=sizes, peak_rss_mb=_peak_rss_mb())
    return result


ROLES = {"setup": setup, "family-sweep": family, "ideal-sweep": ideal, "rung": rung}

if __name__ == "__main__":
    job = pickle.load(sys.stdin.buffer)
    result = ROLES[job["role"]](job)
    if job["role"] == "setup":
        sys.stdout.buffer.write(pickle.dumps(result))
    else:
        print(json.dumps(result))
