"""Spans around the public pactop functions, recorded from outside.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the
wrapper under every name that refers to the original in a pactop module
namespace (``from .topology import product`` included), so calls between
engine modules are seen too.  Each span records its parent span; self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time

# module -> public functions timed by the traced run; the end-to-end
# figure each one should move is in the per-layer table of README.md
TRACED = {
    "cli": ("parse",),
    "paction": ("validate", "orbit_consistency_report", "lifted_action",
                "orbit_equivalence", "acting_set", "pair_action"),
    "globalize": ("build", "embedding_report", "hat_relation_report", "effros_report"),
    "selector": ("normalized_selector", "transversal_topology",
                 "orbit_homeomorphism_report", "bireducibility_report",
                 "action_continuity_table"),
    "vaught": ("transform_identities_report", "ideal_section_set", "ideal_member",
               "star_transform"),
    "topology": ("product_with_discrete", "product", "quotient", "subspace",
                 "borel_algebra", "discrete", "is_meager_in", "minimal_neighborhoods"),
    "relations": ("from_relation",),
    "instances": ("induced_family", "mutant_family"),
}

# lru-cached functions whose public cache_info() gives hit counts
CACHED = ("topology.minimal_neighborhoods", "paction.pair_action")

ROOT = "-"


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.parents: dict[str, dict[str, int]] = {}
        self.max_n = 0  # largest carrier handed to relations.from_relation
        self.stage_s = 0.0  # time inside top-level spans
        self._stack: list[list] = []  # [name, time covered by children]
        self._originals: dict[str, object] = {}

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pactop" or name.startswith("pactop."))]
        for mod, fns in TRACED.items():
            owner = sys.modules[f"pactop.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                orig = getattr(owner, fn)
                self._originals[name] = orig
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)

    def _wrap(self, name: str, fn):
        calls, total, self_time = self.calls, self.total, self.self_time
        parents = self.parents.setdefault(name, {})
        stack = self._stack
        clock = time.perf_counter
        calls[name] = 0
        total[name] = self_time[name] = 0.0
        sized = name == "relations.from_relation"

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else ROOT
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                else:
                    self.stage_s += dt
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - frame[1]
                parents[parent] = parents.get(parent, 0) + 1
                if sized and args and args[0] > self.max_n:
                    self.max_n = args[0]

        span.__wrapped__ = fn
        return span

    def snapshot(self) -> dict:
        caches = {}
        for name in CACHED:
            info = self._originals[name].cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "parents": {k: dict(v) for k, v in self.parents.items()},
            "caches": caches,
            "from_relation_max_n": self.max_n,
            "stage_s": self.stage_s,
        }
