"""In-memory span tracer wrapped around the public functions of aqctensor.

The tracer never edits the package: `Tracer.install()` replaces each traced
function, under every module attribute that refers to it, with a wrapper that
records a span, and puts the originals back on exit. Rebinding the attribute
is enough for every call site, because the package reaches these functions
either through a name imported into the caller's module (`pipeline` imports
`tebd_evolve`, `minimize`, `cost_and_gradient`, ...; `cost` imports
`ansatz_ops` and `adjoint_ops`) or through the `mpslib.` module attribute
(`cost`, `ansatz`, `hamiltonian`), and `mps` calls `canonicalize` and
`inner_product` through its own module globals. Code outside the package
must call a traced function through its module for the call to be seen.

A span is (name, parent, start, end). Self times are derived after the run:
a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

from aqctensor import ansatz, cost, hamiltonian, mps, optimize

#: span name -> (defining module, function name). `adjoint_ops` and
#: `normalize` are traced so that their time counts as a child of the
#: gradient, not as its self time.
TRACED = {
    "optimize": (optimize, "minimize"),
    "cost.sweep": (cost, "cost_local_truncated"),
    "cost.grad": (cost, "cost_and_gradient"),
    "ansatz.ops": (ansatz, "ansatz_ops"),
    "ansatz.adjoint_ops": (ansatz, "adjoint_ops"),
    "ansatz.apply": (ansatz, "apply_ansatz"),
    "ansatz.init": (ansatz, "trotter_initialize"),
    "hamiltonian.tebd": (hamiltonian, "tebd_evolve"),
    "mps.two_site": (mps, "apply_two_site_gate"),
    "mps.single_site": (mps, "apply_single_site_gate"),
    "mps.canonicalize": (mps, "canonicalize"),
    "mps.inner_product": (mps, "inner_product"),
    "mps.normalize": (mps, "normalize"),
}

#: nearest ancestor span -> sweep kind that truncation is attributed to
DISCARD_KINDS = {
    "hamiltonian.tebd": "tebd",
    "cost.sweep": "cost",
    "cost.grad": "grad",
    "ansatz.apply": "fidelity",
}


class Tracer:
    """Spans of one traced call, kept in parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        # two-site gate spans: index -> (svd rows, svd cols, kept chi, discarded weight)
        self.gates: dict[int, tuple[int, int, int, float]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        two_site = name == "mps.two_site"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = time.perf_counter()
            self.starts.append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if two_site:
                self._record_gate(idx, args, kwargs, out)
            return out

        return wrapper

    def _record_gate(self, idx: int, args: tuple, kwargs: dict, out) -> None:
        psi_in = args[0] if args else kwargs["psi"]
        site = args[2] if len(args) > 2 else kwargs["left_site"]
        left, right = out.tensors[site], out.tensors[site + 1]
        # the SVD input is (chi_l * 2) x (2 * chi_r); chi_l, chi_r survive in the output
        self.gates[idx] = (2 * left.shape[0], 2 * right.shape[2], left.shape[2],
                           out.discarded_weight - psi_in.discarded_weight)

    @contextmanager
    def install(self):
        """Trace every TRACED function for the duration of the block."""
        patched = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "aqctensor" or key.startswith("aqctensor."))]
        try:
            for name, (home, attr) in TRACED.items():
                original = getattr(home, attr)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patched.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    # --- derived quantities ------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        own = self.durations()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def ancestor(self, idx: int, names) -> str | None:
        """Name of the nearest ancestor span whose name is in `names`."""
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] in names:
                return self.names[parent]
            parent = self.parents[parent]
        return None


def layer_metrics(tr: Tracer, records: list) -> dict[str, float]:
    """Per-layer counts and seconds of one traced call.

    records is the optimizer trace the call returned (empty when the workload
    does not optimize). Each `minimize` call opens its trace with a record of
    the starting point, which is not an iteration; the report's own
    `optimization["iterations"]` subtracts the number of schedule phases
    instead, and so undercounts when a phase does not run.
    """
    dur = tr.durations()
    own = tr.self_times()
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for name, d, o in zip(tr.names, dur, own):
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + o

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return secs.get(name, 0.0)

    def per_call(name):
        return s(name) / n(name) if n(name) else 0.0

    iterations = len(records) - n("optimize")
    line_search = sum(1 for i, name in enumerate(tr.names)
                      if name == "cost.sweep" and tr.parents[i] >= 0
                      and tr.names[tr.parents[i]] == "optimize")
    discarded = {kind: 0.0 for kind in DISCARD_KINDS.values()}
    svd_work = 0
    max_chi = 0
    for idx, (rows, cols, keep, dw) in tr.gates.items():
        svd_work += rows * cols * min(rows, cols)
        max_chi = max(max_chi, keep)
        kind = tr.ancestor(idx, DISCARD_KINDS)
        if kind is not None:
            discarded[DISCARD_KINDS[kind]] += dw
    sweep_per_call = per_call("cost.sweep")
    return {
        "optimize.iterations": iterations,
        "optimize.cost_evals": line_search,
        "optimize.evals_per_iter": line_search / iterations if iterations else 0.0,
        "optimize.fallbacks": sum(1 for r in records if r.note == "line_search_fallback"),
        "optimize.self_s": self_s.get("optimize", 0.0),
        "cost.sweep_calls": n("cost.sweep"),
        "cost.sweep_s": s("cost.sweep"),
        "cost.grad_calls": n("cost.grad"),
        "cost.grad_s": s("cost.grad"),
        "cost.grad_self_s": self_s.get("cost.grad", 0.0),
        "cost.grad_over_sweep": per_call("cost.grad") / sweep_per_call if sweep_per_call else 0.0,
        "ansatz.ops_calls": n("ansatz.ops"),
        "ansatz.ops_s": s("ansatz.ops"),
        "ansatz.init_s": s("ansatz.init"),
        "hamiltonian.tebd_calls": n("hamiltonian.tebd"),
        "hamiltonian.tebd_s": s("hamiltonian.tebd"),
        "mps.two_site_calls": n("mps.two_site"),
        "mps.two_site_s": s("mps.two_site"),
        "mps.two_site_self_s": self_s.get("mps.two_site", 0.0),
        "mps.two_site_us_per_call": 1e6 * per_call("mps.two_site"),
        "mps.svd_work": svd_work,
        "mps.max_chi": max_chi,
        "mps.single_site_calls": n("mps.single_site"),
        "mps.single_site_s": s("mps.single_site"),
        "mps.canonicalize_calls": n("mps.canonicalize"),
        "mps.canonicalize_s": s("mps.canonicalize"),
        "mps.inner_product_calls": n("mps.inner_product"),
        "mps.inner_product_s": s("mps.inner_product"),
        **{f"mps.discarded.{kind}": value for kind, value in discarded.items()},
    }
