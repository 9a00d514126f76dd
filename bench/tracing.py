"""Per-layer timing by wrapping the program's functions where callers look them up.

Nothing in the package is edited: each traced function is replaced, for
the life of the process, in the module namespace its callers read it from
(``ibkernel.qpsolve.solve_kkt`` rather than ``ibkernel.linalg.solve_kkt``,
because qpsolve imported the name). A wrapper records a call count and the
function's self time: its duration minus the time spent in traced
functions it called. Counts read from return values and exceptions are
recorded at the same boundaries.
"""

import contextlib
import importlib
import time
from collections import Counter, defaultdict

# (metric name, lookup sites as (module, attribute path)).
TRACED = (
    ("ibops.sample_field", (("ibkernel.ibops", "sample_field"),)),
    ("ibops.support_stencil", (("ibkernel.ibops", "support_stencil"),)),
    ("ibops.interpolate", (("ibkernel.ibops", "interpolate"),)),
    ("ibops.spread", (("ibkernel.ibops", "spread"),)),
    ("ibops.KernelStrategy.kernel_for", (("ibkernel.ibops", "KernelStrategy.kernel_for"),)),
    ("onesided.classify_side", (("ibkernel.onesided", "classify_side"),)),
    ("onesided.restrict_weights", (("ibkernel.onesided", "restrict_weights"),)),
    ("onesided.generate_one_sided_kernel", (("ibkernel.ibops", "generate_one_sided_kernel"),)),
    ("kernels.assemble_system", (("ibkernel.onesided", "assemble_system"),)),
    ("qpsolve.solve_generating_qp", (("ibkernel.onesided", "solve_generating_qp"),)),
    ("qpsolve.solve_eq_qp", (("ibkernel.qpsolve", "solve_eq_qp"),)),
    ("qpsolve.phase1_feasible", (("ibkernel.qpsolve", "phase1_feasible"),)),
    ("qpsolve.solve_box_qp", (("ibkernel.qpsolve", "solve_box_qp"),)),
    ("qpsolve.solve_soft_qp", (("ibkernel.qpsolve", "solve_soft_qp"),)),
    ("linalg.solve_kkt", (("ibkernel.qpsolve", "solve_kkt"),)),
    ("linalg.solve_spd", (("ibkernel.qpsolve", "solve_spd"), ("ibkernel.linalg", "solve_spd"))),
)

# Counts read at the boundaries; solve_box_qp's include the calls
# solve_soft_qp makes to it.
COUNTS = (
    "qpsolve.phase1_feasible.infeasible",
    "qpsolve.solve_box_qp.iterations",
    "qpsolve.solve_box_qp.fast_path",
    "qpsolve.solve_box_qp.active_bounds",
    "qpsolve.solve_soft_qp.iterations",
    "qpsolve.raised.MaxIterationsExceeded",
    "qpsolve.raised.RankDeficientConstraints",
)


def _observe_phase1(counts, report):
    counts["qpsolve.phase1_feasible.infeasible"] += int(not report.feasible)


def _observe_box(counts, sol):
    counts["qpsolve.solve_box_qp.iterations"] += sol.iterations
    counts["qpsolve.solve_box_qp.fast_path"] += int(
        sol.iterations == 1 and not sol.active_set)
    counts["qpsolve.solve_box_qp.active_bounds"] += len(sol.active_set)


def _observe_soft(counts, sol):
    counts["qpsolve.solve_soft_qp.iterations"] += sol.iterations


OBSERVE_RETURN = {
    "qpsolve.phase1_feasible": _observe_phase1,
    "qpsolve.solve_box_qp": _observe_box,
    "qpsolve.solve_soft_qp": _observe_soft,
}
# Exceptions are counted where they leave the solver layer, once per kernel.
OBSERVE_RAISE = "qpsolve.solve_generating_qp"


class Tracer:
    """Call counts, self times and solver counts for the functions in TRACED."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.missing = []
        self._child_s = []          # time in traced callees, one slot per open call
        self._active = True
        self._restore = []

    def _wrap(self, name, fn):
        observe = OBSERVE_RETURN.get(name)

        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if name == OBSERVE_RAISE:
                    self.counts[f"qpsolve.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                self.calls[name] += 1
                self.self_s[name] += elapsed - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
            if observe is not None:
                observe(self.counts, out)
            return out

        return wrapper

    def install(self):
        """Replace every lookup site that exists; record the ones that do not."""
        for name, sites in TRACED:
            for module_name, path in sites:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                setattr(owner, attr, self._wrap(name, original))
                self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def metrics(self):
        out = {}
        for name, _ in TRACED:
            out[f"{name}.calls"] = {"value": self.calls[name], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_s[name], "unit": "s"}
        for name in COUNTS:
            out[name] = {"value": self.counts[name], "unit": "count"}
        return out
