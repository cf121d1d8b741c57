"""Per-layer tracing from outside the library.

``instrument`` wraps, for its duration, every public function and method of
the ``gengk``, ``hybrid``, ``decoupled``, ``uq``, ``problems`` and
``priorcov`` modules, and ``Tracer.operator`` wraps the ``A``/``R``/``Q``
operators handed to the solver.  Each wrapped call records a span
``(id, parent id, thread id, name, start, end)`` while the tracer is
recording; nothing in ``src/`` is edited.  ``layer_metrics`` reduces the
spans of one repetition to the per-layer metrics.

A span's parent is the innermost open span of its own thread.  A span opened
on a thread with no open span (a worker of the decoupled solver's thread
pool) takes as parent the innermost open span of the thread that created the
tracer, which is blocked waiting for that worker.  Self time is a span's
duration minus the part of its interval that its children cover, so
children running concurrently on several threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from dyninv import decoupled, gengk, hybrid, priorcov, problems, uq
from dyninv.linop import LinearOperator

TRACED_MODULES = (gengk, hybrid, decoupled, uq, problems, priorcov)

# spans named "linop.<role>.<kind>"; matrix (multi-column) applications count
# as one call of their kind
OP_KINDS = {"apply": "apply", "_matvec": "apply", "apply_mat": "apply",
            "apply_adjoint": "adjoint", "_rmatvec": "adjoint",
            "apply_adjoint_mat": "adjoint", "solve": "solve", "solve_mat": "solve"}

BASIS_MATRIX = ("gengk.GenGKFactorization.U_matrix",
                "gengk.GenGKFactorization.V_matrix",
                "gengk.GenGKFactorization.QV_matrix")
PROJECTED_SVD = "hybrid.ProjectedProblem.__post_init__"


class Tracer:
    """In-memory spans and counters; thread safe."""

    def __init__(self):
        self.recording = False
        self.spans = []            # (id, parent id or 0, thread id, name, t0, t1)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        if not self.recording:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root[-1] if self._root else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, threading.get_ident(), name, t0, t1))

    def add(self, name: str, value) -> None:
        if self.recording:
            with self._lock:
                self.counts[name] += value

    def operator(self, role: str, op: LinearOperator) -> "TracedOperator":
        return TracedOperator(self, role, op)


class TracedOperator(LinearOperator):
    """Delegates to ``op``, recording each application as a ``linop`` span."""

    def __init__(self, tracer: Tracer, role: str, op: LinearOperator):
        super().__init__(op.rows, op.cols)
        self._tracer = tracer
        self._op = op
        self._names = {m: f"linop.{role}.{k}" for m, k in OP_KINDS.items()}

    def _traced(self, method, arg):
        return self._tracer.call(self._names[method], getattr(self._op, method), arg)

    def apply(self, v):
        return self._traced("apply", v)

    def _matvec(self, v):
        return self._traced("_matvec", v)

    def apply_mat(self, M):
        return self._traced("apply_mat", M)

    def apply_adjoint(self, v):
        return self._traced("apply_adjoint", v)

    def _rmatvec(self, v):
        return self._traced("_rmatvec", v)

    def apply_adjoint_mat(self, M):
        return self._traced("apply_adjoint_mat", M)

    def solve(self, v):
        return self._traced("solve", v)

    def solve_mat(self, M):
        return self._traced("solve_mat", M)

    def diagonal(self):
        return self._op.diagonal()

    def to_dense(self, budget=None):
        return self._op.to_dense(budget)


# ----------------------------------------------------------------------
# Wrapping the library's modules
# ----------------------------------------------------------------------

def _wrap(tracer: Tracer, name: str, fn):
    if name == "hybrid.minimize_over_lambda":
        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            def counted(lam):
                tracer.add("hybrid.lambda_evals", 1)
                return f(lam)
            return tracer.call(name, fn, counted, *args, **kwargs)
    elif name in BASIS_MATRIX:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.call(name, fn, *args, **kwargs)
            tracer.add("gengk.basis_bytes_computed", out.nbytes)
            return out
    elif name == "uq.build_posterior_approx":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.call(name, fn, *args, **kwargs)
            tracer.add("uq.rank", out.rank)
            return out
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
    return traced


def _public_members(module):
    """(owner, attribute, span name) for each public function and method."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, f"{short}.{name}"
        elif inspect.isclass(obj):
            for attr, member in list(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(
                        member, (staticmethod, classmethod)):
                    yield obj, attr, f"{short}.{obj.__name__}.{attr}"


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the traced modules' public functions and methods; restore on exit."""
    targets = [t for m in TRACED_MODULES for t in _public_members(m)]
    targets.append((hybrid.ProjectedProblem, "__post_init__", PROJECTED_SVD))
    saved = []
    try:
        for owner, attr, name in targets:
            orig = vars(owner)[attr]
            if isinstance(orig, (staticmethod, classmethod)):
                wrapped = type(orig)(_wrap(tracer, name, orig.__func__))
            else:
                wrapped = _wrap(tracer, name, orig)
            saved.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------

def _covered(t0: float, t1: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [t0, t1]."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times (s) of the spans recorded by ``tracer``."""
    children = defaultdict(list)
    for _, parent, _, _, t0, t1 in tracer.spans:
        children[parent].append((t0, t1))
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    longest = defaultdict(float)
    top = defaultdict(float)   # spans with no enclosing span
    for sid, parent, _, name, t0, t1 in tracer.spans:
        calls[name] += 1
        busy[name] += t1 - t0
        self_s[name] += t1 - t0 - _covered(t0, t1, children.get(sid, ()))
        longest[name] = max(longest[name], t1 - t0)
        if parent == 0:
            top[name.split(".", 1)[0]] += t1 - t0
    gen = [n for n in busy if n.startswith("problems.gen_")]
    dec_wall = busy["decoupled.decoupled_solve"]
    out = {}
    for op in ("A.apply", "A.adjoint", "Q.apply", "R.solve"):
        out[f"linop.{op}.calls"] = calls[f"linop.{op}"]
        out[f"linop.{op}.s"] = busy[f"linop.{op}"]
    out.update({
        "gengk.steps": calls["gengk.gengk_step"],
        "gengk.step.s": busy["gengk.gengk_step"],
        "gengk.step.self_s": self_s["gengk.gengk_step"],
        "gengk.basis_matrix.calls": sum(calls[n] for n in BASIS_MATRIX),
        "gengk.basis_matrix.s": sum(busy[n] for n in BASIS_MATRIX),
        "gengk.basis_bytes_computed": tracer.counts["gengk.basis_bytes_computed"],
        "hybrid.select_lambda.calls": calls["hybrid.select_lambda"],
        "hybrid.select_lambda.s": busy["hybrid.select_lambda"],
        "hybrid.lambda_evals": tracer.counts["hybrid.lambda_evals"],
        "hybrid.projected_svd.count": calls[PROJECTED_SVD],
        "hybrid.projected_svd.s": busy[PROJECTED_SVD],
        "hybrid.solve.self_s": self_s["hybrid.genhybr_solve"],
        "decoupled.build_plan.s": busy["decoupled.build_plan"],
        "decoupled.subproblems": calls["decoupled.solve_subproblem"],
        "decoupled.solve_subproblem.s": busy["decoupled.solve_subproblem"],
        "decoupled.solve_subproblem.max_s": longest["decoupled.solve_subproblem"],
        "decoupled.recombine.s": busy["decoupled.recombine"],
        "decoupled.overlap": (busy["decoupled.solve_subproblem"] / dec_wall
                              if dec_wall else 0.0),
        "uq.build_posterior_approx.s": busy["uq.build_posterior_approx"],
        "uq.variance_diag.s": (self_s["uq.variance_diag"]
                               + self_s["uq.decoupled_variance_diag"]),
        "uq.rank": tracer.counts["uq.rank"],
        "problems.generate.s": sum(busy[n] for n in gen),
        "priorcov.build.s": top["priorcov"],
        "problems.save_instance.s": busy["problems.save_instance"],
        "problems.load_instance.s": busy["problems.load_instance"],
    })
    return out
