"""Outside-in tracer for the hjreduce package.

The layers are the package modules.  ``Tracer.install`` wraps every
public function, every public method and every ``__call__`` of the
public classes each layer defines.  A module-level function is rebound
in the module that defines it and in every other module that bound it
with ``from ... import``; a method is replaced on its class.  Nothing
inside the package changes, and ``uninstall`` puts every original back.

What is kept, all in memory until the run ends:

* self time per layer: a wrapped call's duration minus the time spent
  in wrapped calls it made (time in unwrapped helpers stays with the
  caller's layer);
* per key, the number of calls and the time of outermost calls (a call
  made while another call with the same key is active adds to the count
  but not to the time, so recursion is not counted twice);
* these aggregates separately for each parent: the innermost active
  coarse span of the current job;
* one span record per coarse boundary (the job's command, and the
  stages named in ``COARSE``), with start, end and parent span;
* the roots of outermost ``differentiate`` results, for node counts
  taken after each job.

Calls to expression evaluation and root solves run into the hundreds
of thousands per job, so they are never recorded one by one.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "expr", "phase_space", "symmetry", "reduction", "hj",
          "reconstruction", "integrators")

# Several functions can feed one key; a key's time counts outermost calls.
ALIASES = {
    "hj.ImplicitBranchRoot.solve": "hj.root_solve",
    "hj.RunningIntegral.__call__": "hj.running_integral",
    "hj.hj_residual": "hj.grid_sweep",
    "hj.closedness_residual": "hj.grid_sweep",
    "hj.check_complete": "hj.grid_sweep",
    "expr.Expr.evaluate": "expr.evaluate",
    "phase_space.hamiltonian_vector_field": "phase_space.vector_field",
    "integrators.ImplicitMap.__call__": "integrators.map_step",
}

# Keys whose nested calls are neither counted nor timed: recursion
# inside them is an implementation detail, the outermost call is the work.
OUTERMOST_ONLY = frozenset({"expr.differentiate"})

# Stages that get a span record and become the parent of what they call.
COARSE = frozenset({"hj.solve_reduced_1d", "reconstruction.lift_report",
                    "phase_space.flow_reference", "integrators.run_scheme",
                    "integrators.transform_to_equilibrium"})

# Cheap helpers called from inside every expression operation; wrapping
# them would mostly measure the wrapper.  Their time stays with the caller.
SKIP = frozenset({"expr.as_expr", "expr.add", "expr.sub", "expr.mul",
                  "expr.div", "expr.power", "expr.neg", "expr.call",
                  "expr.free_vars", "expr.Expr.free_vars"})

# (outer key, inner key): count inner calls made while outer is active.
NESTED = ("hj.running_integral", "hj.root_solve")

PACKAGE = "hjreduce"


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.depth = {}
        self.stack = []            # [child_time] per active wrapped call
        self.aggregates = {}       # parent label -> key -> [calls, outer_s]
        self.spans = []            # dicts, see _open_span
        self.span_stack = []       # indices into spans
        self.current = None        # aggregate dict of the innermost span
        self.nested_calls = 0
        self.deriv_roots = []
        self.table_nodes = 0
        self._restore = []
        self._clock = time.perf_counter

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        everywhere = [m for n, m in sys.modules.items()
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    qual = f"{layer}.{name}"
                    if qual in SKIP:
                        continue
                    wrapper = self._wrap(obj, layer, qual)
                    for other in everywhere:
                        for bound, value in list(vars(other).items()):
                            if value is obj:
                                self._restore.append((other, bound, obj))
                                setattr(other, bound, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if attr.startswith("_") and attr != "__call__":
                            continue
                        qual = f"{layer}.{name}.{attr}"
                        if qual in SKIP:
                            continue
                        self._restore.append((obj, attr, fn))
                        setattr(obj, attr, self._wrap(fn, layer, qual))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- spans -------------------------------------------------------------

    def begin_job(self, index, label):
        """Open the span of one job; its label parents what it calls."""
        self._open_span(label, job=index)

    def end_job(self):
        self._close_span()

    def _open_span(self, label, job=None):
        parent = self.span_stack[-1] if self.span_stack else None
        if job is None and parent is not None:
            job = self.spans[parent]["job"]
            label = f"{self.spans[parent]['label']}/{label}"
        self.spans.append({"name": label.rsplit("/", 1)[-1], "label": label,
                           "job": job, "parent": parent,
                           "start": self._clock(), "end": None})
        self.span_stack.append(len(self.spans) - 1)
        self.current = self.aggregates.setdefault(label, {})

    def _close_span(self):
        idx = self.span_stack.pop()
        self.spans[idx]["end"] = self._clock()
        self.current = (self.aggregates[self.spans[self.span_stack[-1]]["label"]]
                        if self.span_stack else None)

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, fn, layer, qual):
        key = ALIASES.get(qual, qual)
        outermost_only = key in OUTERMOST_ONLY
        coarse = key in COARSE
        nested_outer = NESTED[0] if key == NESTED[1] else None
        on_result = {"expr.differentiate": self._keep_derivative,
                     "hj.solve_reduced_1d": self._count_table}.get(key)
        tracer = self
        clock = self._clock
        depth = self.depth
        stack = self.stack
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            d = depth.get(key, 0)
            if outermost_only and d:
                return fn(*args, **kwargs)
            if nested_outer is not None and depth.get(nested_outer, 0):
                tracer.nested_calls += 1
            if coarse:
                tracer._open_span(key)
            depth[key] = d + 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[key] = d
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if coarse:
                    tracer._close_span()
                agg = tracer.current
                if agg is not None:
                    rec = agg.get(key)
                    if rec is None:
                        rec = agg[key] = [0, 0.0]
                    rec[0] += 1
                    if not d:
                        rec[1] += dt
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _keep_derivative(self, result):
        self.deriv_roots.append(result)

    def _count_table(self, result):
        self.table_nodes += int(result.table.ys.size)

    # -- results -----------------------------------------------------------

    def totals(self):
        """key -> [calls, outer_s] summed over every parent."""
        out = {}
        for per_key in self.aggregates.values():
            for key, (calls, secs) in per_key.items():
                rec = out.setdefault(key, [0, 0.0])
                rec[0] += calls
                rec[1] += secs
        return out

    def take_derivatives(self):
        roots, self.deriv_roots = self.deriv_roots, []
        return roots


def node_counts(roots, expr_type):
    """(tree nodes, distinct node objects) over a list of expressions.

    Tree size counts a shared subexpression once per use; the distinct
    count counts each object once, so their ratio shows sharing.  Both
    are computed with memoized sizes, so a shared DAG costs linear time.
    """
    size = {}
    tree_total = 0
    for root in roots:
        todo = [(root, False)]
        while todo:
            node, expanded = todo.pop()
            if id(node) in size:
                continue
            kids = _children(node, expr_type)
            if expanded or not kids:
                size[id(node)] = 1 + sum(size[id(k)] for k in kids)
                continue
            todo.append((node, True))
            todo.extend((k, False) for k in kids if id(k) not in size)
        tree_total += size[id(root)]
    return tree_total, len(size)


def _children(node, expr_type):
    kids = []
    for cls in type(node).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            value = getattr(node, slot, None)
            if isinstance(value, tuple):
                kids.extend(v for v in value if isinstance(v, expr_type))
            elif isinstance(value, expr_type):
                kids.append(value)
    return kids
