"""Span recording for the traced run.

Wrappers are installed around the solver package's public names exactly where
the calling module looks them up (`dp.evaluate_platoon`, `cli.load_instance`,
...), so the program itself is untouched and the untraced run carries no
tracing cost. Spans live in memory as (name, start, end, parent, note) and are
written out once, when the run ends.
"""

import json
import time


def _members(args, kwargs, result):
    return len(args[0])


def _array_bytes(args, kwargs, result):
    return sum(v.nbytes for v in vars(result).values())


def _updates(args, kwargs, result):
    return result[3]


def layer_targets(pc):
    """(holder, attribute, span name, note) for every traced boundary.

    `pc` is a namespace holding the solver package's modules.
    """
    solvers = (("solve_dp_ls", "solve.dp-ls"), ("solve_dp_nls", "solve.dp-nls"),
               ("solve_spontaneous", "solve.spontaneous"),
               ("solve_fixed_interval", "solve.fixed-interval"))
    return [
        (pc.scenario, "generate", "scenario.generate", None),
        (pc.scenario, "save_instance", "scenario.save_instance", None),
        (pc.cli, "load_instance", "scenario.load_instance", None),
        (pc.cli, "save_solution", "scenario.save_solution", None),
        (pc.cli, "prepare_fleet", "discretize.prepare_fleet", None),
        (pc.cli, "main", "cli.main", None),
        *[(pc.cli, attr, name, None) for attr, name in solvers],
        (pc.dp, "run_dp", "dp.run_dp", None),
        (pc.dp, "fleet_arrays", "kernels.fleet_arrays", _array_bytes),
        (pc.dp, "leader_draw_bits", "kernels.leader_draw_bits", None),
        (pc.dp, "run_dp_kernel", "kernels.run_dp_kernel", _updates),
        (pc.dp, "evaluate_platoon", "utility.evaluate_platoon", _members),
        (pc.baselines, "evaluate_platoon", "utility.evaluate_platoon", _members),
        (pc.solution.Solution, "from_platoons", "solution.from_platoons", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            # The slot is reserved first so that children can name it as their
            # parent; it is filled with a tuple of atoms, which the garbage
            # collector stops tracking, so kept spans do not slow collections.
            k = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(k)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[k] = (name, start, end, parent, None)
            if note is not None:
                spans[k] = (name, start, end, parent, note(args, kwargs, result))
            return result

        return traced

    def install(self, targets):
        for holder, attr, name, note in targets:
            raw = holder.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, note))
            else:
                wrapped = self._wrap(raw, name, note)
            self._saved.append((holder, attr, raw))
            setattr(holder, attr, wrapped)

    def uninstall(self):
        while self._saved:
            holder, attr, raw = self._saved.pop()
            setattr(holder, attr, raw)

    def call(self, name, fn, *args):
        """Run `fn` under a span of its own."""
        return self._wrap(fn, name, None)(*args)

    def summarize(self, first):
        """Per span name, over spans from index `first` on: [calls, total s,
        self s, note sum]."""
        spans = self.spans
        child = [0.0] * (len(spans) - first)
        for name, start, end, parent, _ in spans[first:]:
            if parent >= first:
                child[parent - first] += end - start
        out = {}
        for k, (name, start, end, _, note) in enumerate(spans[first:]):
            agg = out.setdefault(name, [0, 0.0, 0.0, 0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[k]
            agg[3] += note or 0
        return out

    def write(self, path, origin):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, note in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, note]))
                fh.write("\n")
