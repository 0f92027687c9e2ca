"""Per-layer tracing of tdsim from outside the package.

`Tracer.install` rebinds module attributes (`jump.ssa_simulate`,
`analysis.orbit_extrema`, `cli.write_dataset`, ...) to wrappers that record a
span per call: name, start, end, parent span and job.  tdsim looks these
names up at call time, so the wrappers see every call.  Where a module
imported a function by name (`ode.field_closure`, `analysis.jacobian`), every
binding of the same function object in the package is replaced.  Spans stay in
memory; `layer_metrics` turns them into per-job figures after the run.

`ode.field_closure` gets a counting closure instead of a span per call: the
`bifurcate` workload evaluates the field millions of times.
"""
from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# Functions that get a span, per module.  `cli.main` keeps argument parsing
# and row building as its self time, so the `cmd_*` functions are not wrapped.
SPANNED = {
    "model": ("vector_field", "jacobian", "channel_rates"),
    "micro": ("micro_simulate", "generator_matrix", "lumped_density_generator",
              "density_generator", "reversibility_residual", "gibbs_measure"),
    "jump": ("ssa_simulate", "sup_distance"),
    "ode": ("integrate", "integrate_linear"),
    "analysis": ("scan", "classify", "orbit_extrema", "symmetric_spectrum",
                 "fixed_point_branch", "convergence_experiment", "z_system"),
    "cli": ("main", "write_dataset"),
}
# Integrator loops whose result gives the accepted step count (count only).
STEP_PATHS = ("_rk4_path", "_rk45_path")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    job: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _ssa_attrs(args, kwargs, traj):
    return {"events": traj.meta["events"], "k": args[0].k, "rows": len(traj)}


def _micro_attrs(args, kwargs, traj):
    return {"events": max(len(traj) - 2, 0)}  # every event plus start and end rows


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "rows": len(args[3])}


def _classify_attrs(args, kwargs, record):
    return {"oscillatory": record.classification == "oscillatory"}


ATTRS = {
    "jump.ssa_simulate": _ssa_attrs,
    "micro.micro_simulate": _micro_attrs,
    "cli.write_dataset": _write_attrs,
    "analysis.classify": _classify_attrs,
}


class Tracer:
    """Spans of the traced jobs, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job: int | None = None
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append(Span(name, time.perf_counter(),
                               self.stack[-1] if self.stack else None, self.job))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def run_job(self, job: int, fn):
        """Run ``fn()`` as job ``job`` under a root span whose self time is glue."""
        self.job = job
        idx = self._open("job")
        try:
            return fn()
        finally:
            self._close(idx)
            self.job = None

    def _spanned(self, name: str, fn):
        attrs = ATTRS.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs is not None:
                self.spans[idx].attrs.update(attrs(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_field_closure(self, fn):
        def field_closure(spec):
            f = fn(spec)
            calls = [0]
            if self.stack:
                self.spans[self.stack[-1]].attrs.setdefault("f_eval_cells", []).append(calls)

            def counted(y):
                calls[0] += 1
                return f(y)

            return counted

        return field_closure

    def _counting_steps(self, fn):
        def path(*args, **kwargs):
            ts, ys, fs = fn(*args, **kwargs)
            if self.stack:
                attrs = self.spans[self.stack[-1]].attrs
                attrs["steps"] = attrs.get("steps", 0) + len(ts) - 1
            return ts, ys, fs

        return path

    # -- installing --------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every tdsim module attribute bound to ``original`` at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tdsim" and not mod_name.startswith("tdsim."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        from tdsim import model, ode, trajectory

        for mod_name, names in SPANNED.items():
            module = sys.modules[f"tdsim.{mod_name}"]
            for name in names:
                original = getattr(module, name)
                self._rebind(original, self._spanned(f"{mod_name}.{name}", original))
        self._rebind(model.field_closure, self._counting_field_closure(model.field_closure))
        for name in STEP_PATHS:
            original = getattr(ode, name)
            self._rebind(original, self._counting_steps(original))
        cls = trajectory.Trajectory
        self._undo.append((cls, "hermite_at", cls.hermite_at))
        cls.hermite_at = self._spanned("trajectory.hermite_at", cls.hermite_at)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, traced_job_s: list[float], untraced_job_s: list[float]):
    """Per-layer figures per traced job.

    Also returns each span name's self-time share of the traced job, the
    figures that show self times add up to the traced job time, and the
    per-call counts of the first traced job, which repeat exactly at a seed.
    """
    own = tracer.self_times()
    jobs = sorted({s.job for s in tracer.spans if s.job is not None})

    def per_job(name, value=lambda i, s: own[i], where=lambda s: True):
        """Median over jobs of the per-job sum of ``value`` over matching spans."""
        sums = dict.fromkeys(jobs, 0.0)
        for i, s in enumerate(tracer.spans):
            if s.name == name and s.job is not None and where(s):
                sums[s.job] += value(i, s)
        return _median(list(sums.values()))

    def calls(name, where=lambda s: True):
        return per_job(name, lambda i, s: 1, where)

    def attr(name, key, where=lambda s: True):
        return per_job(name, lambda i, s: s.attrs.get(key, 0), where)

    def duration(name, where=lambda s: True):
        return per_job(name, lambda i, s: s.end - s.start, where)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    k3 = lambda s: s.attrs.get("k") == 3  # noqa: E731
    kgen = lambda s: s.attrs.get("k") != 3  # noqa: E731
    osc = lambda s: s.attrs.get("oscillatory", False)  # noqa: E731
    other = lambda s: not s.attrs.get("oscillatory", False)  # noqa: E731
    f_evals = per_job("ode.integrate", lambda i, s: sum(c[0] for c in s.attrs.get(
        "f_eval_cells", ())))
    steps = attr("ode.integrate", "steps")
    sup_calls = calls("jump.sup_distance")

    m = {
        "jump.ssa_simulate.calls": calls("jump.ssa_simulate"),
        "jump.ssa_simulate.events": attr("jump.ssa_simulate", "events"),
        "jump.ssa_simulate.self_s": per_job("jump.ssa_simulate"),
        "jump.ssa_simulate.us_per_event.k3": ratio(
            per_job("jump.ssa_simulate", where=k3),
            attr("jump.ssa_simulate", "events", k3), 1e6),
        "jump.ssa_simulate.us_per_event.kgen": ratio(
            per_job("jump.ssa_simulate", where=kgen),
            attr("jump.ssa_simulate", "events", kgen), 1e6),
        "jump.ssa_simulate.rows_recorded": attr("jump.ssa_simulate", "rows"),
        "jump.sup_distance.calls": sup_calls,
        "jump.sup_distance.self_s": per_job("jump.sup_distance"),
        "jump.sup_distance.ms_per_call": ratio(per_job("jump.sup_distance"), sup_calls, 1e3),
        "micro.micro_simulate.events": attr("micro.micro_simulate", "events"),
        "micro.micro_simulate.us_per_event": ratio(
            per_job("micro.micro_simulate"), attr("micro.micro_simulate", "events"), 1e6),
        "ode.integrate.calls": calls("ode.integrate"),
        "ode.integrate.self_s": per_job("ode.integrate"),
        "ode.integrate.steps_accepted": steps,
        "ode.integrate.us_per_step": ratio(per_job("ode.integrate"), steps, 1e6),
        "ode.integrate.f_evals": f_evals,
        "ode.integrate.f_evals_per_step": ratio(f_evals, steps),
        "analysis.classify.osc_s_per_point": ratio(
            duration("analysis.classify", osc), calls("analysis.classify", osc)),
        "analysis.classify.other_ms_per_point": ratio(
            duration("analysis.classify", other), calls("analysis.classify", other), 1e3),
        "analysis.orbit_extrema.self_s": per_job("analysis.orbit_extrema"),
        "analysis.convergence_experiment.self_s": per_job("analysis.convergence_experiment"),
        "trajectory.hermite_at.self_s": per_job("trajectory.hermite_at"),
        "cli.write_dataset.self_s": per_job("cli.write_dataset"),
        "cli.write_dataset.bytes": attr("cli.write_dataset", "bytes"),
        "cli.write_dataset.us_per_row": ratio(
            per_job("cli.write_dataset"), attr("cli.write_dataset", "rows"), 1e6),
        "cli.main.self_s": per_job("cli.main"),
        "trace.overhead_frac": ratio(_median(traced_job_s), _median(untraced_job_s)) - 1.0,
    }
    for name in ("generator_matrix", "lumped_density_generator", "density_generator",
                 "reversibility_residual"):
        m[f"micro.{name}.self_s"] = per_job(f"micro.{name}")

    names = sorted({s.name for s in tracer.spans})
    shares = {name: ratio(per_job(name), _median(traced_job_s)) for name in names}
    closure = {
        "traced_job_s": sum(traced_job_s),
        "self_sum_s": sum(own[i] for i, s in enumerate(tracer.spans) if s.job is not None),
        "glue_s": sum(own[i] for i, s in enumerate(tracer.spans) if s.name == "job"),
        "jobs": len(jobs),
    }
    first = [s for s in tracer.spans if s.job == jobs[0]] if jobs else []
    counts = {
        f"{name}.{key}": [s.attrs.get(key, 0) for s in first if s.name == name]
        for name, key in (("jump.ssa_simulate", "events"), ("jump.ssa_simulate", "rows"),
                          ("micro.micro_simulate", "events"), ("ode.integrate", "steps"),
                          ("cli.write_dataset", "rows"), ("cli.write_dataset", "bytes"))
    }
    counts["ode.integrate.f_evals"] = [sum(c[0] for c in s.attrs.get("f_eval_cells", ()))
                                       for s in first if s.name == "ode.integrate"]
    return m, shares, closure, counts


def kernel_timings(seed: int = 20150415, states: int = 2000, passes: int = 5) -> dict:
    """µs per call of the per-state kernels on a fixed, seeded batch of inputs."""
    from tdsim import analysis, model

    rng = np.random.default_rng(seed)
    xs = list(rng.uniform(0.0, 1.0, size=(states, 3)))
    params = [(float(J), float(d)) for J, d in zip(rng.uniform(-3, 3, states),
                                                   rng.uniform(0, 1, states))]
    spec = model.LoopSpec.with_half_j(J=2.5, delta=0.0, N=1)
    f = model.field_closure(spec)
    cases = {
        "model.field_closure.us_per_call": lambda: [f(x) for x in xs],
        "model.vector_field.us_per_call": lambda: [model.vector_field(spec, x) for x in xs],
        "model.jacobian.us_per_call": lambda: [model.jacobian(spec, x) for x in xs],
        "analysis.symmetric_spectrum.us_per_call": lambda: [
            analysis.symmetric_spectrum(J, d) for J, d in params],
    }
    out = {}
    for name, batch in cases.items():
        times = []
        for _ in range(passes):
            start = time.perf_counter()
            batch()
            times.append(time.perf_counter() - start)
        out[name] = statistics.median(times) / states * 1e6
    return out
