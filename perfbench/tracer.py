"""In-memory span tracer for the traced benchmark run.

The tracer replaces each layer's public functions, at the module or class
attribute where the caller looks them up, with a timing wrapper. Spans are
kept in a list and summarised after the run; nothing is written while the
workload executes. `uninstall` restores every original attribute.
"""

import functools
import json
import time

import numpy as np

from visionmpc import baselines, controllers, memory, metrics, nmpc, policy, sim, training

# (owner, attribute, span name). A function imported into several modules
# is wrapped at each lookup site under one span name.
WRAP_SITES = (
    (sim, "sense", "sim.sense"),
    (training, "sense", "sim.sense"),
    (sim, "sim_step", "sim.sim_step"),
    (training, "sim_step", "sim.sim_step"),
    (controllers, "reference_slice", "sim.reference_slice"),
    (memory.AugmentedMemory, "push", "memory.push"),
    (memory.AugmentedMemory, "window", "memory.window"),
    (controllers, "featurize", "policy.featurize"),
    (controllers, "select_dynamics", "policy.select"),
    (training, "train_step", "policy.train_step"),
    (policy.ReplayBuffer, "sample", "policy.replay_sample"),
    (controllers, "desired_trajectory", "scene.desired_trajectory"),
    (controllers, "dynamics_from_trajectory", "scene.dynamics_fit"),
    (nmpc, "solve", "nmpc.solve"),
    (nmpc, "rollout", "vehicle.rollout"),
    (controllers, "dwa_plan", "baselines.dwa_plan"),
    (controllers, "obstacle_points_from_observation", "baselines.obstacle_points"),
    (controllers, "direct_policy_step", "baselines.direct_step"),
    (controllers.LvdNmpcController, "step", "controllers.step"),
    (controllers.DwaNmpcController, "step", "controllers.step"),
    (controllers.DirectController, "step", "controllers.step"),
    (training, "train", "training.train"),
    (metrics, "aggregate", "metrics.aggregate"),
)

# what a span keeps of its call's return value, by span name; other spans
# keep nothing, so the trace holds no observations or trajectories
PROBES = {"nmpc.solve": lambda sol: (sol.iterations, sol.converged)}

# mean duration per call, in ms, of each span name
MEAN_MS = {
    "sim.sense_ms": "sim.sense",
    "sim.sim_step_ms": "sim.sim_step",
    "sim.reference_slice_ms": "sim.reference_slice",
    "memory.push_ms": "memory.push",
    "memory.window_ms": "memory.window",
    "policy.featurize_ms": "policy.featurize",
    "policy.select_ms": "policy.select",
    "policy.train_step_ms": "policy.train_step",
    "policy.replay_sample_ms": "policy.replay_sample",
    "scene.desired_trajectory_ms": "scene.desired_trajectory",
    "scene.dynamics_fit_ms": "scene.dynamics_fit",
    "nmpc.solve_ms": "nmpc.solve",
    "vehicle.rollout_ms": "vehicle.rollout",
    "baselines.dwa_plan_ms": "baselines.dwa_plan",
    "baselines.obstacle_points_ms": "baselines.obstacle_points",
    "baselines.direct_step_ms": "baselines.direct_step",
    "controllers.step_ms": "controllers.step",
    "metrics.aggregate_ms": "metrics.aggregate",
}


def span_cost_s(calls: int = 20000) -> float:
    """Mean seconds a traced call adds to a bare one, timed on a no-op."""

    def noop():
        return None

    traced = Tracer()._wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - t0 - bare_s, 0.0) / calls


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "result")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0  # time covered by the wrapped calls directly below
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the sites in WRAP_SITES while installed and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals = []

    def install(self) -> None:
        for owner, attr, name in WRAP_SITES:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    span.result = probe(result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                spans.append(span)

        return traced

    def write_spans(self, path) -> None:
        """One JSON object per span, in order of completion: id, parent id
        (null at the top), name, and start and end in perf_counter seconds."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                parent = ids[id(s.parent)] if s.parent is not None else None
                row = {"id": i, "parent": parent, "name": s.name, "start": s.start, "end": s.end}
                fh.write(json.dumps(row) + "\n")

    def summary(self, loop_steps: int, deadline_s: float) -> tuple[dict, dict]:
        """Per-layer metrics and the call count behind each of them.

        loop_steps is the number of steps the `train` spans ran. A layer
        that the workload never calls reads 0 with count 0.
        """
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
        values: dict[str, float] = {}
        counts: dict[str, int] = {}

        def mean_ms(xs):
            return 1e3 * float(np.mean(xs)) if xs else 0.0

        for metric, name in MEAN_MS.items():
            group = by_name.get(name, [])
            values[metric] = mean_ms([s.duration for s in group])
            counts[metric] = len(group)

        steps = by_name.get("controllers.step", [])
        n_steps = len(steps)
        values["controllers.self_ms"] = mean_ms([s.duration - s.child_s for s in steps])
        counts["controllers.self_ms"] = n_steps
        late = sum(1 for s in steps if s.duration > deadline_s)
        values["controllers.deadline_miss_pct"] = 100.0 * late / n_steps if n_steps else 0.0
        counts["controllers.deadline_miss_pct"] = n_steps

        slices = len(by_name.get("sim.reference_slice", []))
        values["sim.reference_slice_per_step"] = slices / n_steps if n_steps else 0.0
        counts["sim.reference_slice_per_step"] = slices

        solves = by_name.get("nmpc.solve", [])
        iters = [s.result[0] for s in solves if s.result is not None]
        converged = sum(1 for s in solves if s.result is not None and s.result[1])
        values["nmpc.solves_per_step"] = len(solves) / n_steps if n_steps else 0.0
        counts["nmpc.solves_per_step"] = len(solves)
        values["nmpc.iters_mean"] = float(np.mean(iters)) if iters else 0.0
        counts["nmpc.iters_mean"] = len(iters)
        values["nmpc.iters_p95"] = float(np.percentile(iters, 95)) if iters else 0.0
        counts["nmpc.iters_p95"] = len(iters)
        values["nmpc.converged_pct"] = 100.0 * converged / len(solves) if solves else 0.0
        counts["nmpc.converged_pct"] = len(solves)

        loops = by_name.get("training.train", [])
        loop_self_s = sum(s.duration - s.child_s for s in loops)
        values["training.loop_self_ms"] = 1e3 * loop_self_s / loop_steps if loops and loop_steps else 0.0
        counts["training.loop_self_ms"] = loop_steps if loops else 0
        return values, counts
