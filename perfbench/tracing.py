"""Per-frame CPU timing and the traced run's spans, recorded from outside.

``StepTimer`` wraps a ``Tracker.step_*`` method and records the process
CPU time (and, for reference, the wall time) of every call.  ``Tracer``
wraps public functions under the names their callers look them up by,
records one span per call (name, start, end, parent, phase), counts calls
of the small geometry helpers, and turns all of it into per-layer numbers.
Spans are kept in memory and written once, when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from lidartrack import cli, evaluation, flow, formats, joint, mapping, pnp, synth, tracker

clock = time.process_time


def _length(result):
    return {"n": len(result)}


def _valid_px(result):
    return {"n": int(result.valid.sum())}


def _iterations(result):
    return {"n": result.iterations}


def _ransac(result):
    return {"n": result.hypotheses, "inliers": int(result.inliers.sum()),
            "base": len(result.inliers)}


# (owner, attribute, span name, observer of the returned value)
SPANS = [
    (tracker, "crop_local", "mapping.crop_local", _length),
    (tracker, "render_depth", "rendering.render_depth", None),
    (flow, "render_depth", "rendering.render_depth", None),
    (tracker, "remove_occlusions", "rendering.remove_occlusions", _valid_px),
    (flow, "remove_occlusions", "rendering.remove_occlusions", _valid_px),
    (tracker, "oracle_flows", "flow.oracle_flows", None),
    (tracker, "oracle_depth_flow", "flow.oracle_depth_flow", None),
    (flow, "oracle_depth_flow", "flow.oracle_depth_flow", None),
    (tracker, "correspondences_from_flow", "pnp.correspondences_from_flow", _length),
    (tracker, "solve_pnp_ransac", "pnp.solve_pnp_ransac", _ransac),
    (pnp, "refine_pose", "pnp.refine_pose", _iterations),
    (tracker, "optimize_pair", "joint.optimize_pair", _iterations),
    (joint, "optimize_pair", "joint.optimize_pair", _iterations),
    (tracker, "optimize_next_only", "joint.optimize_next_only", None),
    (synth, "generate_scene", "synth.generate_scene", None),
    (cli, "generate_scene", "synth.generate_scene", None),
    (mapping.GlobalMap, "build", "mapping.build_map", None),
    (mapping, "downsample", "mapping.build_map", None),
    (cli, "downsample", "mapping.build_map", None),
    (formats, "save_xyz", "formats.save_xyz", None),
    (formats, "load_cloud", "formats.load_cloud", None),
    (evaluation, "save_trajectory", "cli.write_outputs", None),
    (cli, "write_diagnostics_csv", "cli.write_outputs", None),
    (cli, "_write_manifest", "cli.write_outputs", None),
]

# helpers too small to span: only their calls are counted
COUNTS = [
    (pnp, "se3_exp", "geometry.se3_exp"),
    (joint, "se3_exp", "geometry.se3_exp"),
    (pnp, "reprojection_jacobian", "geometry.reprojection_jacobian"),
    (joint, "reprojection_jacobian", "geometry.reprojection_jacobian"),
]

STEP = "tracker.step"
NAME, START, END, PARENT, PHASE = range(5)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, phase]
        self.stack = []
        self.phase = "setup"
        self.calls = defaultdict(int)   # counted helpers, per phase
        self.observed = defaultdict(lambda: defaultdict(float))
        self.enabled = False
        self._saved = []

    # -- spans ----------------------------------------------------------------

    def open(self, name) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.phase]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = clock()
        return span

    def close(self, span):
        span[END] = clock()
        self.stack.pop()

    def _span_wrapper(self, fn, name, observe):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                obs = self.observed[(self.phase, name)]
                obs["returns"] += 1
                for key, value in observe(result).items():
                    obs[key] += value
            return result
        return traced

    def _count_wrapper(self, fn, name):
        def counted(*args, **kwargs):
            self.calls[(self.phase, name)] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing the wrappers ----------------------------------------------

    def enable(self):
        assert not self.enabled
        for owner, attr, name, observe in SPANS:
            self._patch(owner, attr, lambda fn, n=name, o=observe: self._span_wrapper(fn, n, o))
        for owner, attr, name in COUNTS:
            self._patch(owner, attr, lambda fn, n=name: self._count_wrapper(fn, n))
        self.enabled = True

    def disable(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.enabled = False

    def _patch(self, owner, attr, make):
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"clock": "process_time", "fields": ["name", "start", "end", "parent", "phase"],
                       "spans": self.spans}, fh)


class StepTimer:
    """Times every call of one ``Tracker`` step method; roots the traced spans."""

    def __init__(self, cls, method: str, tracer: Tracer | None = None):
        self.cls, self.method, self.tracer = cls, method, tracer
        self.cpu_ms = []      # one entry per step call
        self.wall_ms = []
        self.traced = []      # whether the step ran with the tracer enabled
        self.succeeded = 0
        self._original = vars(cls)[method]

    def install(self):
        original, tracer = self._original, self.tracer

        def timed(*args, **kwargs):
            root = tracer.open(STEP) if tracer is not None and tracer.enabled else None
            w0, c0 = time.perf_counter(), clock()
            result = original(*args, **kwargs)
            c1, w1 = clock(), time.perf_counter()
            if root is not None:
                tracer.close(root)
            self.cpu_ms.append(1e3 * (c1 - c0))
            self.wall_ms.append(1e3 * (w1 - w0))
            self.traced.append(root is not None)
            self.succeeded += int(result[1] is not None)
            return result

        setattr(self.cls, self.method, timed)

    def uninstall(self):
        setattr(self.cls, self.method, self._original)


def _self_times(spans):
    durations = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, durations):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    return durations, durations - child


def _outermost(spans):
    """Whether each span has no ancestor of its own name."""
    out = []
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


def layer_metrics(tracer: Tracer, setups: int, commands: int, overhead_ms: float):
    """Per-layer metrics from the spans; returns (metrics, self-time check)."""
    spans = tracer.spans
    durations, selfs = _self_times(spans)
    outer = _outermost(spans)
    frames = sum(1 for s in spans if s[NAME] == STEP)

    def select(name, phase):
        return [i for i, s in enumerate(spans) if s[NAME] == name and s[PHASE] == phase]

    def inclusive_ms(name, phase, per):
        return 1e3 * sum(durations[i] for i in select(name, phase) if outer[i]) / max(per, 1)

    def self_ms(names):
        return 1e3 * sum(selfs[i] for n in names for i in select(n, "loop")) / max(frames, 1)

    def calls(name):
        return len(select(name, "loop")) / max(frames, 1)

    def mean(name, key="n"):
        obs = tracer.observed[("loop", name)]
        return obs[key] / obs["returns"] if obs["returns"] else 0.0

    ransac = tracer.observed[("loop", "pnp.solve_pnp_ransac")]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("mapping.crop_local.ms", inclusive_ms("mapping.crop_local", "loop", frames), "ms/frame")
    put("mapping.crop_local.calls", calls("mapping.crop_local"), "calls/frame")
    put("mapping.crop_points", mean("mapping.crop_local"), "points/call")
    put("mapping.build_map.ms", inclusive_ms("mapping.build_map", "setup", setups), "ms/setup")
    put("synth.generate_scene.ms", inclusive_ms("synth.generate_scene", "setup", setups), "ms/setup")
    put("rendering.render_depth.ms", inclusive_ms("rendering.render_depth", "loop", frames), "ms/frame")
    put("rendering.render_depth.calls", calls("rendering.render_depth"), "calls/frame")
    put("rendering.remove_occlusions.ms",
        inclusive_ms("rendering.remove_occlusions", "loop", frames), "ms/frame")
    put("rendering.remove_occlusions.calls", calls("rendering.remove_occlusions"), "calls/frame")
    put("rendering.valid_px", mean("rendering.remove_occlusions"), "px/call")
    put("flow.oracle.self_ms", self_ms(["flow.oracle_flows", "flow.oracle_depth_flow"]), "ms/frame")
    put("flow.oracle_depth_flow.calls", calls("flow.oracle_depth_flow"), "calls/frame")
    put("pnp.correspondences_from_flow.ms",
        inclusive_ms("pnp.correspondences_from_flow", "loop", frames), "ms/frame")
    put("pnp.correspondences", mean("pnp.correspondences_from_flow"), "corr/call")
    put("pnp.solve_pnp_ransac.self_ms", self_ms(["pnp.solve_pnp_ransac"]), "ms/frame")
    put("pnp.solve_pnp_ransac.calls", calls("pnp.solve_pnp_ransac"), "calls/frame")
    put("pnp.ransac_hypotheses", mean("pnp.solve_pnp_ransac"), "hyp/call")
    put("pnp.inlier_ratio", ransac["inliers"] / ransac["base"] if ransac["base"] else 0.0, "ratio")
    put("pnp.inlier_ratio.base", mean("pnp.solve_pnp_ransac", "base"), "corr/call")
    put("pnp.refine_pose.ms", inclusive_ms("pnp.refine_pose", "loop", frames), "ms/frame")
    put("pnp.refine_pose.calls", calls("pnp.refine_pose"), "calls/frame")
    put("pnp.refine_iters", mean("pnp.refine_pose"), "iters/call")
    put("joint.optimize_pair.ms", inclusive_ms("joint.optimize_pair", "loop", frames), "ms/frame")
    put("joint.optimize_pair.calls", calls("joint.optimize_pair"), "calls/frame")
    put("joint.optimize_next_only.calls", calls("joint.optimize_next_only"), "calls/frame")
    put("joint.lm_iters", mean("joint.optimize_pair"), "iters/call")
    put("geometry.se3_exp.calls",
        tracer.calls[("loop", "geometry.se3_exp")] / max(frames, 1), "calls/frame")
    put("geometry.reprojection_jacobian.calls",
        tracer.calls[("loop", "geometry.reprojection_jacobian")] / max(frames, 1), "calls/frame")
    put("tracker.step.self_ms", self_ms([STEP]), "ms/frame")
    put("formats.save_xyz.ms", inclusive_ms("formats.save_xyz", "setup", setups), "ms/setup")
    put("formats.load_cloud.ms", inclusive_ms("formats.load_cloud", "setup", setups), "ms/setup")
    put("cli.write_outputs.ms", inclusive_ms("cli.write_outputs", "loop", commands), "ms/cmd")
    put("trace.overhead_ms", overhead_ms, "ms/frame")

    # every span inside a step belongs to one layer; their self times must
    # add up to the steps' own durations
    step_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        step_of[i] = i if s[NAME] == STEP else (step_of[s[PARENT]] if s[PARENT] >= 0 else -1)
    by_layer = defaultdict(float)
    for i, s in enumerate(spans):
        if step_of[i] >= 0:
            by_layer[s[NAME].split(".")[0]] += selfs[i]
    step_total = sum(durations[i] for i, s in enumerate(spans) if s[NAME] == STEP)
    check = {
        "frames": frames,
        "layers_ms_per_frame": {k: 1e3 * v / max(frames, 1) for k, v in sorted(by_layer.items())},
        "step_ms_per_frame": 1e3 * step_total / max(frames, 1),
        "residual_s": abs(sum(by_layer.values()) - step_total),
        "min_self_s": float(selfs.min()) if len(selfs) else 0.0,
    }
    return m, check
