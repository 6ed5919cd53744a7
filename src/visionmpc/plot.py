"""Minimal static SVG rendering of a trial: route, corridor, obstacles,
driven path, and the reconstructed desired path at three instants."""

from pathlib import Path

from .controllers import PipelineConfig, lvd_desired_path, speed_capped
from .geometry import offset_polyline
from .scene import SceneDynamics
from .sim import Scenario, TrialOutcome
from .vehicle import VehicleState

_W = 800


class _Canvas:
    def __init__(self, xmin, ymin, xmax, ymax):
        pad = 0.4
        self.xmin, self.ymin = xmin - pad, ymin - pad
        self.xmax, self.ymax = xmax + pad, ymax + pad
        span_x = self.xmax - self.xmin
        span_y = self.ymax - self.ymin
        self.scale = _W / span_x
        self.h = max(int(span_y * self.scale), 40)
        self.parts = []

    def pt(self, x, y):
        return (x - self.xmin) * self.scale, (self.ymax - y) * self.scale

    def polyline(self, points, color, width=2.0, dash=None):
        coords = " ".join(f"{px:.1f},{py:.1f}" for px, py in (self.pt(x, y) for x, y in points))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{width}"{dash_attr}/>'
        )

    def circle(self, x, y, r, color):
        px, py = self.pt(x, y)
        self.parts.append(
            f'<circle cx="{px:.1f}" cy="{py:.1f}" r="{r * self.scale:.1f}" fill="{color}" fill-opacity="0.6"/>'
        )

    def text(self, x, y, s):
        px, py = self.pt(x, y)
        self.parts.append(f'<text x="{px:.1f}" y="{py:.1f}" font-size="12">{s}</text>')

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{self.h}" '
            f'viewBox="0 0 {_W} {self.h}">\n<rect width="100%" height="100%" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


def render_trial_svg(path, scenario: Scenario, outcome: TrialOutcome, pipeline: PipelineConfig) -> None:
    route = scenario.route_polyline
    left = offset_polyline(route, scenario.half_width)
    right = offset_polyline(route, -scenario.half_width)
    xs = [p[0] for p in scenario.route] + [rec.x_m for rec in outcome.log]
    ys = [p[1] for p in scenario.route] + [rec.y_m for rec in outcome.log]
    canvas = _Canvas(min(xs), min(ys), max(xs), max(ys))
    canvas.polyline(scenario.route, "#888888", width=1.5, dash="6,4")
    canvas.polyline(left.tolist(), "#333333", width=1.0)
    canvas.polyline(right.tolist(), "#333333", width=1.0)
    for obstacle in scenario.obstacles:
        cx, cy = obstacle.center
        canvas.circle(cx, cy, obstacle.radius, "#cc4444")
    if outcome.log:
        canvas.polyline([(rec.x_m, rec.y_m) for rec in outcome.log], "#2266cc", width=2.5)
        # desired path reconstructed from the logged scene pair at 3 instants;
        # a row logs the pose after its control, so row k's pair was chosen at poses[k]
        poses = [scenario.start] + [VehicleState(rec.x_m, rec.y_m, rec.rho_rad) for rec in outcome.log]
        n = len(outcome.log)
        limits = speed_capped(pipeline.nmpc, scenario)
        for frac in (0.25, 0.5, 0.75):
            k = min(int(frac * n), n - 1)
            rec, state = outcome.log[k], poses[k]
            try:
                dyn = SceneDynamics(rec.c, min(max(rec.w, 0.0), 1.0))
                s0, _ = route.project((state.x, state.y))
                z_d = lvd_desired_path(route, s0, dyn, state, limits)
                canvas.polyline(z_d[:2].T, "#22aa55", width=1.5, dash="3,3")
            except ValueError:
                continue
    gx, gy = scenario.route[-1]
    canvas.circle(gx, gy, scenario.goal_radius, "#ddddff")
    canvas.text(scenario.route[0][0], scenario.route[0][1], f"{scenario.name}: {outcome.status}")
    Path(path).write_text(canvas.render())
