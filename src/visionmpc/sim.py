"""Deterministic 2D goal-navigation simulator.

A scenario is a polyline route with a corridor half-width, circular
obstacles (static, or moving along a waypoint loop at constant speed), a
start pose, and a ray sensor. The vehicle is a point: a trial crashes when
it enters an obstacle or leaves the corridor, and succeeds when it comes
within the goal radius of the final waypoint.

Scenario file format (one `key value...` statement per line, `#` comments):

    format_version 1
    name straight_corridor          # optional
    track_half_width_m 0.6
    v_max_mps 1.0
    goal_radius_m 0.3
    time_limit_s 30.0
    seed 3
    start_pose 0.0 0.0 0.0          # x_m y_m rho_rad
    sensor_fov_deg 360              # optional; must be 360
    sensor_resolution_deg 2
    sensor_max_range_m 3.0
    waypoint_m 0.0 0.0              # repeated, at least 2
    obstacle_static_m 2.0 0.15 0.12 # cx cy radius
    obstacle_dynamic_m 0.1 0.25 4.0 0.3 4.0 -0.3   # radius speed x1 y1 x2 y2 ...
    wheelbase_m 0.36                # optional model overrides
    dt_s 0.05                       # must equal the controller's nmpc.dt
    state_noise_std 0.0

`closed_loop` is the one sense -> control -> step loop: `run_trial` logs
it for evaluation and `training.train` learns from it. Trial logs are CSV
with one column per `StepRecord` field, in field order (`LOG_COLUMNS`);
each row holds the state reached after applying the logged control.
"""

import csv
import math
import time
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional, Protocol

import numpy as np

from .geometry import Polyline, offset_polyline, ray_circle_hits, ray_segment_hits
from .memory import Observation
from .nmpc import NmpcError
from .vehicle import ControlInput, ModelParams, VehicleState, step_true


def ray_bearings(n_rays: int) -> np.ndarray:
    """Bearings of a full fan of n_rays counter-clockwise from the heading, for the sensor and every scan reader."""
    return np.arange(n_rays) * (2.0 * math.pi / n_rays)


@dataclass(frozen=True)
class RaySensorConfig:
    """Ray fan geometry: a full 360 degree fan, one ray every resolution_deg."""

    resolution_deg: float = 2.0
    max_range_m: float = 3.0

    def __post_init__(self):
        if self.max_range_m <= 0.0:
            raise ValueError("max_range_m must be positive")
        if self.resolution_deg <= 0.0:
            raise ValueError("resolution_deg must be positive")
        ratio = 360.0 / self.resolution_deg
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("resolution_deg must divide 360")

    @property
    def n_rays(self) -> int:
        return int(round(360.0 / self.resolution_deg))


@dataclass(frozen=True)
class Obstacle:
    """Circle, either static or looping through waypoints at constant speed."""

    center: tuple[float, float]
    radius: float
    loop: Optional[tuple[tuple[float, float], ...]] = None
    speed: float = 0.0

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("obstacle radius must be positive")
        if self.speed < 0.0:
            raise ValueError("obstacle speed must be non-negative")
        if self.loop is not None and len(self.loop) < 2:
            raise ValueError("a dynamic obstacle loop needs at least 2 waypoints")

    @property
    def dynamic(self) -> bool:
        return self.loop is not None and self.speed > 0.0

    @cached_property
    def loop_polyline(self) -> Polyline:
        """Closed waypoint loop, built on first use; not part of equality."""
        pts = list(self.loop)
        if pts[0] != pts[-1]:
            pts.append(pts[0])
        return Polyline(pts)

    def position_at(self, t: float) -> tuple[float, float]:
        if not self.dynamic:
            return self.center
        loop = self.loop_polyline
        s = (self.speed * t) % loop.length
        return loop.point_at(s)


@dataclass(frozen=True)
class Scenario:
    """One goal-navigation task."""

    route: tuple[tuple[float, float], ...]
    half_width: float
    start: VehicleState
    goal_radius: float
    v_max: float
    sensor: RaySensorConfig
    obstacles: tuple[Obstacle, ...] = ()
    time_limit_s: float = 30.0
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self):
        if len(self.route) < 2:
            raise ValueError("route needs at least 2 waypoints")
        if self.goal_radius <= 0.0:
            raise ValueError("goal_radius must be positive")
        if self.v_max <= 0.0:
            raise ValueError("v_max must be positive")
        if self.half_width <= 0.0:
            raise ValueError("half_width must be positive")
        if self.time_limit_s < 0.0:
            raise ValueError("time_limit_s must be non-negative")

    @cached_property
    def route_polyline(self) -> Polyline:
        """Route as a polyline, built on first use; not part of equality."""
        return Polyline(self.route)

    @cached_property
    def boundary_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Corridor wall segments as (starts, ends), built on first use; not part of equality."""
        left = offset_polyline(self.route_polyline, self.half_width)
        right = offset_polyline(self.route_polyline, -self.half_width)
        return np.vstack([left[:-1], right[:-1]]), np.vstack([left[1:], right[1:]])


@dataclass
class World:
    """Mutable simulation state for one trial."""

    scenario: Scenario
    params: ModelParams
    rng: np.random.Generator
    vehicle: VehicleState
    t: float = 0.0
    crashed: bool = False
    # goal flag, route arc length and signed offset of the vehicle, refreshed by sim_step
    reached: bool = field(init=False)
    s: float = field(init=False)
    lateral: float = field(init=False)
    route: Polyline = field(init=False, repr=False)

    def __post_init__(self):
        self.route = self.scenario.route_polyline
        self.s, self.lateral = self.route.project((self.vehicle.x, self.vehicle.y))
        self.reached = in_goal(self)

    @property
    def status(self) -> str:
        """Trial status once the loop has stopped: crash, goal, or timeout."""
        return "crash" if self.crashed else "goal" if self.reached else "timeout"

    def obstacle_states(self) -> tuple[np.ndarray, np.ndarray]:
        obs = self.scenario.obstacles
        if not obs:
            return np.zeros((0, 2)), np.zeros(0)
        centers = np.array([o.position_at(self.t) for o in obs])
        radii = np.array([o.radius for o in obs])
        return centers, radii


def make_world(scenario: Scenario, params: ModelParams, rng: np.random.Generator) -> World:
    return World(scenario=scenario, params=params, rng=rng, vehicle=scenario.start)


def sense(world: World) -> Observation:
    """Ray-distance scan from the vehicle pose.

    One distance per bearing: nearest obstacle or corridor-boundary hit,
    capped at the sensor maximum range.
    """
    cfg = world.scenario.sensor
    bearings = ray_bearings(cfg.n_rays) + world.vehicle.rho
    dirs = np.stack([np.cos(bearings), np.sin(bearings)], axis=1)
    origin = np.array([world.vehicle.x, world.vehicle.y])
    centers, radii = world.obstacle_states()
    d_obs = ray_circle_hits(origin, dirs, centers, radii)
    seg_a, seg_b = world.scenario.boundary_segments
    d_wall = ray_segment_hits(origin, dirs, seg_a, seg_b)
    dist = np.minimum(np.minimum(d_obs, d_wall), cfg.max_range_m)
    dist = np.maximum(dist, 1e-9)
    return Observation(rays=dist, timestamp=world.t)


def reference_slice(route: Polyline, s0: float, tau_o: int, dt: float, v_ref: float) -> list[VehicleState]:
    """tau_o route poses ahead of arc length s0, spaced v_ref * dt in arc length.

    s0 is the vehicle's projection onto the route; headings are route
    tangents. Past the route end the final waypoint is repeated with the
    final tangent heading.
    """
    if v_ref <= 0.0:
        raise ValueError("v_ref must be positive")
    if tau_o < 1 or dt <= 0.0:
        raise ValueError("tau_o and dt must be positive")
    points, headings = route.sample(s0 + v_ref * dt * np.arange(1, tau_o + 1))
    return [VehicleState(x, y, rho) for (x, y), rho in zip(points.tolist(), headings.tolist())]


def in_goal(world: World) -> bool:
    gx, gy = world.scenario.route[-1]
    return math.hypot(world.vehicle.x - gx, world.vehicle.y - gy) <= world.scenario.goal_radius


def sim_step(world: World, control: ControlInput) -> World:
    """Advance the world one sampling period.

    The vehicle follows the true model with zero residual (model mismatch
    comes from state noise, not a world force); dynamic obstacles advance
    along their loops; collision and goal flags are refreshed.
    """
    p = world.params
    world.vehicle = step_true(world.vehicle, control, p, world.rng)
    world.t += p.dt
    centers, radii = world.obstacle_states()
    px, py = world.vehicle.x, world.vehicle.y
    hit = False
    for (cx, cy), r in zip(centers, radii):
        if math.hypot(px - cx, py - cy) < r:
            hit = True
            break
    world.s, world.lateral = world.route.project((px, py))
    if abs(world.lateral) > world.scenario.half_width:
        hit = True
    world.crashed = world.crashed or hit
    world.reached = (not world.crashed) and in_goal(world)
    return world


@dataclass(frozen=True)
class StepCommand:
    """Controller output for one step: the control plus the scene pair used."""

    u: ControlInput
    c: float = 0.0
    w: float = 0.0


class TrialController(Protocol):
    def reset(self, scenario: Scenario, params: ModelParams) -> None: ...

    def step(self, obs: Observation, state: VehicleState) -> StepCommand: ...

    def safe_stop(self) -> ControlInput: ...


@dataclass(frozen=True)
class StepRecord:
    time_s: float
    x_m: float
    y_m: float
    rho_rad: float
    v_cmd: float
    omega_cmd: float
    c: float
    w: float
    cross_track_m: float
    solve_ms: float
    event: str = ""


LOG_COLUMNS = tuple(f.name for f in fields(StepRecord))


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one goal-navigation run."""

    status: str  # "crash" | "goal" | "timeout"
    steps: int
    log: tuple[StepRecord, ...]
    scenario: Scenario

    def __post_init__(self):
        if self.status not in ("crash", "goal", "timeout"):
            raise ValueError(f"unknown trial status {self.status!r}")
        if self.steps != len(self.log):
            raise ValueError("log length must equal step count")


def closed_loop(world: World, controller: TrialController) -> Iterator[tuple[StepCommand, str, float]]:
    """The sense -> control -> sim_step loop; yields once per step.

    Resets the controller for the world's scenario, then steps until
    crash, goal, or the time limit. A controller step that fails
    numerically (NmpcError, ValueError, ArithmeticError) is replaced by the
    controller's safe stop, which becomes its next rate anchor, and is
    marked controller_error; any other exception is a bug and propagates.
    After each step it yields (command, event, controller seconds), where
    the event is "crash", "goal", "controller_error" or "".
    """
    controller.reset(world.scenario, world.params)
    while not (world.crashed or world.reached) and world.t + 1e-12 < world.scenario.time_limit_s:
        obs = sense(world)
        started = time.perf_counter()
        event = ""
        try:
            cmd = controller.step(obs, world.vehicle)
        except (NmpcError, ValueError, ArithmeticError):
            cmd = StepCommand(u=controller.safe_stop())
            event = "controller_error"
        seconds = time.perf_counter() - started
        sim_step(world, cmd.u)
        if world.crashed:
            event = "crash"
        elif world.reached:
            event = "goal"
        yield cmd, event, seconds


def run_trial(
    scenario: Scenario,
    controller: TrialController,
    params: ModelParams,
    trial_index: int = 0,
    record_wall_clock: bool = False,
) -> TrialOutcome:
    """Run closed_loop on a fresh world and log every step.

    Randomness derives from (scenario.seed, trial_index) only, so repeated
    runs are bit-identical. Wall-clock around the controller call is
    recorded only when record_wall_clock is set; otherwise solve_ms is 0 so
    logs stay byte-reproducible.
    """
    world = make_world(scenario, params, np.random.default_rng([scenario.seed, trial_index]))
    records: list[StepRecord] = []
    for cmd, event, seconds in closed_loop(world, controller):
        records.append(
            StepRecord(
                time_s=world.t,
                x_m=world.vehicle.x,
                y_m=world.vehicle.y,
                rho_rad=world.vehicle.rho,
                v_cmd=cmd.u.v_cmd,
                omega_cmd=cmd.u.omega_cmd,
                c=cmd.c,
                w=cmd.w,
                cross_track_m=world.lateral,
                solve_ms=seconds * 1e3 if record_wall_clock else 0.0,
                event=event,
            )
        )
    return TrialOutcome(status=world.status, steps=len(records), log=tuple(records), scenario=scenario)


def write_trial_log(path, outcome: TrialOutcome) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for rec in outcome.log:
            writer.writerow([csv_cell(getattr(rec, name)) for name in LOG_COLUMNS])


def csv_cell(value) -> str:
    """CSV text of a record value: floats by repr, so they read back bit-exact."""
    return value if isinstance(value, str) else repr(value)


def read_trial_log(path, scenario: Scenario, status: Optional[str] = None) -> TrialOutcome:
    """Rebuild a TrialOutcome from a CSV log.

    The terminal status is taken from the last row's event when present,
    else `status`, else "timeout" (the only terminal state that leaves no
    event mark).
    """
    records = []
    types = [f.type for f in fields(StepRecord)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != LOG_COLUMNS:
            raise ValueError(f"{path}: unexpected log header {header!r}")
        for row in reader:
            if len(row) != len(LOG_COLUMNS):
                raise ValueError(f"{path}: malformed row {row!r}")
            records.append(StepRecord(*(typ(cell) for typ, cell in zip(types, row))))
    final_status = status
    if records and records[-1].event in ("crash", "goal"):
        final_status = records[-1].event
    if final_status is None:
        final_status = "timeout"
    return TrialOutcome(status=final_status, steps=len(records), log=tuple(records), scenario=scenario)


class ScenarioFormatError(ValueError):
    """Scenario file violation with a line-precise message."""


def _parse_floats(path, line_no, key, tokens, count):
    if len(tokens) != count:
        raise ScenarioFormatError(f"{path}:{line_no}: {key} expects {count} numbers, got {len(tokens)}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}:{line_no}: {key} has a non-numeric value ({exc})") from None


def load_scenario(path) -> tuple[Scenario, ModelParams]:
    """Parse a scenario file; returns the scenario and its model parameters."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioFormatError(f"{path}: unreadable ({exc})") from None
    scalars: dict[str, float] = {}
    name = path.stem
    waypoints: list[tuple[float, float]] = []
    obstacles: list[Obstacle] = []
    start: Optional[VehicleState] = None
    seen_version = False
    scalar_keys = {
        "track_half_width_m",
        "v_max_mps",
        "goal_radius_m",
        "time_limit_s",
        "seed",
        "sensor_resolution_deg",
        "sensor_max_range_m",
        "wheelbase_m",
        "dt_s",
        "state_noise_std",
    }
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key, args = tokens[0], tokens[1:]
        if key == "format_version":
            vals = _parse_floats(path, line_no, key, args, 1)
            if int(vals[0]) != 1:
                raise ScenarioFormatError(f"{path}:{line_no}: unsupported format_version {vals[0]:g}")
            seen_version = True
        elif key == "name":
            if len(args) != 1:
                raise ScenarioFormatError(f"{path}:{line_no}: name expects one token")
            name = args[0]
        elif key == "sensor_fov_deg":
            # every scan reader assumes a full fan (see ray_bearings)
            if _parse_floats(path, line_no, key, args, 1)[0] != 360.0:
                raise ScenarioFormatError(f"{path}:{line_no}: sensor_fov_deg must be 360, got {args[0]}")
        elif key in scalar_keys:
            scalars[key] = _parse_floats(path, line_no, key, args, 1)[0]
        elif key == "start_pose":
            vals = _parse_floats(path, line_no, key, args, 3)
            start = VehicleState(vals[0], vals[1], vals[2])
        elif key == "waypoint_m":
            vals = _parse_floats(path, line_no, key, args, 2)
            waypoints.append((vals[0], vals[1]))
        elif key == "obstacle_static_m":
            vals = _parse_floats(path, line_no, key, args, 3)
            try:
                obstacles.append(Obstacle(center=(vals[0], vals[1]), radius=vals[2]))
            except ValueError as exc:
                raise ScenarioFormatError(f"{path}:{line_no}: {exc}") from None
        elif key == "obstacle_dynamic_m":
            if len(args) < 6 or len(args) % 2 != 0:
                raise ScenarioFormatError(
                    f"{path}:{line_no}: obstacle_dynamic_m expects radius speed and >= 2 waypoints"
                )
            vals = _parse_floats(path, line_no, key, args, len(args))
            pts = tuple((vals[i], vals[i + 1]) for i in range(2, len(vals), 2))
            try:
                obstacles.append(
                    Obstacle(center=pts[0], radius=vals[0], loop=pts, speed=vals[1])
                )
            except ValueError as exc:
                raise ScenarioFormatError(f"{path}:{line_no}: {exc}") from None
        else:
            raise ScenarioFormatError(f"{path}:{line_no}: unknown key {key!r}")
    if not seen_version:
        raise ScenarioFormatError(f"{path}: missing format_version")
    missing = [
        k
        for k in ("track_half_width_m", "v_max_mps", "goal_radius_m", "sensor_max_range_m")
        if k not in scalars
    ]
    if missing:
        raise ScenarioFormatError(f"{path}: missing required keys: {', '.join(missing)}")
    if start is None:
        raise ScenarioFormatError(f"{path}: missing start_pose")
    if len(waypoints) < 2:
        raise ScenarioFormatError(f"{path}: route needs at least 2 waypoint_m lines")
    try:
        sensor = RaySensorConfig(
            resolution_deg=scalars.get("sensor_resolution_deg", 2.0),
            max_range_m=scalars["sensor_max_range_m"],
        )
        scenario = Scenario(
            route=tuple(waypoints),
            half_width=scalars["track_half_width_m"],
            start=start,
            goal_radius=scalars["goal_radius_m"],
            v_max=scalars["v_max_mps"],
            sensor=sensor,
            obstacles=tuple(obstacles),
            time_limit_s=scalars.get("time_limit_s", 30.0),
            seed=int(scalars.get("seed", 0)),
            name=name,
        )
        params = ModelParams(
            wheelbase_L=scalars.get("wheelbase_m", 0.36),
            dt=scalars.get("dt_s", 0.05),
            sigma_f=scalars.get("state_noise_std", 0.0),
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from None
    return scenario, params


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    return replace(scenario, seed=seed)
