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
    seed 3                          # an integer, as format_version is
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

What no pose changes is built once and kept read-only. Per ray count:
the fan's bearings (`ray_bearings`, `signed_ray_bearings`). Per scenario,
on first use: the wall segments with their pose-independent values
(`Scenario.walls`) and the obstacle radii (`Scenario.obstacle_radii`). A
moving obstacle's loop is built with the obstacle. The obstacle centres
change with time, so the `World` holds them at its time `t`: they are
placed when the world is created and, if any of them moves, again by each
`sim_step` after `t` advances; that step's collision test and the next
`sense` read them.

`closed_loop` is the one sense -> control -> step loop: `run_trial` logs
it for evaluation and `training.train` learns from it. Trial logs are CSV
with one column per `StepRecord` field, in field order (`LOG_COLUMNS`),
written by `write_csv`, the writer of every record CSV (`read_csv` is its
inverse); each row holds the state reached after applying the logged
control.
"""

import csv
import math
import time
from dataclasses import dataclass, field, fields, replace
from functools import cache, cached_property
from pathlib import Path
from typing import Iterator, Optional, Protocol

import numpy as np

from .geometry import Polyline, SegmentSet, offset_polyline, ray_circle_hits, ray_fan_segment_hits, read_only, wrap_angle
from .memory import Observation
from .nmpc import NmpcError
from .vehicle import ControlInput, ModelParams, VehicleState, require_finite, step_true


@cache
def ray_bearings(n_rays: int) -> np.ndarray:
    """Bearings of a full fan of n_rays counter-clockwise from the heading,
    for the sensor and every scan reader; one read-only array per ray count."""
    return read_only(np.arange(n_rays) * (2.0 * math.pi / n_rays))


@cache
def signed_ray_bearings(n_rays: int) -> np.ndarray:
    """ray_bearings(n_rays) with those past pi shifted to (-pi, 0): the
    bearings that scan readers measure left (+) and right (-) of the
    heading; one read-only array per ray count."""
    b = ray_bearings(n_rays)
    return read_only(np.where(b > math.pi, b - 2.0 * math.pi, b))


@dataclass(frozen=True)
class RaySensorConfig:
    """Ray fan geometry: a full 360 degree fan, one ray every resolution_deg."""

    resolution_deg: float = 2.0
    max_range_m: float = 3.0

    def __post_init__(self):
        require_finite("RaySensorConfig", self.resolution_deg, self.max_range_m)
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
        require_finite("Obstacle", self.radius, self.speed)
        if self.radius <= 0.0:
            raise ValueError("obstacle radius must be positive")
        if self.speed < 0.0:
            raise ValueError("obstacle speed must be non-negative")
        if self.loop is not None:
            if len(self.loop) < 2:
                raise ValueError("a dynamic obstacle loop needs at least 2 waypoints")
            self.loop_polyline  # built now: a degenerate loop raises here

    @property
    def dynamic(self) -> bool:
        return self.loop is not None and self.speed > 0.0

    @cached_property
    def loop_polyline(self) -> Polyline:
        """Closed waypoint loop, built on construction; not part of equality."""
        pts = list(self.loop)
        if pts[0] != pts[-1]:
            pts.append(pts[0])
        return Polyline(pts)

    def position_at(self, t: float) -> tuple[float, float]:
        if not self.dynamic:
            return self.center
        loop = self.loop_polyline
        return loop.point_at((self.speed * t) % loop.length)


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
        require_finite("Scenario", self.half_width, self.goal_radius, self.v_max, self.time_limit_s)
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
        self.route_polyline  # built now: a degenerate route raises here

    @cached_property
    def route_polyline(self) -> Polyline:
        """Route as a polyline, built on construction; not part of equality."""
        return Polyline(self.route)

    @cached_property
    def walls(self) -> SegmentSet:
        """Corridor wall segments, left then right, with their pose-independent
        values; built on first use; not part of equality."""
        left = offset_polyline(self.route_polyline, self.half_width)
        right = offset_polyline(self.route_polyline, -self.half_width)
        return SegmentSet(np.vstack([left[:-1], right[:-1]]), np.vstack([left[1:], right[1:]]))

    @cached_property
    def obstacle_radii(self) -> np.ndarray:
        """Obstacle radii (C,), read-only; built on first use; not part of equality."""
        return read_only(np.array([o.radius for o in self.obstacles], dtype=float))


@dataclass
class World:
    """Mutable simulation state for one trial, starting at the scenario's start pose."""

    scenario: Scenario
    params: ModelParams
    rng: np.random.Generator
    vehicle: VehicleState = field(init=False)
    t: float = 0.0
    crashed: bool = False
    # goal flag, route arc length and signed offset of the vehicle, refreshed by sim_step
    reached: bool = field(init=False)
    s: float = field(init=False)
    lateral: float = field(init=False)
    # obstacle centres (C, 2) at time t, placed by place_obstacles
    obstacle_centers: np.ndarray = field(init=False)

    def __post_init__(self):
        self.vehicle = self.scenario.start
        self.s, self.lateral = self.scenario.route_polyline.project((self.vehicle.x, self.vehicle.y))
        self.reached = in_goal(self.scenario, self.vehicle)
        self.place_obstacles()

    @property
    def status(self) -> str:
        """Trial status once the loop has stopped: crash, goal, or timeout."""
        return "crash" if self.crashed else "goal" if self.reached else "timeout"

    def place_obstacles(self) -> None:
        """Set obstacle_centers (read-only) to every obstacle's position at time t."""
        centers = [o.position_at(self.t) for o in self.scenario.obstacles]
        self.obstacle_centers = read_only(np.array(centers, dtype=float).reshape(-1, 2))


def sense(world: World) -> Observation:
    """Ray-distance scan from the vehicle pose.

    One distance per bearing: nearest obstacle or corridor-boundary hit,
    capped at the sensor maximum range.
    """
    cfg = world.scenario.sensor
    z = world.vehicle
    bearings = ray_bearings(cfg.n_rays) + z.rho
    # unit vectors as contiguous cos and sin rows; the kernels read them as (R, 2)
    dirs = np.empty((2, bearings.shape[0]))
    np.cos(bearings, out=dirs[0])
    np.sin(bearings, out=dirs[1])
    origin = np.array([z.x, z.y])
    dist = ray_fan_segment_hits(origin, z.rho, dirs.T, world.scenario.walls)
    radii = world.scenario.obstacle_radii
    if radii.shape[0] > 0:
        np.minimum(ray_circle_hits(origin, dirs.T, world.obstacle_centers, radii), dist, out=dist)
    np.minimum(dist, cfg.max_range_m, out=dist)
    np.maximum(dist, 1e-9, out=dist)
    return Observation(rays=dist, timestamp=world.t)


def reference_slice(route: Polyline, s0: float, tau_o: int, dt: float, v_ref: float) -> np.ndarray:
    """tau_o route poses ahead of arc length s0, spaced v_ref * dt in arc length.

    Returns a path: a (3, tau_o) array whose rows are x, y and the heading
    wrapped to (-pi, pi]. s0 is the vehicle's projection onto the route;
    headings are route tangents. Past the route end the final waypoint is
    repeated with the final tangent heading.
    """
    if v_ref <= 0.0:
        raise ValueError("v_ref must be positive")
    if tau_o < 1 or dt <= 0.0:
        raise ValueError("tau_o and dt must be positive")
    points, headings = route.sample(s0 + v_ref * dt * np.arange(1, tau_o + 1))
    return np.vstack((points.T, wrap_angle(headings)))


def in_goal(scenario: Scenario, state: VehicleState) -> bool:
    gx, gy = scenario.route[-1]
    return math.hypot(state.x - gx, state.y - gy) <= scenario.goal_radius


def sim_step(world: World, control: ControlInput) -> World:
    """Advance the world one sampling period.

    The vehicle follows the true model with zero residual (model mismatch
    comes from state noise, not a world force); moving obstacles are placed
    at the new time; collision and goal flags are refreshed.
    """
    p = world.params
    world.vehicle = step_true(world.vehicle, control, p, world.rng)
    world.t += p.dt
    if any(o.dynamic for o in world.scenario.obstacles):
        world.place_obstacles()
    px, py = world.vehicle.x, world.vehicle.y
    hit = False
    for (cx, cy), r in zip(world.obstacle_centers.tolist(), world.scenario.obstacle_radii.tolist()):
        if math.hypot(px - cx, py - cy) < r:
            hit = True
            break
    world.s, world.lateral = world.scenario.route_polyline.project((px, py))
    if abs(world.lateral) > world.scenario.half_width:
        hit = True
    world.crashed = world.crashed or hit
    world.reached = (not world.crashed) and in_goal(world.scenario, world.vehicle)
    return world


@dataclass(frozen=True)
class StepCommand:
    """Controller output for one step: the control plus the scene pair used."""

    u: ControlInput
    c: float = 0.0
    w: float = 0.0


class TrialController(Protocol):
    def reset(self, scenario: Scenario, params: ModelParams) -> None: ...

    def step(self, obs: Observation, state: VehicleState, s: float) -> StepCommand: ...

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
    """Result of one goal-navigation run: its log and scenario."""

    log: tuple[StepRecord, ...]
    scenario: Scenario

    @property
    def status(self) -> str:
        """The last row's event if crash or goal, else timeout; with no row, goal if
        the scenario starts within its goal radius, else timeout: the World's status."""
        if not self.log:
            return "goal" if in_goal(self.scenario, self.scenario.start) else "timeout"
        event = self.log[-1].event
        return event if event in ("crash", "goal") else "timeout"

    @property
    def steps(self) -> int:
        """The number of steps the trial ran, one per log row."""
        return len(self.log)


def closed_loop(world: World, controller: TrialController) -> Iterator[tuple[StepCommand, str, float]]:
    """The sense -> control -> sim_step loop; yields once per step.

    Resets the controller for the world's scenario, then steps until
    crash, goal, or the time limit. Each controller step gets the
    observation, the vehicle state and its route arc length world.s. A
    step that raises NmpcError (the solver's numeric failure) is replaced
    by the controller's safe stop, which becomes its next rate anchor, and
    is marked controller_error; any other exception, a ValueError from a
    shape bug included, is a defect and propagates.
    After each step it yields (command, event, controller seconds), where
    the event is "crash", "goal", "controller_error" or "".
    """
    controller.reset(world.scenario, world.params)
    while not (world.crashed or world.reached) and world.t + 1e-12 < world.scenario.time_limit_s:
        obs = sense(world)
        started = time.perf_counter()
        event = ""
        try:
            cmd = controller.step(obs, world.vehicle, world.s)
        except NmpcError:
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
    world = World(scenario, params, np.random.default_rng([scenario.seed, trial_index]))
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
    return TrialOutcome(tuple(records), scenario)


def csv_cell(value) -> str:
    """CSV text of a record value: floats by repr, so they read back bit-exact."""
    return value if isinstance(value, str) else repr(value)


def write_csv(path, record_type, records) -> None:
    """CSV of records of the dataclass record_type: a header of its field
    names, then one row per record, its fields in field order through
    csv_cell. Trial logs, training logs and report tables are all written
    here."""
    columns = [f.name for f in fields(record_type)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([csv_cell(getattr(rec, name)) for name in columns])


def read_csv(path, record_type) -> list:
    """Records of the dataclass record_type from a CSV, the inverse of
    `write_csv`: the header names the fields in order (spaces around a name
    allowed), each row holds one cell per field, and each cell parses by its
    field's type. Each error names path:line."""
    columns = tuple(f.name for f in fields(record_type))
    types = [f.type for f in fields(record_type)]
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != columns:
            raise ValueError(f"{path}:1: expected header {','.join(columns)}, got {header!r}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(columns):
                raise ValueError(f"{where}: expected {len(columns)} cells, got {len(row)}")
            try:
                records.append(record_type(*(typ(cell) for typ, cell in zip(types, row))))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return records


def read_trial_log(path, scenario: Scenario) -> TrialOutcome:
    """Rebuild a TrialOutcome from a CSV log (`read_csv` of StepRecord)."""
    return TrialOutcome(tuple(read_csv(path, StepRecord)), scenario)


class ScenarioFormatError(ValueError):
    """Scenario file violation with a line-precise message."""


def _parse_floats(path, line_no, key, tokens, count):
    if len(tokens) != count:
        raise ScenarioFormatError(f"{path}:{line_no}: {key} expects {count} numbers, got {len(tokens)}")
    try:
        vals = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}:{line_no}: {key} has a non-numeric value ({exc})") from None
    if not all(map(math.isfinite, vals)):
        raise ScenarioFormatError(f"{path}:{line_no}: {key} has a non-finite value ({' '.join(tokens)})")
    return vals


def _parse_integer(path, line_no, key, tokens):
    value = _parse_floats(path, line_no, key, tokens, 1)[0]
    if not value.is_integer():
        raise ScenarioFormatError(f"{path}:{line_no}: {key} must be an integer, got {tokens[0]}")
    return int(value)


# scalar file keys: the object each one sets and the field it sets there;
# a key the file omits keeps that field's default
_SCALAR_FIELDS = {
    "track_half_width_m": ("scenario", "half_width"),
    "v_max_mps": ("scenario", "v_max"),
    "goal_radius_m": ("scenario", "goal_radius"),
    "time_limit_s": ("scenario", "time_limit_s"),
    "seed": ("scenario", "seed"),
    "sensor_resolution_deg": ("sensor", "resolution_deg"),
    "sensor_max_range_m": ("sensor", "max_range_m"),
    "wheelbase_m": ("params", "wheelbase_L"),
    "dt_s": ("params", "dt"),
    "state_noise_std": ("params", "sigma_f"),
}
_REQUIRED_SCALARS = ("track_half_width_m", "v_max_mps", "goal_radius_m", "sensor_max_range_m")
# the keys a file may give more than once; every other key is single-valued
_REPEATED_KEYS = ("waypoint_m", "obstacle_static_m", "obstacle_dynamic_m")


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
    first_line: dict[str, int] = {}  # line of each single-valued key given
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key, args = tokens[0], tokens[1:]
        if key not in _REPEATED_KEYS and first_line.setdefault(key, line_no) != line_no:
            raise ScenarioFormatError(f"{path}:{line_no}: {key} given again (first on line {first_line[key]})")
        if key == "format_version":
            version = _parse_integer(path, line_no, key, args)
            if version != 1:
                raise ScenarioFormatError(f"{path}:{line_no}: unsupported format_version {version}")
        elif key == "name":
            if len(args) != 1:
                raise ScenarioFormatError(f"{path}:{line_no}: name expects one token")
            name = args[0]
        elif key == "sensor_fov_deg":
            # every scan reader assumes a full fan (see ray_bearings)
            if _parse_floats(path, line_no, key, args, 1)[0] != 360.0:
                raise ScenarioFormatError(f"{path}:{line_no}: sensor_fov_deg must be 360, got {args[0]}")
        elif key == "seed":
            scalars[key] = _parse_integer(path, line_no, key, args)
        elif key in _SCALAR_FIELDS:
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
    if "format_version" not in first_line:
        raise ScenarioFormatError(f"{path}: missing format_version")
    missing = [k for k in _REQUIRED_SCALARS if k not in scalars]
    if missing:
        raise ScenarioFormatError(f"{path}: missing required keys: {', '.join(missing)}")
    if start is None:
        raise ScenarioFormatError(f"{path}: missing start_pose")
    if len(waypoints) < 2:
        raise ScenarioFormatError(f"{path}: route needs at least 2 waypoint_m lines")
    kwargs: dict[str, dict] = {"scenario": {}, "sensor": {}, "params": {}}
    for key, value in scalars.items():
        owner, attr = _SCALAR_FIELDS[key]
        kwargs[owner][attr] = value
    try:
        sensor = RaySensorConfig(**kwargs["sensor"])
        scenario = Scenario(
            route=tuple(waypoints),
            start=start,
            sensor=sensor,
            obstacles=tuple(obstacles),
            name=name,
            **kwargs["scenario"],
        )
        params = ModelParams(**kwargs["params"])
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from None
    return scenario, params


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    return replace(scenario, seed=seed)
