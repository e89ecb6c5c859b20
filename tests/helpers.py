"""Shared test scaffolding: tiny deterministic worlds and independent oracles."""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

import numpy as np

from evacsim import engine
from evacsim.engine import InformTimeline, RunConfig, RunResult, SimulationState, WorldIndex
from evacsim.errors import InputError
from evacsim.geo import (
    EDGE_LENGTH_TOL,
    MAX_COORDINATE_M,
    NEAR_CUTOFF_M,
    WITHIN_CUTOFF_M,
    Point,
    ProximityClass,
    Shelter,
    Waterway,
    World,
    _parse_bool,
    shortest_path_tree,
)
from evacsim.population import CODED_FIELDS, HouseholdProfile, record_fields
from evacsim.risk import WarningSource
from evacsim.seeds import derive_seed
from evacsim.sweep import FILTER_EXACT_ONE, RESULTS_HEADER, Combo, SweepRow, SweepSpec
from evacsim.textfile import content_lines


def population_of(households: list[HouseholdProfile]) -> dict[str, np.ndarray]:
    """The columns of the households, one array per HouseholdProfile field
    keyed by field in order, with the dtypes `population.parse_population`
    reads: the one way a test turns household rows into a population."""
    return {name: np.array([getattr(h, name) for h in households], kind)
            for name, kind, _ in record_fields(HouseholdProfile)}


def households_of(population: dict[str, np.ndarray]) -> list[HouseholdProfile]:
    """The rows of a population's columns, one HouseholdProfile each, in
    order: the inverse of `population_of`."""
    return list(map(HouseholdProfile, *(population[name].tolist()
                                        for name, _, _ in record_fields(HouseholdProfile))))


def cdm_reference(h: HouseholdProfile) -> float:
    """A household's CDM score, summed one code at a time in Python: the
    per-household oracle of `WorldIndex.cdm`."""
    return (h.head_gender + h.income_level + h.educ_level + h.has_children + h.has_elderly
            + h.with_disability + h.house_ownership + h.years_of_residency)


def crf_reference(h: HouseholdProfile) -> float:
    """A household's CRF score, the oracle of `WorldIndex.crf`."""
    return h.house_quality + h.floor_levels + h.typhoon_experience


def line_world(
    n_nodes: int = 4,
    spacing: float = 100.0,
    shelter_specs: list[tuple[int, int, int, bool]] | None = None,
    building_offsets: list[tuple[float, float]] | None = None,
    rescuer_starts: list[int] | None = None,
    river_y: float = -1000.0,
) -> World:
    """A straight road with buildings hung off it. Everything deterministic."""
    nodes = {i: Point(i * spacing, 0.0) for i in range(n_nodes)}
    edges = [(i, i + 1, spacing) for i in range(n_nodes - 1)]
    if building_offsets is None:
        building_offsets = [(i * spacing, 20.0) for i in range(n_nodes)]
    buildings = {i: Point(x, y) for i, (x, y) in enumerate(building_offsets)}
    if shelter_specs is None:
        shelter_specs = [(0, n_nodes - 1, 1000, False)]
    shelters = [Shelter(id=s, node=n, capacity=c, external=e) for s, n, c, e in shelter_specs]
    if rescuer_starts is None:
        rescuer_starts = [0]
    waterways = [Waterway(0, (Point(-50.0, river_y), Point(n_nodes * spacing + 50.0, river_y)))]
    return World(
        nodes=nodes,
        edges=edges,
        buildings=buildings,
        waterways=waterways,
        shelters=shelters,
        rescuer_starts=rescuer_starts,
    )


def random_graph_world(seed: int, n_nodes: int = 50, extra_edges: int = 30) -> World:
    """Connected random geometric-ish graph: spanning chain plus chords."""
    rng = random.Random(seed)
    nodes = {i: Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for i in range(n_nodes)}
    seen = set()
    edges = []

    def add(a: int, b: int) -> None:
        if a == b:
            return
        key = (min(a, b), max(a, b))
        if key in seen:
            return
        seen.add(key)
        edges.append((a, b, nodes[a].distance_to(nodes[b])))

    order = list(range(n_nodes))
    rng.shuffle(order)
    for i in range(1, n_nodes):
        add(order[i], order[rng.randrange(i)])
    for _ in range(extra_edges):
        add(rng.randrange(n_nodes), rng.randrange(n_nodes))
    return World(
        nodes=nodes,
        edges=edges,
        buildings={},
        waterways=[],
        shelters=[],
        rescuer_starts=[],
    )


def grid_world(cols: int, rows: int, spacing: float) -> World:
    """A cols x rows lattice of roads `spacing` apart, node r * cols + c at
    (c * spacing, r * spacing), with no buildings, shelters or starts. An
    inner node has four edges, a border node three, a corner two."""
    nodes = {r * cols + c: Point(c * spacing, r * spacing)
             for r in range(rows) for c in range(cols)}
    edges = [(node, node + 1, spacing) for node in nodes if node % cols < cols - 1]
    edges += [(node, node + cols, spacing) for node in nodes if node + cols in nodes]
    return World(
        nodes=nodes,
        edges=edges,
        buildings={},
        waterways=[],
        shelters=[],
        rescuer_starts=[],
    )


def bellman_ford_distances(world: World, src: int) -> dict[int, float]:
    """Independent relaxation-based shortest-path oracle: the distance from
    src to every node, math.inf where unreachable."""
    dist = {n: math.inf for n in world.nodes}
    dist[src] = 0.0
    for _ in range(len(world.nodes) - 1):
        changed = False
        for a, b, length in world.edges:
            if dist[a] + length < dist[b]:
                dist[b] = dist[a] + length
                changed = True
            if dist[b] + length < dist[a]:
                dist[a] = dist[b] + length
                changed = True
        if not changed:
            break
    return dist


def point_segment_offset_reference(p: Point, a: Point, b: Point) -> tuple[float, float]:
    """The offset from the nearest point of the closed segment ab to p, one
    pair at a time: the all-pairs oracle of `geo.segment_offsets`."""
    ax, ay = a.x, a.y
    vx, vy = b.x - ax, b.y - ay
    wx, wy = p.x - ax, p.y - ay
    seg_len2 = vx * vx + vy * vy
    if seg_len2 == 0.0:
        return wx, wy
    t = (wx * vx + wy * vy) / seg_len2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return wx - t * vx, wy - t * vy


def within_reference(dx: float, dy: float, radius: float) -> bool:
    """Whether the offset (dx, dy) is within radius, boundary included, by
    its squares in Python floats: the scalar oracle of `geo.within` and the
    range test of the tick-by-tick walkers."""
    return dx * dx + dy * dy <= radius * radius


def classify_proximity(d: float) -> ProximityClass:
    """The proximity class of a distance to the waterway: WITHIN up to
    WITHIN_CUTOFF_M, NEAR up to NEAR_CUTOFF_M, both inclusive, else FAR.
    The scalar oracle of `geo.proximity_classes`."""
    if d <= WITHIN_CUTOFF_M:
        return ProximityClass.WITHIN
    if d <= NEAR_CUTOFF_M:
        return ProximityClass.NEAR
    return ProximityClass.FAR


def bellman_ford_distance(world: World, src: int, dst: int) -> float:
    """The relaxation oracle's distance from src to dst."""
    return bellman_ford_distances(world, src)[dst]


def walk_arrivals(world: World, index, node: int, chain: tuple[int, ...]) -> list[int]:
    """The ticks, counted from the decision tick, on which a household that
    departs from road node `node` comes within shelter_radius of each
    shelter of `chain` in turn, walked by a per-tick move loop: every tick
    it spends household_speed * tick_seconds metres along its route, then
    the distance to its target is tested; on reaching a shelter that is not
    the chain's last it keeps its leg progress, finishes the route to that
    shelter and follows the route from there to the next one.

    The tick-by-tick oracle of `WorldIndex.arrival_offset`; routes follow
    the parents of `geo.shortest_path_tree`, which the Bellman-Ford oracle
    checks, and legs are measured as they are walked on `world`, the world
    the index was built on. Of the index it reads only the parameters.
    """
    params = index.params
    nodes = world.nodes
    shelter_node = {s.id: s.node for s in world.shelters}
    move = params.household_speed * params.tick_seconds

    def route_to(start: int, shelter_id: int) -> list[int]:
        parent = shortest_path_tree(world, shelter_node[shelter_id])[1]
        route = [start]
        while route[-1] != shelter_node[shelter_id]:
            route.append(parent[route[-1]])
        return route

    route = route_to(node, chain[0])
    leg, progress = 0, 0.0
    x, y = nodes[node].x, nodes[node].y
    arrivals: list[int] = []
    tick = 0
    while True:
        budget = move
        while budget > 0.0 and leg < len(route) - 1:
            a, b = nodes[route[leg]], nodes[route[leg + 1]]
            leg_len = math.hypot(b.x - a.x, b.y - a.y)
            if budget < leg_len - progress:
                progress += budget
                budget = 0.0
                x = a.x + (b.x - a.x) * (progress / leg_len)
                y = a.y + (b.y - a.y) * (progress / leg_len)
            else:
                budget -= leg_len - progress
                leg += 1
                progress = 0.0
                x, y = b.x, b.y
        target = nodes[shelter_node[chain[len(arrivals)]]]
        if within_reference(x - target.x, y - target.y, params.shelter_radius):
            arrivals.append(tick)
            if len(arrivals) == len(chain):
                return arrivals
            here = shelter_node[chain[len(arrivals) - 1]]
            route = route[leg:] + route_to(here, chain[len(arrivals)])[1:]
            leg = 0
        tick += 1


def walk_rescuers_reference(world: World, index, seed: int) -> InformTimeline:
    """The inform phase of a run with `seed` on `index`, built on `world`,
    walked one tick at a time. The init stream draws, per household in id
    order, its epsilon (uniform in the epsilon range), its fallback source
    (friends if a draw is below fallback_friends_prob, else media) and its
    fallback tick (randint over the window), then one start node per
    rescuer. Then every tick moves every rescuer, in ascending order,
    rescuer_speed * tick_seconds metres: on a node it picks one of its
    edges, in adjacency order without the way it came unless that is the
    only way, with the walk stream's randrange when there is more than one;
    a budget that ends exactly on a node leaves it standing there. At its
    position it informs every unaware household within rescuer_radius, in
    ascending id; a rescuer on a node no road reaches never moves and
    informs nobody. Then the fallback channel informs the unaware
    households drawn for the tick. The walk ends when all are informed or
    at max_ticks. It lists its informs as (tick, household, source code)
    triples in inform order, and derives every column from that list
    afterwards: a household's source code and tick are those its inform
    names (NaN and 0 if it has none), the decide order is the list sorted,
    and the count informed by a tick is the number of informs up to it.

    The tick-by-tick oracle of `engine._walk_rescuers`, which visits a
    rescuer only when it reaches a node or can still inform someone, and
    then only the households of its edge's candidate list. Of the index it
    reads only the parameters, the household count and the house positions:
    the starts, the nodes and the choices come from the world, not from the
    index's copies and move table, and every house is tested, not the
    index's lists.
    """
    n = index.n
    p = index.params
    rng_init = random.Random(derive_seed(seed, "init"))
    epsilon: list[float] = []
    fallback_source: list[float] = []
    fallback_tick: list[int] = []
    fallback_schedule: dict[int, list[int]] = {}
    for i in range(n):
        epsilon.append(rng_init.uniform(p.epsilon_min, p.epsilon_max))
        fallback_source.append(
            WarningSource.FRIENDS.value
            if rng_init.random() < p.fallback_friends_prob
            else WarningSource.MEDIA.value
        )
        tick = rng_init.randint(p.fallback_tick_min, p.fallback_tick_max)
        fallback_tick.append(tick)
        fallback_schedule.setdefault(tick, []).append(i)
    starts = world.rescuer_starts
    placed = tuple(starts[rng_init.randrange(len(starts))] for _ in range(p.nb_rescuers))

    walk_rng = random.Random(derive_seed(seed, "walk"))
    budget = p.rescuer_speed * p.tick_seconds
    nodes = world.nodes
    # Per rescuer: the node it last left or stands on, the node before it
    # (None before its first move: no node id may stand for "none"), and its
    # edge's far node (None while standing), length and progress.
    at = list(placed)
    came_from: list[int | None] = [None] * len(placed)
    to: list[int | None] = [None] * len(placed)
    edge_len = [0.0] * len(placed)
    progress = [0.0] * len(placed)
    unaware = [True] * n
    informs: list[tuple[int, int, float]] = []
    t = 0
    while len(informs) < n and t < p.max_ticks:
        t += 1
        for r in range(len(at)):
            node, nxt, length, done = at[r], to[r], edge_len[r], progress[r]
            left = budget
            while left > 0.0:
                if nxt is None:
                    nbrs = world.adjacency[node]
                    options = [(nb, d) for nb, d in nbrs
                               if not (len(nbrs) > 1 and nb == came_from[r])]
                    if not options:
                        break
                    nxt, length = (options[walk_rng.randrange(len(options))]
                                   if len(options) > 1 else options[0])
                    done = 0.0
                if left < length - done:
                    done += left
                    left = 0.0
                else:
                    left -= length - done
                    came_from[r] = node
                    node, nxt, done = nxt, None, 0.0
            at[r], to[r], edge_len[r], progress[r] = node, nxt, length, done
            if not world.adjacency[node]:
                continue
            pa = nodes[node]
            if nxt is None:
                rx, ry = pa.x, pa.y
            else:
                pb = nodes[nxt]
                f = done / length
                rx = pa.x + (pb.x - pa.x) * f
                ry = pa.y + (pb.y - pa.y) * f
            for hid, (hx, hy) in enumerate(index.house_pos):
                if unaware[hid] and within_reference(hx - rx, hy - ry, p.rescuer_radius):
                    unaware[hid] = False
                    informs.append((t, hid, WarningSource.AUTHORITIES.value))
        for hid in fallback_schedule.pop(t, ()):
            if unaware[hid]:
                unaware[hid] = False
                informs.append((t, hid, fallback_source[hid]))
    source = [math.nan] * n
    inform_tick = [0] * n
    for tick, hid, by in informs:
        source[hid], inform_tick[hid] = by, tick
    informed_by = [sum(tick <= u for tick, _, _ in informs) for u in range(t + 1)]
    return InformTimeline(tuple(epsilon), tuple(fallback_source), tuple(fallback_tick), placed,
                          tuple(source), tuple(inform_tick),
                          tuple(hid for _, hid, _ in informs),
                          tuple(hid for _, hid, _ in sorted(informs)), tuple(informed_by))


def informs_of(timeline: InformTimeline) -> dict[int, tuple[tuple[int, WarningSource], ...]]:
    """The informs of a timeline per inform tick, in ascending tick: each a
    (household, source) pair, in inform order."""
    informs: dict[int, tuple[tuple[int, WarningSource], ...]] = {}
    for hid in timeline.inform_order:
        tick = timeline.inform_tick[hid]
        informs[tick] = (*informs.get(tick, ()), (hid, WarningSource(timeline.source[hid])))
    return informs


def pick_shelter_reference(world: World, occupancy: dict[int, int], node: int, members: int,
                           exclude: tuple[int, ...]) -> int | None:
    """The shelter a household of `members` persons at road node `node`
    heads for: the nearest internal shelter that is not in `exclude` and
    has room for it, else the nearest external one; ties break by shelter
    id, unreachable shelters are skipped, and None means there is none.

    The linear-scan oracle of `engine._pick_shelter`, which reads the
    index's per-node shelter order; distances are read off each shelter's
    shortest-path tree.
    """
    best: tuple[bool, float, int] | None = None
    for shelter in world.shelters:
        if not shelter.external and (
                shelter.id in exclude or occupancy[shelter.id] + members > shelter.capacity):
            continue
        d = shortest_path_tree(world, shelter.node)[0].get(node)
        if d is None:
            continue
        key = (shelter.external, d, shelter.id)
        if best is None or key < best:
            best = key
    return None if best is None else best[2]


def enumerate_combos_reference(spec: SweepSpec) -> list[Combo]:
    """Every point of the spec's full Cartesian product, in axis order
    (storm, rainfall, time of day, threshold, w_cdm, w_hrf, w_crf),
    numbered by its position in that product (`index`) and in the product
    without the threshold axis (`scenario_weight_index`), and kept if its
    weights pass the spec's filter: w_cdm + w_hrf + w_crf within 1e-9 of 1
    (exact_one) or at least 1 - 1e-9 (at_least_one).

    The brute-force oracle of `sweep.enumerate_combos`, which filters the
    weight triples once and never builds the points they rule out.
    """
    weights = (spec.w_cdm_values, spec.w_hrf_values, spec.w_crf_values)
    scenarios = (spec.storm_levels, spec.rainfall_codes, spec.time_of_day_codes)
    no_threshold = {point: i for i, point in enumerate(itertools.product(*scenarios, *weights))}
    combos = []
    for index, point in enumerate(itertools.product(*scenarios, spec.thresholds, *weights)):
        storm, rain, tod, threshold, w_cdm, w_hrf, w_crf = point
        total = w_cdm + w_hrf + w_crf
        if (abs(total - 1.0) <= 1e-9 if spec.weight_filter == FILTER_EXACT_ONE
                else total >= 1.0 - 1e-9):
            combos.append(Combo(index, no_threshold[(storm, rain, tod, w_cdm, w_hrf, w_crf)],
                                storm, rain, tod, threshold, w_cdm, w_hrf, w_crf))
    return combos


def parse_cells(record: type, cells: list[str]) -> list:
    """The values of one line's cells, one per field of record, read in
    field order: int and float cells as int() and float() do, bool cells as
    exactly 0 or 1. The first bad cell raises ValueError(field, why)."""
    values = []
    for (name, kind, _), cell in zip(record_fields(record), cells):
        if kind is bool:
            if cell not in ("0", "1"):
                raise ValueError(name, f"{name} must be 0 or 1, got {cell!r}")
            values.append(cell == "1")
            continue
        try:
            values.append(kind(cell))
        except ValueError as exc:
            raise ValueError(name, str(exc)) from None
    return values


def out_of_range(record: type, values: list, cells: list[str],
                 unsigned: str = "") -> tuple[str, str] | None:
    """(field, why) of the first value that is an int outside int64 (uint64
    for the field named `unsigned`) or a float that is not finite, or None."""
    for (name, _, _), value, cell in zip(record_fields(record), values, cells):
        low, high, dtype = (0, 2**64 - 1, "uint64") if name == unsigned else (
            -2**63, 2**63 - 1, "int64")
        if type(value) is int and not low <= value <= high:
            return name, f"{name} does not fit in {dtype}"
        if type(value) is float and not math.isfinite(value):
            return name, f"{name} must be finite, got {cell!r}"
    return None


def run_with_final_state(index: WorldIndex, cfg: RunConfig, collect_events: bool = True
                         ) -> tuple[RunResult, SimulationState]:
    """The result of `engine.run` and the state that run ended on, kept by
    wrapping `engine.init_run` where `run` looks it up, as the benchmark's
    tracer does."""
    states = []
    real_init = engine.init_run

    def init_run(*args, **kwargs):
        states.append(real_init(*args, **kwargs))
        return states[-1]

    engine.init_run = init_run
    try:
        result = engine.run(index, cfg, collect_events=collect_events)
    finally:
        engine.init_run = real_init
    [state] = states
    return result, state


class LoggedEvent(NamedTuple):
    """One line of a run's event log, read back into its five cells."""

    tick: int
    agent_kind: str
    agent_id: int
    event: str
    detail: str


def events_of(lines: list[str]) -> list[LoggedEvent]:
    """The lines of a run's event log, each split into its five cells with
    `line.split(",", 4)`: a detail holds no comma, so a line with more
    cells fails to unpack."""
    events = []
    for line in lines:
        tick, kind, agent, event, detail = line.split(",", 4)
        events.append(LoggedEvent(int(tick), kind, int(agent), event, detail))
    return events


def split_lines_reference(text: str) -> list[str]:
    """The lines of a file by the rule of docs/formats.md, found one `\\n`
    at a time: only `\\n` ends a line, one `\\r` before it is dropped, and
    a final `\\n` starts no empty line."""
    lines = []
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        line = text[start:end]
        lines.append(line[:-1] if line[-1:] == "\r" else line)
        start = end + 1
    return lines


def rows_from_csv_reference(text: str) -> list[SweepRow]:
    """The results file read one line at a time: blank lines skipped, each
    other line split into 13 cells and parsed by `parse_cells`, the first
    bad line raising InputError.

    The line-by-line oracle of `sweep.rows_from_csv`, which reads columns.
    Like it, a line whose row parses but holds an int outside its field's
    range (uint64 for seed, int64 for the other int fields) or a float that
    is nan or infinite is refused, naming the line's first such field.
    """
    lines = split_lines_reference(text)
    if not lines or lines[0] != RESULTS_HEADER:
        raise InputError(f"results CSV header mismatch: expected {RESULTS_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 13:
            raise InputError(f"results CSV line {lineno}: expected 13 cells")
        try:
            values = parse_cells(SweepRow, cells)
        except ValueError as exc:
            raise InputError(f"results CSV line {lineno}: {exc.args[1]}") from None
        bad = out_of_range(SweepRow, values, cells, unsigned="seed")
        if bad is not None:
            raise InputError(f"results CSV line {lineno}: {bad[1]}")
        rows.append(SweepRow(*values))
    return rows


# Cells that numpy's text parser reads otherwise than int(), float() and a
# bool cell's exact 0 or 1: it strips whitespace and \x1c-\x1f around a
# number, a text cell drops a trailing NUL or \r, and `#` starts a comment
# unless told otherwise. Each character before, inside and after a number.
ODD_CELLS = tuple(form.format(c) for c in "\x00\x0b\x0c\r\x1c\x1d\x1e\x1f#\"'\u0663"
                  for form in ("{}1", "1{}0", "1{}"))

POPULATION_HEADER = ",".join(name for name, _, _ in record_fields(HouseholdProfile))


def parse_population_reference(text: str) -> list[HouseholdProfile]:
    """The population file read one line at a time, by the rules of
    docs/formats.md: the header line exact; blank and whitespace-only lines
    skipped; each other line split into 14 cells and parsed by
    `parse_cells`, its ints within int64 and its floats finite, each coded
    field one of its field's codes in CODED_FIELDS (tried in field order)
    and members at least 1. The first bad line raises InputError: "row N:
    <field>" for a cell at fault, else "row N: <why>".

    The line-by-line oracle of `population.parse_population`, which reads
    columns.
    """
    lines = split_lines_reference(text)
    if not lines:
        raise InputError("population CSV is empty")
    if lines[0] != POPULATION_HEADER:
        raise InputError(f"population CSV header mismatch: expected {POPULATION_HEADER!r}")
    profiles = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 14:
            raise InputError(f"row {lineno}: expected 14 cells")
        try:
            values = parse_cells(HouseholdProfile, cells)
        except ValueError as exc:
            raise InputError(f"row {lineno}: {exc.args[0]}") from None
        bad = out_of_range(HouseholdProfile, values, cells)
        if bad is not None:
            raise InputError(f"row {lineno}: {bad[0]}")
        household = HouseholdProfile(*values)
        for name, codes in CODED_FIELDS.items():
            value = getattr(household, name)
            if value not in codes.values():
                raise InputError(f"row {lineno}: {name} code {value!r} is not one of "
                                 f"{sorted(set(codes.values()))}")
        if household.members < 1:
            raise InputError(f"row {lineno}: members must be >= 1")
        profiles.append(household)
    return profiles


def parse_world_reference(text: str) -> World:
    """The world file read record by record through `textfile.content_lines`,
    with a closure per check: the oracle of the one-pass `geo.parse_world`,
    which must return an equal world or raise the same InputError text."""
    nodes: dict[int, Point] = {}
    edges: list[tuple[int, int, float]] = []
    edge_keys: set[tuple[int, int]] = set()
    buildings: dict[int, Point] = {}
    waterways: list[Waterway] = []
    shelters: list[Shelter] = []
    rescuer_starts: list[int] = []

    def fail(lineno: int, why: str) -> None:
        raise InputError(f"line {lineno}: {why}")

    def points(lineno: int, kind: str, coords: list[str]) -> list[Point]:
        values = [float(v) for v in coords]
        if not all(abs(v) <= MAX_COORDINATE_M for v in values):  # False for nan
            fail(lineno, f"{kind} coordinates must be finite and within +-{MAX_COORDINATE_M:g} m")
        return [Point(values[i], values[i + 1]) for i in range(0, len(values), 2)]

    for lineno, line in content_lines(text):
        parts = line.split("|")
        kind = parts[0]
        try:
            if kind == "node":
                if len(parts) != 4:
                    fail(lineno, "node expects node|id|x|y")
                nid = int(parts[1])
                if nid in nodes:
                    fail(lineno, f"duplicate node id {nid}")
                nodes[nid] = points(lineno, "node", parts[2:])[0]
            elif kind == "edge":
                if len(parts) not in (3, 4):
                    fail(lineno, "edge expects edge|a|b or edge|a|b|length")
                a, b = int(parts[1]), int(parts[2])
                if a == b:
                    fail(lineno, f"self-loop edge at node {a}")
                if a not in nodes or b not in nodes:
                    fail(lineno, f"edge references unknown node ({a},{b}); nodes must precede edges")
                key = (min(a, b), max(a, b))
                if key in edge_keys:
                    fail(lineno, f"duplicate edge {key}")
                edge_keys.add(key)
                euclid = nodes[a].distance_to(nodes[b])
                if euclid == 0.0:
                    fail(lineno, f"zero-length edge ({a},{b}): its nodes coincide")
                if len(parts) == 4:
                    stored = float(parts[3])
                    if not abs(stored - euclid) <= EDGE_LENGTH_TOL:
                        fail(
                            lineno,
                            f"edge length {stored} differs from endpoint distance "
                            f"{euclid:.9f} by more than {EDGE_LENGTH_TOL}",
                        )
                edges.append((a, b, euclid))
            elif kind == "building":
                if len(parts) != 4:
                    fail(lineno, "building expects building|id|x|y")
                bid = int(parts[1])
                if bid in buildings:
                    fail(lineno, f"duplicate building id {bid}")
                buildings[bid] = points(lineno, "building", parts[2:])[0]
            elif kind == "waterway":
                if len(parts) < 6 or len(parts) % 2 != 0:
                    fail(lineno, "waterway expects waterway|id|x1|y1|x2|y2|... (>= 2 points)")
                wid = int(parts[1])
                waterways.append(Waterway(wid, tuple(points(lineno, "waterway", parts[2:]))))
            elif kind == "shelter":
                if len(parts) != 5:
                    fail(lineno, "shelter expects shelter|id|node|capacity|external")
                shelters.append(
                    Shelter(
                        id=int(parts[1]),
                        node=int(parts[2]),
                        capacity=int(parts[3]),
                        external=_parse_bool(parts[4]),
                    )
                )
            elif kind == "rescuer_start":
                if len(parts) != 2:
                    fail(lineno, "rescuer_start expects rescuer_start|node")
                rescuer_starts.append(int(parts[1]))
            else:
                fail(lineno, f"unknown record kind {kind!r}")
        except ValueError as exc:
            fail(lineno, str(exc))

    return World(
        nodes=nodes,
        edges=edges,
        buildings=buildings,
        waterways=waterways,
        shelters=shelters,
        rescuer_starts=rescuer_starts,
    )
