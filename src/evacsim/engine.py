"""Discrete-time evacuation simulation.

One run: rescuers roam the road network informing households, informed
households score their perceived risk and either stay or walk to the
nearest shelter with room, shelter managers admit or redirect arrivals.
Every run is a pure function of (index, config). The `WorldIndex` owns
copies, taken when it is built, of what runs read of the world and the
population, and the `EngineParams` (rescuers, speeds, radii, tick length,
tick limit, fallback channel and epsilon range), the fixed model
parameters of an experiment. The `RunConfig` is one grid point of the
experiment (scenario, weights, threshold) plus the replicate seed. All
randomness flows from config.seed through two named streams, one consumed
in a fixed order at initialization (epsilon draws, fallback channel and
tick, rescuer placement) and one by the rescuer random walk during ticks.

A run has two phases. The inform phase (the draws, the rescuer walk and
the fallback channel) reads the index and the seed only, never the
scenario, the weights or the threshold, and cannot see decisions: only
unaware households are perceived, and they stay at home. It is computed
once into an `InformTimeline`, which the world index keeps for the next
run with the same seed. The walk is event-driven: a rescuer is visited in
a tick only if it reaches a node then, where it draws its next edge, or if
the candidate list it walks still holds an unaware household, which it
scans; it draws what a walk that moves every rescuer every tick draws, in
the same order. The timeline holds each household's inform tick and source
code, and the informed in inform order and in decide order (by inform
tick, then id: a household decides in the tick it is informed); `step`
replays a tick through one slice of each. A household's perceived risk
depends only on the seed (its epsilon draw and its source), the scenario
and the weights, so the runs of one seed group, which differ only in
threshold, share one perceived-risk array: the world index computes it
once per (seed, scenario, weights) and keeps the last one, and each run
compares it with its threshold once, in `init_run`. A household's walk
depends only on its house node and the shelters it heads for in turn, so
the world index computes the tick it reaches each shelter (NEVER past
max_ticks) once per (house node, shelter chain) and keeps it for every
later run. `step` then admits the households that arrive in its tick,
popped from a heap keyed by arrival. One pick sends a household off: from
its house when it departs, from a full shelter when it is redirected.

A household's state in a run is kept once, by the fact that makes it so:
it is unaware while no warning source has informed it; informed, it stays
unless its `evacuate` flag is set; evacuating, it is in the admission heap,
where a stranded household stays for good; sheltered, it is counted in its
shelter's admissions. A run ends when every household is informed and the
heap is empty, or at max_ticks, truncated. What a run learns of a household
beyond that (its source, the shelters it headed for, whether it stranded)
is a `HouseholdState` value, replaced and never changed: every household
starts on the one shared `UNAWARE` record and, once informed, takes the one
shared record of its source, so a run builds a record only for a household
that heads out or strands.

A run that collects events writes each as its line of the event log, once,
where it happens; `event_log_csv` only puts the header above the lines.
"""

from __future__ import annotations

import heapq
import math
import random
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InternalError
from .geo import (
    Shelter,
    World,
    nearest_road_nodes,
    points_near_edges,
    proximity_classes,
    segment_offsets,
    shortest_path_tree,
    within,
)
from .population import validate_profiles
from .risk import (
    EPSILON_MAX,
    Scenario,
    WarningSource,
    Weights,
    cdm_score,
    crf_score,
    decide,
    highest_possible_score,
    hrf_score,
    perceived_risk,
)
from .seeds import derive_seed

__all__ = [
    "EngineParams",
    "RunConfig",
    "RunResult",
    "SimulationState",
    "WorldIndex",
    "InformTimeline",
    "HouseholdState",
    "UNAWARE",
    "INFORMED_BY",
    "init_run",
    "step",
    "run",
    "event_log_csv",
]

# The arrival tick of a stranded household, and the arrival offset of a walk
# that would end past max_ticks: past any max_ticks, so it stays in the
# admission heap and is never popped.
NEVER = math.inf

@dataclass(frozen=True)
class EngineParams:
    """The fixed model parameters of an experiment, one per engine flag."""

    nb_rescuers: int = 15
    rescuer_radius: float = 50.0  # m, rescuer perception
    shelter_radius: float = 50.0  # m, shelter manager perception
    household_speed: float = 1.4  # m/s, walking
    rescuer_speed: float = 3.0  # m/s
    tick_seconds: float = 10.0
    max_ticks: int = 5000
    fallback_tick_min: int = 1000
    fallback_tick_max: int = 3000
    fallback_friends_prob: float = 0.5  # remainder goes to the media channel
    epsilon_min: float = 0.0
    epsilon_max: float = 0.05

    def __post_init__(self) -> None:
        for name in ("rescuer_radius", "shelter_radius", "household_speed", "rescuer_speed",
                     "tick_seconds"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value!r}")
            if value <= 0:
                raise InputError(f"{name} must be > 0")
        # A walk moves speed * tick_seconds metres a tick; an infinite move
        # never ends its first tick, and a move of 0 never leaves its start.
        for name in ("household_speed", "rescuer_speed"):
            move = getattr(self, name) * self.tick_seconds
            if math.isinf(move):
                raise InputError(f"{name} * tick_seconds overflows: the move per tick must be "
                                 "finite")
            if move == 0.0:
                raise InputError(f"{name} * tick_seconds underflows to 0: the move per tick "
                                 "must be > 0")
        # A range test compares squares (geo.within); a radius whose square
        # is not a normal float would admit offsets whose squares underflow.
        for name in ("rescuer_radius", "shelter_radius"):
            radius = getattr(self, name)
            if radius * radius < sys.float_info.min:
                raise InputError(f"{name} * {name} underflows: the radius must be >= "
                                 f"{math.sqrt(sys.float_info.min)!r} m")
        if self.max_ticks < 1:
            raise InputError("max_ticks must be >= 1")
        if self.nb_rescuers < 0:
            raise InputError("nb_rescuers must be >= 0")
        # A run's first tick is 1: no fallback inform could happen earlier.
        if not 1 <= self.fallback_tick_min <= self.fallback_tick_max:
            raise InputError("fallback tick window requires 1 <= min <= max")
        if not 0.0 <= self.fallback_friends_prob <= 1.0:
            raise InputError("fallback_friends_prob outside [0, 1]")
        if not 0.0 <= self.epsilon_min <= self.epsilon_max <= EPSILON_MAX:
            raise InputError(f"epsilon range must satisfy 0 <= min <= max <= {EPSILON_MAX}")


@dataclass(frozen=True, slots=True)
class RunConfig:
    """One grid point of the experiment and the replicate seed."""

    scenario: Scenario
    weights: Weights
    threshold: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise InputError(f"threshold {self.threshold!r} outside [0, 1]")
        # The results file holds a seed as an unsigned 64-bit integer.
        if not 0 <= self.seed <= 2**64 - 1:
            raise InputError(f"seed {self.seed!r} outside [0, 2**64 - 1]")


@dataclass
class RunResult:
    """What a run reports; its `events`, if collected, are the lines of its
    event log, with no header and no newline."""

    evacuated: int
    ticks_elapsed: int
    truncated: bool
    time_series: list[int]  # cumulative evacuate decisions after each tick
    sheltered_by_shelter: dict[int, int]  # shelter id -> admitted households
    shelter_occupancy: dict[int, int]  # shelter id -> persons
    stayed: int
    events: list[str] | None


@dataclass(frozen=True)
class InformTimeline:
    """The inform phase of a run, as tuples the runs of its seed read: its
    init-stream draws; per household, the code of the source that informed
    it (NaN if none did) and its inform tick (0 if none: ticks start at 1);
    the informed in inform order (rescuers first within a tick) and in
    decide order (by inform tick, then id); and per tick from 0 to the
    walk's last, how many are informed by its end, so that a tick's informs
    are one slice of either order."""

    epsilon: tuple[float, ...]
    fallback_source: tuple[float, ...]
    fallback_tick: tuple[int, ...]
    placed: tuple[int, ...]  # start node of each rescuer
    source: tuple[float, ...]
    inform_tick: tuple[int, ...]
    inform_order: tuple[int, ...]
    decide_order: tuple[int, ...]
    informed_by: tuple[int, ...]


class WorldIndex:
    """The one owner of what runs read of a world and a population, copied
    when it is built so that a later change to either reaches no run, and
    of the engine parameters and the precomputation shared by every run.

    Checks, when built, what its parameters cannot check alone: raises
    InputError on rescuers for a world with no rescuer_start nodes or with
    an edge too short to shrink a rescuer's move per tick, and on a
    population, one array per HouseholdProfile field, that
    `validate_profiles` refuses (`check_codes`, then the households' fit
    together and to the world); it is the one owner of that check. Holds
    the parameters, node positions (`nodes`), rescuer starts, house
    positions, snapped road nodes, hazard proximity codes
    (`proximity_code`), per-household CDM and CRF scores (`cdm_score` and
    `crf_score` of the columns), one shortest-path tree per shelter for
    routing (`shelter_next`), and the inform timeline of the last seed it
    served, which holds what every run of that seed reads. The parameters
    are frozen, so the timeline is keyed on the seed alone. It also keeps
    the perceived-risk array of the last (seed, scenario, weights) it
    served: those are every input of the array besides the index's own.

    Both of its tables of what lies near a road pad their radius by one
    margin, `reach(radius)`, so that no rounding of a walk's position can
    put a point within the radius of that position outside the table.

    For the rescuer walk it holds the households a rescuer could perceive
    from a point of each edge: `candidate_lists`, numbered in world.edges
    order, each every house within reach(rescuer_radius) of the segment in
    ascending id: a superset of anything perceivable from a rescuer's
    computed position on the edge or at either end of it. `slots_of` maps
    a household to the numbers of the edge lists holding it, so a walk can
    count the unaware households of each list. The linked move table
    `move_rows` holds one row per (node, node a rescuer came from, or None
    at its start, so that no node id can be taken for a start), and
    `start_row` numbers each node's start row. A row is (choices, choice
    count, the count's bit length), the choices in adjacency order without
    the way back unless that is the only way, and a choice is (next node,
    edge length, edge list number, the row its walker draws from at the
    next node), so a walk follows row numbers and never looks up where it
    came from.

    For the households it holds `shelter_order`: per road node, the
    shelters it reaches, internal before external, then by distance, then
    by id; and it memoises `arrival_offset` per (house node, shelter chain).
    Their walks read the leg table `legs`, built once with the index: per
    directed road leg (a, b), its length, math.hypot(b.x - a.x, b.y - a.y),
    and the ids of the shelters within reach(shelter_radius) of the leg,
    so no walk measures a leg again.
    """

    def __init__(self, world: World, population: dict[str, np.ndarray],
                 params: EngineParams = EngineParams()):
        if params.nb_rescuers > 0:
            if not world.rescuer_starts:
                raise InputError("nb_rescuers > 0 but the world has no rescuer_start nodes")
            # A rescuer's tick ends only if each edge it walks shrinks the
            # move it has left.
            move = params.rescuer_speed * params.tick_seconds
            shortest = min((length for _, _, length in world.edges), default=math.inf)
            if shortest <= math.ulp(move):
                raise InputError(f"rescuer_speed * tick_seconds ({move!r} m) is too large for "
                                 f"the shortest edge ({shortest!r} m): walking it would not "
                                 "shrink the move left in a tick")
        validate_profiles(population, world)
        self.params = params
        self.nodes = nodes = dict(world.nodes)  # Point is frozen: a full copy
        self.rescuer_starts = tuple(world.rescuer_starts)
        self.n = len(population["id"])
        self.members = tuple(population["members"].tolist())
        self.cdm = cdm_score(population)
        self.crf = crf_score(population)
        houses = [world.buildings[b] for b in population["building_id"].tolist()]
        self.house_pos = [(pos.x, pos.y) for pos in houses]
        self.house_node = nearest_road_nodes(world, houses)
        self.proximity_code = np.array([c.value for c in proximity_classes(world, houses)],
                                       dtype=float)

        # The margin of the tables. A walk's computed position and a
        # segment offset round by a few ulps of the largest node coordinate
        # and of the radius; a difference from a house or a shelter, and a
        # square, by a few ulps of themselves. 6e-9 of that coordinate and
        # 1e-9 of the radius cover them a million times over.
        xy = [c for p in nodes.values() for c in (p.x, p.y)]
        slack = 6e-9 * max(max(xy), -min(xy))

        def reach(radius: float) -> float:
            return (radius + slack) * (1 + 1e-9)

        near_edges = points_near_edges(world, houses, reach(params.rescuer_radius))
        self.candidate_lists = tuple(near_edges.values())
        edge_slot = {key: slot for slot, key in enumerate(near_edges)}
        # neighbour -> (length of its first adjacency entry, list number), per node
        edges: dict[int, dict[int, tuple[float, int]]] = {}
        row_of: dict[tuple[int, int | None], int] = {}  # (node, came-from) -> row number
        for node, nbrs in world.adjacency.items():
            edge = edges[node] = {}
            for nb, length in nbrs:
                edge.setdefault(nb, (length, edge_slot[(node, nb) if node < nb else (nb, node)]))
            for prev in (None, *edge):
                row_of[(node, prev)] = len(row_of)
        self.start_row = {node: row_of[(node, None)] for node in edges}
        # Every choice of a node, in adjacency order; a row drops the way
        # back unless that is the only way.
        choices_of = {node: tuple((nb, *edge[nb], row_of[(nb, node)])
                                  for nb, _ in world.adjacency[node])
                      for node, edge in edges.items()}
        rows = []
        for node, prev in row_of:
            choices = choices_of[node]
            if prev is not None and len(choices) > 1:
                choices = tuple(c for c in choices if c[0] != prev)
            rows.append((choices, len(choices), len(choices).bit_length()))
        self.move_rows = tuple(rows)
        slots_of: list[list[int]] = [[] for _ in range(self.n)]
        for slot, cands in enumerate(self.candidate_lists):
            for hid in cands:
                slots_of[hid].append(slot)
        self.slots_of = tuple(map(tuple, slots_of))

        # One shortest-path tree per shelter: dist and next-hop-toward-shelter
        # for every road node it reaches. Undirected graph, so dist(node,
        # shelter) is read straight off the tree.
        self.shelter_next: dict[int, dict[int, int]] = {}
        reached: dict[int, list[tuple[bool, float, int]]] = {node: [] for node in world.nodes}
        for s in world.shelters:
            dist, parent = shortest_path_tree(world, s.node)
            self.shelter_next[s.id] = parent
            for node, d in dist.items():
                reached[node].append((s.external, d, s.id))
        self.shelters_by_id: dict[int, Shelter] = {s.id: s for s in world.shelters}
        self.shelter_order: dict[int, tuple[Shelter, ...]] = {
            node: tuple(self.shelters_by_id[sid] for _, _, sid in sorted(keys))
            for node, keys in reached.items()}

        # The leg table, one near set of shelters per directed leg.
        ends = [(a, b) for a, b, _ in world.edges]
        ends += [(b, a) for a, b in ends]
        # one row per leg, one column per shelter
        ax, ay, bx, by = (np.array(c, dtype=float).reshape(-1, 1) for c in (
            [nodes[a].x for a, _ in ends], [nodes[a].y for a, _ in ends],
            [nodes[b].x for _, b in ends], [nodes[b].y for _, b in ends]))
        sx = np.array([nodes[s.node].x for s in world.shelters], dtype=float)
        sy = np.array([nodes[s.node].y for s in world.shelters], dtype=float)
        ex, ey = segment_offsets(sx, sy, ax, ay, bx, by)
        near: list[list[int]] = [[] for _ in ends]
        legs, columns = np.nonzero(within(ex, ey, reach(params.shelter_radius)))
        for leg, k in zip(legs.tolist(), columns.tolist()):
            near[leg].append(world.shelters[k].id)
        self.legs: dict[tuple[int, int], tuple[float, frozenset[int]]] = {
            (a, b): (math.hypot(nodes[b].x - nodes[a].x, nodes[b].y - nodes[a].y),
                     frozenset(ids))
            for (a, b), ids in zip(ends, near)}
        self._timeline: tuple[int, InformTimeline] | None = None  # (seed, its timeline)
        self._risk_key: tuple[int, Scenario, Weights] | None = None
        self._risk: np.ndarray | None = None
        # (house node, shelter chain) -> (arrival offset, route, leg,
        # progress, x, y) of the walk at its arrival tick
        self._walks: dict[tuple[int, tuple[int, ...]],
                          tuple[float, list[int], int, float, float, float]] = {}

    def inform_timeline(self, seed: int) -> InformTimeline:
        """The inform phase of a run with this seed: the one memoised from
        the last call if it had the same seed, else a fresh walk."""
        memo = self._timeline
        if memo is None or memo[0] != seed:
            memo = self._timeline = (seed, _walk_rescuers(self, seed))
        return memo[1]

    def perceived(self, seed: int, scenario: Scenario, weights: Weights) -> np.ndarray:
        """Every household's perceived risk in a run with this seed, scenario
        and weights, whatever its threshold: the one memoised from the last
        call if it had the same three, else a fresh array. A household's
        source code and its epsilon are the seed's inform timeline's (the
        code NaN if it is never informed)."""
        key = (seed, scenario, weights)
        if key != self._risk_key:
            timeline = self.inform_timeline(seed)
            hrf = hrf_score(scenario, self.proximity_code, np.array(timeline.source))
            self._risk = perceived_risk(self.cdm, hrf, self.crf, np.array(timeline.epsilon),
                                        weights)
            self._risk.flags.writeable = False  # every run of the key reads it
            self._risk_key = key
        return self._risk

    def arrival_offset(self, node: int, chain: tuple[int, ...]) -> float:
        """The tick, counted from its decision tick, on which a household
        that departs from road node `node` first comes within shelter_radius
        of chain[-1]. It heads for chain[0] and, on reaching each earlier
        shelter of the chain, is redirected to the next one: it finishes
        its route to the full shelter, then follows the tail from there,
        carrying its progress along the current leg.

        A household moves in its decision tick, so one whose house node is
        the shelter's arrives at offset 0. The walk advances household_speed
        * tick_seconds metres per tick along the route's legs and tests the
        distance to the target at the end of each tick. A walk that has not
        arrived by offset max_ticks arrives NEVER, and so does every longer
        chain that continues it. Memoised with the walk's route, leg,
        progress and position at arrival, so a longer chain continues from
        the state of its prefix.
        """
        key = (node, chain)
        walk = self._walks.get(key)
        if walk is None:
            if len(chain) == 1:
                p = self.nodes[node]
                start, offset, route, leg, progress, x, y = node, -1, [node], 0, 0.0, p.x, p.y
            else:
                self.arrival_offset(node, chain[:-1])
                start = self.shelters_by_id[chain[-2]].node
                offset, route, leg, progress, x, y = self._walks[(node, chain[:-1])]
            # The tail of the route: the next hops from the start to the
            # shelter's node, read off its shortest-path tree.
            nxt = self.shelter_next[chain[-1]]
            target = self.shelters_by_id[chain[-1]].node
            route = route[leg:]
            while start != target:
                start = nxt[start]
                route.append(start)
            walk = self._walk(chain[-1], offset, route, progress, x, y)
            self._walks[key] = walk
        return walk[0]

    def _walk(self, shelter_id: int, offset: float, route: list[int], progress: float,
              x: float, y: float) -> tuple[float, list[int], int, float, float, float]:
        """Walk from the state at `offset`, `progress` metres along the first
        leg of `route`, one tick at a time until within shelter_radius of the
        shelter (its end always is), or, as NEVER, past offset max_ticks.

        A tick ends on a point of the leg it walked last, up to the rounding
        of the interpolation. On a leg whose segment is not within
        reach(shelter_radius) of the shelter, the index's margin over that
        rounding, no tick can end in range: the walk only adds up its
        progress there, and the position it returns with NEVER may be
        stale. Each leg's length and whether it is that far from the
        shelter are read off the index's leg table `legs`."""
        p = self.params
        move = p.household_speed * p.tick_seconds
        r2 = p.shelter_radius * p.shelter_radius
        max_ticks = p.max_ticks
        nodes = self.nodes
        legs = self.legs
        spos = nodes[self.shelters_by_id[shelter_id].node]
        sx, sy = spos.x, spos.y
        last = len(route) - 1
        leg = 0
        measured = -1  # the leg whose end points, length and farness a, b, leg_len, far hold
        far = False
        while True:
            offset += 1
            if offset > max_ticks:
                return NEVER, route, leg, progress, x, y
            budget = move
            while budget > 0.0 and leg < last:
                if leg != measured:
                    a = nodes[route[leg]]
                    b = nodes[route[leg + 1]]
                    leg_len, near = legs[route[leg], route[leg + 1]]
                    far = shelter_id not in near
                    measured = leg
                remaining = leg_len - progress
                if budget < remaining:
                    progress += budget
                    budget = 0.0
                    if far:
                        # and so does every next tick a whole move fits in
                        while move < leg_len - progress and offset < max_ticks:
                            offset += 1
                            progress += move
                    else:
                        f = progress / leg_len
                        x = a.x + (b.x - a.x) * f
                        y = a.y + (b.y - a.y) * f
                else:
                    budget -= remaining
                    leg += 1
                    progress = 0.0
                    x, y = b.x, b.y
            if not far:
                dx = x - sx
                dy = y - sy
                if dx * dx + dy * dy <= r2:
                    return offset, route, leg, progress, x, y


class HouseholdState:
    """What a run learns of one household beyond its decision: the source
    that informed it, the shelters it headed for and whether it stranded.

    A value, shared until it changes: a run replaces a household's record
    and never changes one. Every household starts on the one `UNAWARE`
    record and, when informed, takes the one record of its source
    (`INFORMED_BY`, keyed by the source's code); a record of its own is
    built only when it heads out, is redirected or strands. Two records are
    equal only if they are one object.

    Its state in the run is held once, by the run: it is unaware while its
    source is None; once informed it stays if `SimulationState.evacuate`
    says so, and otherwise evacuates, in the admission heap until it is
    admitted (a stranded household never leaves the heap). The admitted
    are counted per shelter in `SimulationState.admitted`."""

    __slots__ = ("source", "chain", "stranded")

    def __init__(self, source: WarningSource | None = None, chain: tuple[int, ...] = (),
                 stranded: bool = False) -> None:
        self.source = source
        # The shelters it headed for, in order; the last is its target.
        self.chain = chain
        self.stranded = stranded

    @property
    def tried_shelters(self) -> tuple[int, ...]:
        """The shelters this household found full."""
        return self.chain if self.stranded else self.chain[:-1]


# The record of every unaware household, and of every informed one that has
# not headed out, per warning source code.
UNAWARE = HouseholdState()
INFORMED_BY = {source.value: HouseholdState(source) for source in WarningSource}
# The detail of an `informed` event, per warning source code.
SOURCE_NAME = {source.value: source.name.lower() for source in WarningSource}


@dataclass
class SimulationState:
    cfg: RunConfig
    index: WorldIndex
    timeline: InformTimeline
    evacuate: list[bool]  # per household, perceived > threshold * highest possible score
    households: list[HouseholdState]  # per household, shared until it heads out
    occupancy: dict[int, int]  # shelter id -> persons
    admitted: dict[int, int]  # shelter id -> households
    tick: int = 0
    informed_count: int = 0
    evacuate_decisions: int = 0
    time_series: list[int] = field(default_factory=list)
    events: list[str] | None = None  # the event log's lines, if collected
    # While events are collected: the perceived risks as Python floats, and
    # the `highest=` part of every `decided` detail, formatted once per run.
    event_perceived: list[float] | None = None
    event_highest: str = ""
    # The admission heap: one (arrival tick, decision tick, household id)
    # per evacuating household, NEVER as the arrival of a stranded one.
    moving: list[tuple[float, int, int]] = field(default_factory=list)


def init_run(index: WorldIndex, cfg: RunConfig, collect_events: bool = True) -> SimulationState:
    """Build the tick-0 state of a run with cfg on index's world,
    population and parameters. Identical inputs give bit-identical states."""
    timeline = index.inform_timeline(cfg.seed)
    perceived = index.perceived(cfg.seed, cfg.scenario, cfg.weights)
    highest = highest_possible_score(cfg.weights)
    evacuate = decide(perceived, highest, cfg.threshold).tolist()
    households = [UNAWARE] * index.n

    events: list[str] | None = None
    event_perceived: list[float] | None = None
    event_highest = ""
    if collect_events:
        events = [f"0,rescuer,{i},placed,node={node}" for i, node in enumerate(timeline.placed)]
        event_perceived = perceived.tolist()
        event_highest = f"highest={highest:.6f}"
    return SimulationState(
        cfg=cfg,
        index=index,
        timeline=timeline,
        evacuate=evacuate,
        households=households,
        occupancy=dict.fromkeys(index.shelters_by_id, 0),
        admitted=dict.fromkeys(index.shelters_by_id, 0),
        events=events,
        event_perceived=event_perceived,
        event_highest=event_highest,
    )


def _walk_rescuers(index: WorldIndex, seed: int) -> InformTimeline:
    """Draw a run's init stream, then walk its rescuers and fire the
    fallback channel until every household is informed or max_ticks is
    reached.

    Each tick visits the rescuers in ascending order, as a walk that moves
    every rescuer every tick would, but a rescuer does work only when it
    reaches a node (or stands on one) in that tick, or when the candidate
    list of the edge it walks or last walked still holds an unaware
    household; the walk counts those per edge list only. A rescuer whose
    budget ends exactly on a node stands there for the tick, on the edge it
    came by with the node at both ends, and scans that edge's list. On
    entering an edge it computes the tick it reaches the far node and the
    budget it has left then, by the same float additions the tick-by-tick
    walk makes; its progress along the edge is advanced by those additions
    only when it scans. A tick's informs keep their order: rescuers, then
    the fallback channel. The walk records each household's source code
    and tick as it informs it, and sorts the decide order once at the end.

    Every fallback tick is drawn in stream order, but the schedule of the
    fallback channel is built only when the walk reaches
    fallback_tick_min, and only from the households still unaware then: a
    walk that ends sooner never reads it."""
    n = index.n
    p = index.params
    # Both streams draw an integer below m as CPython's randrange does
    # (Random._randbelow_with_getrandbits): getrandbits(m.bit_length())
    # until the value is below m, so a one-wide range still draws.
    rng_init = random.Random(derive_seed(seed, "init"))
    rand, bits_init = rng_init.random, rng_init.getrandbits
    eps_lo, eps_span = p.epsilon_min, p.epsilon_max - p.epsilon_min
    friends_prob = p.fallback_friends_prob
    friends, media = WarningSource.FRIENDS.value, WarningSource.MEDIA.value
    tick_lo, ticks = p.fallback_tick_min, p.fallback_tick_max + 1 - p.fallback_tick_min
    tick_bits = ticks.bit_length()
    epsilon: list[float] = []
    fallback_source: list[float] = []
    fallback_tick: list[int] = []
    for _ in range(n):
        # random.uniform, spelled as its docs define it
        epsilon.append(eps_lo + eps_span * rand())
        fallback_source.append(friends if rand() < friends_prob else media)
        # random.randint(fallback_tick_min, fallback_tick_max)
        drawn = bits_init(tick_bits)
        while drawn >= ticks:
            drawn = bits_init(tick_bits)
        fallback_tick.append(tick_lo + drawn)
    starts = index.rescuer_starts
    start_bits = len(starts).bit_length()
    placed_at: list[int] = []
    for _ in range(p.nb_rescuers):
        drawn = bits_init(start_bits)
        while drawn >= len(starts):
            drawn = bits_init(start_bits)
        placed_at.append(starts[drawn])
    placed = tuple(placed_at)

    getrandbits = random.Random(derive_seed(seed, "walk")).getrandbits
    budget = p.rescuer_speed * p.tick_seconds
    r2 = p.rescuer_radius * p.rescuer_radius
    max_ticks = p.max_ticks
    authorities = WarningSource.AUTHORITIES.value
    house_pos = index.house_pos
    nodes = index.nodes
    move_rows = index.move_rows
    lists = index.candidate_lists
    slots_of = index.slots_of
    # The unaware households of each edge list, and past them the count 0
    # of the list number `nowhere`, of a rescuer that has walked no edge.
    nowhere = len(lists)
    unaware_in = [len(cands) for cands in lists] + [0]
    # The rescuers as parallel lists: the node each last left or stands on,
    # the edge it walks (its far node, the same node while standing on it,
    # and the length of the edge it walks or came by), the move-table row it
    # draws from at the node it stands on or walks to, its progress along
    # the edge and the tick that progress is for, the list number of its
    # candidates, and the tick it next reaches or stands on a node with the
    # budget it has left then (NEVER if that is past max_ticks, or if its
    # start node has no road: such a rescuer walks no edge and so informs
    # nobody).
    k = len(placed)
    at = list(placed)
    row = [index.start_row[node] for node in placed]
    to = list(placed)
    edge_len = [0.0] * k
    progress = [0.0] * k
    walked = [0] * k
    slot = [nowhere] * k
    arrive: list[float] = [1 if move_rows[here][1] else NEVER for here in row]
    left_then = [budget] * k
    source = [math.nan] * n
    inform_tick = [0] * n  # 0 while unaware
    order: list[int] = []
    informed_by = [0]
    fallback_schedule: dict[int, list[int]] = {}
    t = 0
    while len(order) < n and t < max_ticks:
        t += 1
        # (1) rescuers roam; (2) they inform unaware households in range
        for r in range(k):
            if arrive[r] == t:
                node = nxt = to[r]
                left, here, length, edge_slot = left_then[r], row[r], edge_len[r], slot[r]
                while left > 0.0:  # standing on a node: pick an edge
                    choices, count, bits = move_rows[here]
                    if count > 1:
                        drawn = getrandbits(bits)
                        while drawn >= count:
                            drawn = getrandbits(bits)
                        nxt, length, edge_slot, here = choices[drawn]
                    else:
                        nxt, length, edge_slot, here = choices[0]
                    if left < length:
                        break
                    left -= length
                    node = nxt
                at[r], to[r], row[r], edge_len[r], slot[r] = node, nxt, here, length, edge_slot
                walked[r] = t
                if node == nxt:  # the budget ended exactly on a node
                    progress[r] = 0.0
                    arrive[r] = t + 1
                    left_then[r] = budget
                else:
                    progress[r] = done = left
                    reach = t + 1
                    while budget < length - done and reach <= max_ticks:
                        done += budget
                        reach += 1
                    if reach > max_ticks:
                        arrive[r] = NEVER
                    else:
                        arrive[r] = reach
                        left_then[r] = budget - (length - done)
            if not unaware_in[slot[r]]:
                continue
            done = progress[r]
            for _ in range(t - walked[r]):
                done += budget
            progress[r], walked[r] = done, t
            pa = nodes[at[r]]
            pb = nodes[to[r]]
            f = done / edge_len[r]  # 0.0 on a node, whose coordinates it then gives
            rx = pa.x + (pb.x - pa.x) * f
            ry = pa.y + (pb.y - pa.y) * f
            for hid in lists[slot[r]]:
                if not inform_tick[hid]:
                    hx, hy = house_pos[hid]
                    hx -= rx
                    hy -= ry
                    if hx * hx + hy * hy <= r2:
                        source[hid] = authorities
                        inform_tick[hid] = t
                        order.append(hid)
                        for s in slots_of[hid]:
                            unaware_in[s] -= 1
        # (3) fallback channel fires on its pre-drawn tick
        if t == tick_lo:
            for hid, tick in enumerate(fallback_tick):
                if not inform_tick[hid]:
                    fallback_schedule.setdefault(tick, []).append(hid)
        for hid in fallback_schedule.pop(t, ()):
            if not inform_tick[hid]:
                source[hid] = fallback_source[hid]
                inform_tick[hid] = t
                order.append(hid)
                for s in slots_of[hid]:
                    unaware_in[s] -= 1
        informed_by.append(len(order))
    decide_order = sorted(sorted(order), key=inform_tick.__getitem__)
    return InformTimeline(tuple(epsilon), tuple(fallback_source), tuple(fallback_tick), placed,
                          tuple(source), tuple(inform_tick), tuple(order), tuple(decide_order),
                          tuple(informed_by))


def _pick_shelter(state: SimulationState, node: int, members: int,
                  exclude: tuple[int, ...]) -> int | None:
    """Nearest internal shelter that would fit, else nearest external.

    Ties break by shelter id; unreachable shelters are skipped. External
    shelters are unbounded, so exclude and capacity do not apply to them.
    """
    occupancy = state.occupancy
    for shelter in state.index.shelter_order[node]:
        if shelter.external or (shelter.id not in exclude
                                and occupancy[shelter.id] + members <= shelter.capacity):
            return shelter.id
    return None


def _head_out(state: SimulationState, hid: int, decided: int) -> None:
    """Send an evacuating household to the shelter _pick_shelter picks:
    from its house node when it departs, or from the node of the shelter
    that is full, with its chain excluded, when it is redirected. The
    household finishes its walk to a full shelter before heading out again.
    Queue its arrival, or strand it if no shelter is left."""
    index = state.index
    h = state.households[hid]
    chain = h.chain
    full = chain[-1] if chain else None
    node = index.house_node[hid] if full is None else index.shelters_by_id[full].node
    target = _pick_shelter(state, node, index.members[hid], chain)
    if target is None:
        state.households[hid] = HouseholdState(h.source, chain, True)
        heapq.heappush(state.moving, (NEVER, decided, hid))
        if state.events is not None:
            detail = ("no reachable shelter" if full is None
                      else f"no capacity anywhere after shelter={full}")
            state.events.append(f"{state.tick},household,{hid},stranded,{detail}")
    else:
        chain += (target,)
        state.households[hid] = HouseholdState(h.source, chain)
        arrival = decided + index.arrival_offset(index.house_node[hid], chain)
        heapq.heappush(state.moving, (arrival, decided, hid))
        if state.events is not None:
            state.events.append(
                f"{state.tick},household,{hid},depart,shelter={target}" if full is None
                else f"{state.tick},household,{hid},redirected,from={full} to={target}")


def step(state: SimulationState) -> SimulationState:
    """Advance one tick in place and return the state."""
    index = state.index
    if state.tick >= index.params.max_ticks:
        raise InputError("step called past max_ticks")
    state.tick += 1
    t = state.tick
    households = state.households
    events = state.events
    moving = state.moving

    timeline = state.timeline
    bounds = timeline.informed_by
    if t < len(bounds) and bounds[t] > state.informed_count:
        # (1)-(3) the informs of this tick, as the rescuer walk recorded them
        a = state.informed_count
        b = state.informed_count = bounds[t]
        source = timeline.source
        if events is not None:
            events += [f"{t},household,{hid},informed,{SOURCE_NAME[source[hid]]}"
                       for hid in timeline.inform_order[a:b]]
            perceived, highest = state.event_perceived, state.event_highest
        # (4) the newly informed, in ascending id, act on the decision
        # init_run made
        evacuate = state.evacuate
        shared = INFORMED_BY
        for hid in timeline.decide_order[a:b]:
            households[hid] = shared[source[hid]]
            go = evacuate[hid]
            if events is not None:
                events.append(f"{t},household,{hid},decided,{'evacuate' if go else 'stay'} "
                              f"perceived={perceived[hid]:.6f} {highest}")
            if go:
                state.evacuate_decisions += 1
                _head_out(state, hid, t)

    # (5) shelter managers admit the households arriving now, or redirect them
    occupancy = state.occupancy
    while moving and moving[0][0] <= t:
        _, decided, hid = heapq.heappop(moving)
        shelter = index.shelters_by_id[households[hid].chain[-1]]
        members = index.members[hid]
        if not (shelter.external or occupancy[shelter.id] + members <= shelter.capacity):
            _head_out(state, hid, decided)
            continue
        occupancy[shelter.id] += members
        state.admitted[shelter.id] += 1
        if not shelter.external and occupancy[shelter.id] > shelter.capacity:
            raise InternalError(
                f"shelter {shelter.id} over capacity: "
                f"{occupancy[shelter.id]} > {shelter.capacity}"
            )
        if events is not None:
            events.append(f"{t},household,{hid},admitted,"
                          f"shelter={shelter.id} occupancy={occupancy[shelter.id]}")

    state.time_series.append(state.evacuate_decisions)
    return state


def run(index: WorldIndex, cfg: RunConfig, collect_events: bool = True) -> RunResult:
    """Step until every household is informed and the admission heap is
    empty, or max_ticks is reached; a run that stops with a household
    unaware or in the heap (a stranded one, say) is truncated."""
    state = init_run(index, cfg, collect_events=collect_events)
    n = index.n
    max_ticks = index.params.max_ticks
    while (state.informed_count < n or state.moving) and state.tick < max_ticks:
        step(state)
    truncated = state.informed_count < n or bool(state.moving)
    if not truncated and UNAWARE in state.households:
        raise InternalError(f"household {state.households.index(UNAWARE)} ended unaware at "
                            "natural termination")
    if state.evacuate_decisions != len(state.moving) + sum(state.admitted.values()):
        raise InternalError("evacuate decision counter out of sync")
    return RunResult(
        evacuated=state.evacuate_decisions,
        ticks_elapsed=state.tick,
        truncated=truncated,
        time_series=state.time_series,
        sheltered_by_shelter=dict(state.admitted),
        shelter_occupancy=dict(state.occupancy),
        stayed=state.informed_count - state.evacuate_decisions,
        events=state.events,
    )


EVENT_LOG_HEADER = "tick,agent_kind,agent_id,event,detail"


def event_log_csv(lines: list[str]) -> str:
    """The event log file: the header, then a run's event lines."""
    return "\n".join([EVENT_LOG_HEADER, *lines]) + "\n"
