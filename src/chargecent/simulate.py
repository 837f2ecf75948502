"""Realized-centrality simulators: spreading influence and traffic occupation.

The spreading model is a synchronous infect-once process where each infected
node carries a residual charge: transmission to a non-refill neighbor needs
charge >= 1 and hands down charge - 1 (refill neighbors always accept and
restart at full charge). A node's realized influence is its mean outbreak
size as seed.

The traffic model hops one particle per node per time step. Particles are
injected for sampled feasible source-target pairs and routed by charge- and
target-aware policies; a move into an occupied node blocks and the particle
waits. The realized score is each node's occupation ratio.
"""

from __future__ import annotations

import bisect
import itertools
import logging
from dataclasses import dataclass
import numpy as np

from .errors import NumericalError
from .graph import integer
from .scores import ScoreVector
from .statespace import SocInstance, check_pairs, draw_feasible_pair

logger = logging.getLogger(__name__)

POLICIES = ("shortest-feasible", "random-feasible")
# Congestion relief: after this many consecutive blocked steps a particle prefers
# a free equally-short successor; after the larger threshold it takes any free
# feasibility-preserving successor.
STALL_REROUTE_AFTER = 3
STALL_ESCAPE_AFTER = 25
# Bound on c * runs * n, the (episode, node) cells of one chunk's ``infected``
# array, for c seed nodes per chunk. sir_influence on 2 vCPUs by SIR_CELLS: the
# median over 5 processes of each one's median of 7 runs, and peak RSS ("per
# seed": one frontier per seed node). Spread's instance is BA n=300, ratio 0.3,
# 80 runs (c = 43 at 2**20); criterion 5's BA n=500, 1000 runs (c = 2 at 2**20).
#              per seed  2**19  2**20  2**21  2**22  2**23  2**24
#   spread s     0.047   0.012  0.010  0.009  0.009  0.009  0.009
#   spread MB    63.2    64.0   64.7   66.0   68.6   72.2   72.2
#   crit. 5 s    0.164   0.168  0.130  0.107  0.090  0.081  0.069
#   crit. 5 MB   65.0    65.2   66.0   67.1   69.3   73.7   84.1
SIR_CELLS = 2**20

# ---------------------------------------------------------------------------
# Spreading influence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SirParams:
    alpha: float
    runs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("transmission probability must lie in [0,1]")
        if integer(self.runs, "runs") < 1:
            raise ValueError("runs must be positive")


def _sir_outbreaks(inst: SocInstance, seeds, seed: int, alpha: float, runs: int) -> np.ndarray:
    """Outbreak sizes from full charge, one row of ``runs`` independent episodes per node of ``seeds``.

    All episodes advance together, one synchronous round at a time; episode e
    is run e % runs of ``seeds[e // runs]``. The frontier holds the (episode,
    node, charge) triples infected in the last round, in (episode, node) order.
    Each round every out-arc of every frontier entry takes one draw from its
    seed v's stream ``default_rng([seed, v])``, seeds in order, and transmits
    when the draw is below ``alpha``, its head is still susceptible in that
    episode, and the head is a refill node or the tail has charge left. A head
    reached by several arcs keeps the largest handed charge.
    """
    g = inst.graph
    n, kappa, refill = g.n, inst.kappa, inst.refill
    rngs = [np.random.default_rng([seed, int(v)]) for v in seeds]
    episodes = len(rngs) * runs
    infected = np.zeros(episodes * n, dtype=np.int8)  # ever infected, per (episode, node)
    ep = np.arange(episodes, dtype=np.int64)
    node = np.repeat(np.asarray(seeds, dtype=np.int64), runs)
    charge = np.full(episodes, kappa, dtype=np.int64)
    infected[ep * n + node] = 1
    sizes = np.ones(episodes, dtype=np.int64)
    while True:
        starts = g.indptr[node]
        cnt = g.indptr[node + 1] - starts
        if not cnt.any():
            break
        ends = np.cumsum(cnt)  # frontier entry e owns arcs ends[e] - cnt[e] .. ends[e] - 1
        # Arcs per seed (a lone seed owns them all); each seed in turn draws one number per arc.
        arcs = np.bincount(ep // runs, cnt, len(rngs)) if len(rngs) > 1 else ends[-1:]
        arc = np.flatnonzero(np.concatenate([rng.random(int(k)) < alpha for rng, k in zip(rngs, arcs) if k]))
        entry = np.searchsorted(ends, arc, side="right")
        head = g.indices[(starts - ends + cnt)[entry] + arc]
        key, tail_charge = ep[entry] * n + head, charge[entry]
        at_refill = refill[head]
        hit = (infected[key] == 0) & (at_refill | (tail_charge >= 1))
        handed = np.where(at_refill, kappa, tail_charge - 1)[hit]
        key, inv = np.unique(key[hit], return_inverse=True)
        charge = np.full(key.shape[0], -1, dtype=np.int64)
        np.maximum.at(charge, inv, handed)
        infected[key] = 1
        ep, node = np.divmod(key, n)
        sizes += np.bincount(ep, minlength=episodes)
    return sizes.reshape(-1, runs)


def sir_influence(inst: SocInstance, p: SirParams) -> ScoreVector:
    """Mean outbreak size per seed node over ``p.runs`` episodes each.

    Seed nodes run in chunks of c = max(1, min(n, ``SIR_CELLS`` // (runs * n))),
    each chunk's episodes as one frontier. Each node draws from its own stream,
    ``default_rng([seed, node])``, the same numbers whatever the chunk, so
    results are reproducible, nodes are independent, and c changes no score.
    """
    g = inst.graph
    c = max(1, min(g.n, SIR_CELLS // (p.runs * g.n)))
    scores = np.zeros(g.n)
    for first in range(0, g.n, c):
        sizes = _sir_outbreaks(inst, range(first, min(first + c, g.n)), p.seed, p.alpha, p.runs)
        bad = (sizes < 1) | (sizes > g.n)
        if bad.any():
            raise NumericalError(f"outbreak of {sizes[bad][0]} outside [1, {g.n}] nodes")
        scores[first : first + sizes.shape[0]] = sizes.sum(axis=1) / p.runs
    meta = {"simulation": "sir", "alpha": p.alpha, "runs": p.runs, **inst.meta, "seed": p.seed}
    return ScoreVector.for_graph(g, scores, meta)


# ---------------------------------------------------------------------------
# Particle hopping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HoppingParams:
    policy: str = "shortest-feasible"
    duration: int = 10_000
    injection_rate: float = 0.5
    seed: int = 0
    pairs: tuple[tuple[int, int], ...] | None = None
    max_injections: int | None = None

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if integer(self.duration, "duration") < 1:
            raise ValueError("duration must be positive")
        if self.max_injections is not None and integer(self.max_injections, "max_injections") < 0:
            raise ValueError(f"max_injections must be nonnegative, not {self.max_injections}")
        if not 0 <= self.injection_rate < np.inf:  # also false for nan
            raise ValueError(f"injection rate must be finite and nonnegative, not {self.injection_rate}")


class _Particle:
    __slots__ = ("state", "node", "target", "blocked_for")

    def __init__(self, state: int, node: int, target: int):
        self.state = state
        self.node = node
        self.target = target
        self.blocked_for = 0


def _router(sg, tables, occupied: np.ndarray, policy: str):
    """The routing rule: ``route(state, target, blocked_for, u)`` returns the next
    state of a particle, picked by the uniform draw ``u``; the caller blocks on
    occupancy. ``tables(target)`` is the (dist, paths) table of ``sg.toward(target)``,
    which the state graph caches: a move reads it and searches nothing. Candidates are the
    successors one hop closer to the target (weighted by their shortest
    continuations), or under random-feasible any successor that keeps the
    target reachable (weight 1). A stalled particle keeps only the free
    candidates when there are any, and under shortest-feasible, stalled long
    enough, takes any free feasible successor.

    States have few out-arcs, so the walk is scalar Python. The running sums are
    the sequential adds of ``np.cumsum``; from 8 candidates on, the total comes
    from ``np.sum``, whose pairwise adds can round differently.
    """
    n = sg.n
    ptr = sg.indptr.tolist()
    heads = sg.indices.tolist()
    occ = occupied.item
    shortest = policy == "shortest-feasible"

    def route(state: int, target: int, blocked_for: int, u: float) -> int:
        dist, paths = tables(target)
        dget = dist.item
        succ = heads[ptr[state] : ptr[state + 1]]
        if shortest:
            want = dget(state) - 1
            cand = [v for v in succ if dget(v) == want]
        else:
            cand = [v for v in succ if dget(v) >= 0]  # any feasibility-preserving move
        if not cand:
            raise NumericalError("particle stranded: no feasible continuation")
        weighted = shortest
        if blocked_for >= STALL_REROUTE_AFTER:
            free = [v for v in cand if not occ(v % n)]
            if free:
                cand = free
            elif shortest and blocked_for >= STALL_ESCAPE_AFTER:
                wider = [v for v in succ if dget(v) >= 0 and not occ(v % n)]
                if wider:
                    cand, weighted = wider, False
        if len(cand) == 1:
            return cand[0]
        weights = [paths.item(v) for v in cand] if weighted else [1.0] * len(cand)
        cum = list(itertools.accumulate(weights))
        total = cum[-1] if len(cum) < 8 else float(np.sum(weights))
        return cand[min(bisect.bisect_right(cum, u * total), len(cand) - 1)]

    return route


def particle_hopping(inst: SocInstance, p: HoppingParams) -> ScoreVector:
    """Occupation ratios under charge- and target-aware routing.

    Requests arrive at the configured expected rate; each is a feasible
    (s, t) pair (infeasible draws are resampled, or skipped when an explicit
    pair list is given; ``check_pairs`` checks that list). A particle
    occupies one node per step, moves once per step in a seeded random
    order, and leaves the network on arrival.

    When every node holds a particle after a step's arrivals have left, no move
    or injection can happen again: the remaining steps are finished in closed
    form (every node occupied, every request delayed) without drawing, and
    ``meta["gridlock_step"]`` records that step (``None`` when the run never
    gridlocks).
    """
    g = inst.graph
    n = g.n
    pairs = None if p.pairs is None else check_pairs(p.pairs, n)
    sg = inst.state_graph
    rng = np.random.default_rng(p.seed)
    # ``sg.toward(t)`` is target t's table: the hops from each state to t and the
    # shortest continuations that routing samples among, one hop at a time. The
    # instance keeps them on its state graph, up to ``TABLE_BYTES``, several built
    # per search; tables that pair sampling or an earlier run built are reused.

    # Injection schedule: whole part of the rate is deterministic, the
    # fractional part is a Bernoulli coin per step.
    base = int(np.floor(p.injection_rate))
    frac = p.injection_rate - base
    requested = 0
    infeasible_skipped = 0
    resampled = 0
    budget = p.max_injections
    schedule: list[list[tuple[int, int]]] = []
    for _ in range(p.duration):
        k = base + (1 if frac > 0 and rng.random() < frac else 0)
        step_requests: list[tuple[int, int]] = []
        for _ in range(k):
            if budget is not None and requested >= budget:
                break
            requested += 1
            if pairs is not None:
                s, t = pairs[int(rng.integers(len(pairs)))]
                if not sg.feasible(s, t):
                    infeasible_skipped += 1
                    continue
            else:
                s, t, redraws = draw_feasible_pair(rng, sg)
                resampled += redraws
            step_requests.append((s, t))
        schedule.append(step_requests)

    occupied = np.zeros(n, dtype=bool)
    occ_steps = np.zeros(n, dtype=np.int64)
    particles: list[_Particle] = []  # in flight, in placement order
    pending: list[tuple[int, int]] = []
    placed = 0
    completed = 0
    delayed_steps = 0
    gridlock_step = None
    route = _router(sg, sg.toward, occupied, p.policy)

    for step in range(p.duration):
        # Move existing particles in a fresh random order; blocked moves are
        # not retried within the step, but cells freed earlier in the order
        # are available to later particles.
        arrived = 0
        for idx in rng.permutation(len(particles)).tolist():
            part = particles[idx]
            nxt = route(part.state, part.target, part.blocked_for, rng.random())
            node = nxt % n
            if occupied[node]:
                part.blocked_for += 1
                continue
            occupied[part.node] = False
            occupied[node] = True
            part.state = nxt
            part.node = node
            part.blocked_for = 0
            if node == part.target:
                arrived += 1

        # Pending injections enter when their source is free.
        still: list[tuple[int, int]] = []
        for s, t in pending + schedule[step]:
            if occupied[s]:
                delayed_steps += 1
                still.append((s, t))
                continue
            occupied[s] = True
            particles.append(_Particle(sg.source_state(s), s, t))
            placed += 1
        pending = still

        occ_steps[occupied] += 1

        # Arrivals leave after this step's occupation is counted; a particle
        # placed this step never stands on its target (s != t).
        if arrived:
            occupied[[q.node for q in particles if q.node == q.target]] = False
            particles = [q for q in particles if q.node != q.target]
            completed += arrived
        if placed != completed + len(particles):
            raise NumericalError(f"{placed} placed != {completed} completed + {len(particles)} in flight")
        nodes = [q.node for q in particles]
        if len(set(nodes)) != len(nodes):
            raise NumericalError("occupancy exclusivity violated")
        if len(particles) == n:
            # Gridlock: every node holds a particle, so no move or injection can
            # happen again. Finish in closed form, drawing nothing.
            gridlock_step = step
            occ_steps += p.duration - 1 - step
            for later in schedule[step + 1 :]:
                pending.extend(later)
                delayed_steps += len(pending)
            break

    meta = {
        "simulation": "hopping",
        "policy": p.policy,
        "duration": p.duration,
        "injection_rate": p.injection_rate,
        "seed": p.seed,
        **inst.meta,
        "requested": requested,
        "placed": placed,
        "completed": completed,
        "in_flight_at_end": len(particles),
        "pending_at_end": len(pending),
        "delayed_injection_steps": delayed_steps,
        "infeasible_skipped": infeasible_skipped,
        "resampled_draws": resampled,
        "gridlock_step": gridlock_step,
    }
    logger.info(
        "hopping: %d requested, %d placed, %d completed, %d in flight",
        requested, placed, completed, len(particles),
    )
    return ScoreVector.for_graph(g, occ_steps / p.duration, meta)
