import functools
import math

import numpy as np
import pytest
import scipy.stats

import chargecent.simulate
from chargecent import (
    Graph,
    HoppingParams,
    NumericalError,
    SirParams,
    SocInstance,
    make_instance,
    particle_hopping,
    sample_feasible_pairs,
    sir_influence,
    soc_betweenness,
    statespace,
)
from chargecent.generators import (
    barabasi_albert_graph,
    complete_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    sample_omega,
    star_graph,
)
from chargecent.simulate import STALL_ESCAPE_AFTER, STALL_REROUTE_AFTER, _router, _sir_outbreaks
from chargecent.statespace import StateGraph

from conftest import instance_corpus
from reference import plain_sir_outbreaks, run_sir_episode


def test_sir_zero_probability_never_spreads():
    inst = make_instance(star_graph(4), [], 2)
    out = sir_influence(inst, SirParams(alpha=0.0, runs=5, seed=1))
    assert np.all(out.values == 1.0)


def test_sir_deterministic_star_traces():
    # Full transmission, budget one: the center reaches everyone, a leaf
    # infects only the center (which then has no charge left to spread).
    inst = make_instance(star_graph(4), [], 1)
    out = sir_influence(inst, SirParams(alpha=1.0, runs=3, seed=2))
    assert out.values[0] == 5.0
    assert np.all(out.values[1:] == 2.0)


def test_sir_refill_extends_reach():
    inst = make_instance(path_graph(3), [1], 1)
    out = sir_influence(inst, SirParams(alpha=1.0, runs=2, seed=3))
    assert out.values[0] == 3.0


def test_sir_exhausted_attacker_still_reaches_refill_neighbor():
    # 0-1-2 with only node 2 refilling: seed 0 at kappa=1 infects 1 (charge 0),
    # node 1 can still pass to the refill node 2.
    inst = make_instance(path_graph(3), [2], 1)
    out = sir_influence(inst, SirParams(alpha=1.0, runs=2, seed=4))
    assert out.values[0] == 3.0


def test_sir_outbreaks_within_bounds_and_deterministic():
    inst = make_instance(gnp_random_graph(12, 0.3, seed=6), [3], 2)
    p = SirParams(alpha=0.4, runs=50, seed=7)
    a = sir_influence(inst, p)
    b = sir_influence(inst, p)
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values >= 1.0) and np.all(a.values <= 12.0)


def _pin_instances():
    # An undirected BA graph with refills, and a directed gnp graph with 4 sinks.
    ba = make_instance(barabasi_albert_graph(20, 2, seed=3), sample_omega(20, 0.3, seed=4), 2)
    gnp = make_instance(gnp_random_graph(25, 0.08, seed=9, directed=True), [2, 7], 3)
    return [(ba, SirParams(alpha=0.4, runs=25, seed=5)), (gnp, SirParams(alpha=0.6, runs=20, seed=6))]


_PINNED_SIR = [
    ["0x1.03d70a3d70a3dp+3", "0x1.c7ae147ae147bp+2", "0x1.a8f5c28f5c28fp+2", "0x1.3c28f5c28f5c3p+3",
     "0x1.947ae147ae148p+2", "0x1.bae147ae147aep+2", "0x1.e666666666666p+2", "0x1.ca3d70a3d70a4p+2",
     "0x1.999999999999ap+1", "0x1.9eb851eb851ecp+1", "0x1.2666666666666p+2", "0x1.c7ae147ae147bp+2",
     "0x1.dc28f5c28f5c3p+1", "0x1.5eb851eb851ecp+2", "0x1.f5c28f5c28f5cp+1", "0x1.3333333333333p+2",
     "0x1.87ae147ae147bp+2", "0x1.2e147ae147ae1p+2", "0x1.3ae147ae147aep+2", "0x1.147ae147ae148p+2"],
    ["0x1.7666666666666p+2", "0x1.d333333333333p+1", "0x1.7666666666666p+2", "0x1.1333333333333p+2",
     "0x1.8000000000000p+0", "0x1.0cccccccccccdp+2", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
     "0x1.c000000000000p+0", "0x1.c000000000000p+1", "0x1.e666666666666p+1", "0x1.7333333333333p+1",
     "0x1.9cccccccccccdp+2", "0x1.f333333333333p+1", "0x1.8000000000000p+1", "0x1.c000000000000p+1",
     "0x1.0cccccccccccdp+1", "0x1.799999999999ap+2", "0x1.3000000000000p+2", "0x1.0000000000000p+2",
     "0x1.0000000000000p+0", "0x1.4000000000000p+2", "0x1.0cccccccccccdp+1", "0x1.3cccccccccccdp+2",
     "0x1.0000000000000p+0"],
]


def test_sir_scores_are_pinned():
    # Exact bits of the scores, as one seed node at a time computed them: each
    # node's stream draws the same numbers in the same order in any chunk.
    cases = _pin_instances()
    assert int((np.diff(cases[1][0].graph.indptr) == 0).sum()) == 4
    for (inst, p), want in zip(cases, _PINNED_SIR):
        assert [float(x).hex() for x in sir_influence(inst, p).values] == want


@pytest.mark.parametrize("case", [0, 1])
def test_sir_scores_do_not_depend_on_the_chunk_size(monkeypatch, case):
    inst, p = _pin_instances()[case]
    cells = p.runs * inst.graph.n
    by_chunk = {}
    for c, bound in ((1, 1), (3, 3 * cells), (inst.graph.n, 2**40)):
        monkeypatch.setattr(chargecent.simulate, "SIR_CELLS", bound)
        by_chunk[c] = sir_influence(inst, p).values
    assert inst.graph.n % 3 != 0
    for c in (3, inst.graph.n):
        assert np.array_equal(by_chunk[c], by_chunk[1]), c


def test_sir_episode_returns_outbreak_size():
    # Full transmission on a path from one end: the charge bounds the reach.
    rng = np.random.default_rng(0)
    assert run_sir_episode(make_instance(path_graph(5), [], 4), 0, rng, 1.0) == 5
    assert run_sir_episode(make_instance(path_graph(5), [], 2), 0, rng, 1.0) == 3


def test_sir_batch_matches_scalar_episode_at_certain_outcomes():
    # At alpha 0 and 1 the draws decide nothing, so every batched run must
    # equal the scalar reference episode exactly.
    # All seed nodes of an instance run as one frontier here.
    checked = 0
    for inst in instance_corpus(80, seed=505, n_max=10, p=0.35, kappa_max=4):
        for alpha in (0.0, 1.0):
            got = _sir_outbreaks(inst, range(inst.graph.n), 1, alpha, 4)
            for v in range(inst.graph.n):
                ref = run_sir_episode(inst, v, np.random.default_rng(0), alpha)
                assert np.array_equal(got[v], [ref] * 4), (inst.graph.edges, v, alpha)
                checked += 1
    assert checked > 500


@pytest.mark.parametrize("inst", [
    # Seed 0 infects refill node 1 (charge 2) and node 2 (charge 1) together;
    # node 3 keeps the charge of the arc that reached it, and only charge 1
    # lets it pass on to node 4.
    make_instance(Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], directed=False), [1], 2),
    make_instance(gnp_random_graph(25, 0.15, seed=45), [3, 11, 19], 2),
])
def test_sir_batch_matches_scalar_episode_in_law(inst):
    # At an uncertain alpha the batched runs and independent scalar episodes
    # have one outbreak-size law (two-sample KS on seeded runs).
    runs = 4000
    ours = _sir_outbreaks(inst, [0], 12, 0.7, runs)[0]
    rng = np.random.default_rng(4321)
    ref = [run_sir_episode(inst, 0, rng, 0.7) for _ in range(runs)]
    assert scipy.stats.ks_2samp(ours, ref).pvalue > 0.05


def test_sir_unconstrained_matches_plain_model():
    # Large budget and no refills: outbreak-size law equals the standard
    # infect-once process (two-sample KS on a seeded run).
    g = gnp_random_graph(30, 0.12, seed=44)
    inst = make_instance(g, [], 30)
    runs = 10_000
    seed_node = 0
    ours = _sir_outbreaks(inst, [seed_node], 11, 0.25, runs)[0]
    ref = plain_sir_outbreaks(g, seed_node, 0.25, runs, seed=1234)
    stat = scipy.stats.ks_2samp(ours, ref)
    assert stat.pvalue > 0.05


def test_hopping_single_particle_deterministic_transit():
    inst = make_instance(path_graph(3), [], 2)
    out = particle_hopping(
        inst,
        HoppingParams(policy="shortest-feasible", duration=3, injection_rate=1.0,
                      seed=5, pairs=((0, 2),), max_injections=1),
    )
    assert np.allclose(out.values, [1 / 3, 1 / 3, 1 / 3])
    assert out.meta["completed"] == 1


def test_hopping_policies_agree_when_moves_forced():
    inst = make_instance(path_graph(3), [], 2)
    kw = dict(duration=6, injection_rate=1.0, seed=8, pairs=((0, 2),), max_injections=2)
    a = particle_hopping(inst, HoppingParams(policy="shortest-feasible", **kw))
    b = particle_hopping(inst, HoppingParams(policy="random-feasible", **kw))
    assert np.allclose(a.values, b.values)


def test_hopping_infeasible_pair_skipped():
    inst = make_instance(path_graph(3), [], 1)
    out = particle_hopping(
        inst,
        HoppingParams(duration=5, injection_rate=1.0, seed=9, pairs=((0, 2),)),
    )
    assert np.all(out.values == 0.0)
    assert out.meta["infeasible_skipped"] == out.meta["requested"] == 5
    assert out.meta["placed"] == 0


def test_hopping_resamples_uniform_pairs():
    inst = make_instance(path_graph(4), [1, 2], 3)
    out = particle_hopping(inst, HoppingParams(duration=50, injection_rate=1.0, seed=10))
    assert out.meta["placed"] > 0
    assert out.meta["placed"] + out.meta["pending_at_end"] == out.meta["requested"]
    assert out.meta["completed"] + out.meta["in_flight_at_end"] == out.meta["placed"]


def test_hopping_occupancy_bounds_and_determinism():
    inst = make_instance(gnp_random_graph(12, 0.35, seed=13), [4, 7], 3)
    p = HoppingParams(duration=200, injection_rate=0.8, seed=14)
    a = particle_hopping(inst, p)
    b = particle_hopping(inst, p)
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values >= 0.0) and np.all(a.values <= 1.0)
    assert a.meta["completed"] > 0


# Exact occupation ratios and meta counts of seeded runs, so that any change
# to the number or order of draws from the stream shows. Columns: kappa,
# injection rate, policy, explicit pairs and max injections, values, then
# (requested, placed, completed, in_flight_at_end, pending_at_end,
# delayed_injection_steps, infeasible_skipped, resampled_draws).
HOPPING_STREAM_PINS = [
    (3, 0.5, "shortest-feasible", None, None,
     [0.6, 0.555, 0.455, 0.74, 0.695, 0.45, 0.695, 0.515, 0.55, 0.73, 0.555, 0.61],
     (113, 51, 39, 12, 62, 3286, 0, 0)),
    (3, 0.5, "random-feasible", None, None,
     [0.9, 0.91, 0.85, 0.93, 0.93, 0.885, 0.68, 0.885, 0.88, 0.92, 0.555, 0.935],
     (113, 18, 6, 12, 95, 7720, 0, 0)),
    (1, 0.2, "shortest-feasible", None, None,
     [0.08, 0.02, 0.02, 0.07, 0.115, 0.04, 0.0, 0.035, 0.08, 0.035, 0.0, 0.08],
     (39, 39, 39, 0, 0, 1, 0, 23)),
    (1, 0.2, "random-feasible", None, None,
     [0.445, 0.08, 0.02, 0.43, 0.645, 0.33, 0.0, 0.415, 0.33, 0.11, 0.0, 0.465],
     (39, 31, 22, 9, 8, 164, 0, 23)),
    (1, 0.3, "shortest-feasible", ((0, 6), (8, 11), (3, 9)), 40,
     [0.0, 0.0, 0.0, 0.09, 0.0, 0.0, 0.0, 0.045, 0.05, 0.09, 0.0, 0.045],
     (40, 27, 27, 0, 0, 0, 13, 0)),
]


@pytest.mark.parametrize("kappa, rate, policy, pairs, budget, values, counts", HOPPING_STREAM_PINS)
def test_hopping_stream_is_pinned(kappa, rate, policy, pairs, budget, values, counts):
    inst = make_instance(gnp_random_graph(12, 0.35, seed=13), [4, 7], kappa)
    out = particle_hopping(inst, HoppingParams(policy=policy, duration=200, injection_rate=rate,
                                               seed=5, pairs=pairs, max_injections=budget))
    assert out.values.tolist() == values
    keys = ("requested", "placed", "completed", "in_flight_at_end", "pending_at_end",
            "delayed_injection_steps", "infeasible_skipped", "resampled_draws")
    assert tuple(out.meta[k] for k in keys) == counts


@pytest.mark.parametrize("pin, gridlock_step", zip(HOPPING_STREAM_PINS, [120, 91, None, None, None]))
def test_hopping_gridlock_step(pin, gridlock_step):
    # Once every node holds a particle nothing moves again; the rest of the run is
    # finished in closed form, and the pinned rows above show it changes no output.
    kappa, rate, policy, pairs, budget, _, _ = pin
    inst = make_instance(gnp_random_graph(12, 0.35, seed=13), [4, 7], kappa)
    out = particle_hopping(inst, HoppingParams(policy=policy, duration=200, injection_rate=rate,
                                               seed=5, pairs=pairs, max_injections=budget))
    assert out.meta["gridlock_step"] == gridlock_step


# States with 9 candidates, where the router takes its total from np.sum: exact
# values and meta counts (as above) of a random-feasible run on K10 and a
# shortest-feasible run across the hubs of K2,9.
K29 = Graph(11, [(a, b) for a in (0, 1) for b in range(2, 11)], directed=False)
HOPPING_WIDE_PINS = [
    (complete_graph(10), [3], "random-feasible", 0.2, None,
     [0.215, 0.21, 0.17, 0.485, 0.175, 0.25, 0.18, 0.12, 0.24, 0.19],
     (36, 33, 27, 6, 3, 36, 0, 0)),
    (K29, [4], "shortest-feasible", 0.5, ((0, 1), (1, 0), (2, 3), (5, 9)),
     [0.44, 0.395, 0.24, 0.21, 0.025, 0.24, 0.06, 0.01, 0.03, 0.195, 0.03],
     (111, 111, 110, 1, 0, 33, 0, 0)),
]


@pytest.mark.parametrize("g, omega, policy, rate, pairs, values, counts", HOPPING_WIDE_PINS)
def test_hopping_stream_is_pinned_on_wide_states(g, omega, policy, rate, pairs, values, counts):
    out = particle_hopping(make_instance(g, omega, 2),
                           HoppingParams(policy=policy, duration=200, injection_rate=rate,
                                         seed=5, pairs=pairs))
    assert out.values.tolist() == values
    keys = ("requested", "placed", "completed", "in_flight_at_end", "pending_at_end",
            "delayed_injection_steps", "infeasible_skipped", "resampled_draws")
    assert tuple(out.meta[k] for k in keys) == counts


def reference_candidates(sg, dist, paths, occupied, policy, state, blocked_for):
    """The routing candidates and weights as numpy array expressions over the state's successors."""
    n = sg.n
    succ = sg.indices[sg.indptr[state] : sg.indptr[state + 1]]
    if policy == "shortest-feasible":
        cand = succ[dist[succ] == dist[state] - 1]
        weights = paths[cand]
    else:
        cand = succ[dist[succ] >= 0]
        weights = np.ones(cand.shape[0])
    if cand.shape[0] == 0:
        raise NumericalError("particle stranded: no feasible continuation")
    free = ~occupied[cand % n]
    if blocked_for >= STALL_REROUTE_AFTER and free.any():
        cand, weights = cand[free], weights[free]
    elif policy == "shortest-feasible" and blocked_for >= STALL_ESCAPE_AFTER:
        wider = succ[dist[succ] >= 0]
        wfree = ~occupied[wider % n]
        if wfree.any():
            cand, weights = wider[wfree], np.ones(int(wfree.sum()))
    return cand, weights


def reference_choose_next(cand, weights, u):
    total = float(weights.sum())
    pick = int(np.searchsorted(np.cumsum(weights), u * total, side="right"))
    return int(cand[min(pick, cand.shape[0] - 1)])


def _reverse_tables(sg):
    return functools.lru_cache(maxsize=None)(sg.toward)


@pytest.mark.parametrize("policy", ["shortest-feasible", "random-feasible"])
@pytest.mark.parametrize("g, omega, kappa", [
    (barabasi_albert_graph(60, 3, seed=21), [0, 5, 17, 33], 3),
    # Nine equally short successors between the hubs, weighted by path counts.
    (K29, [4], 2),
], ids=["ba", "k29"])
def test_router_matches_reference_expression(policy, g, omega, kappa):
    hubs = np.flatnonzero(np.diff(g.indptr) >= 8)
    assert hubs.shape[0] >= 2
    sg = make_instance(g, omega, kappa).state_graph
    exact = _reverse_tables(sg)
    rng = np.random.default_rng(22)
    # Path counts scaled by random factors, so that sums are inexact and the
    # order of the adds shows.
    scale = rng.random(sg.n_states) + 0.5
    scaled = functools.lru_cache(maxsize=None)(lambda t: (exact(t)[0], exact(t)[1] * scale))
    for tables in (exact, scaled):
        occupied = np.zeros(g.n, dtype=bool)
        route = _router(sg, tables, occupied, policy)
        checked = wide = 0
        while checked < 3000:
            t = int(rng.integers(g.n))
            dist, paths = tables(t)
            node = int(rng.choice(hubs)) if rng.random() < 0.5 else int(rng.integers(g.n))
            state = int(rng.integers(sg.kappa + 1)) * g.n + node
            if dist[state] < 1:  # a particle stands only where its target is reachable and not reached
                continue
            occupied[:] = rng.random(g.n) < rng.random()
            blocked_for = int(rng.choice([0, STALL_REROUTE_AFTER, STALL_ESCAPE_AFTER]))
            cand, weights = reference_candidates(sg, dist, paths, occupied, policy, state, blocked_for)
            u = float(rng.random())
            if cand.shape[0] > 1 and rng.random() < 0.5:
                # A draw on or one ulp beside a boundary of the cumulative weights.
                k = int(rng.integers(cand.shape[0] - 1))
                u = np.cumsum(weights)[k] / weights.sum()
                u = float(min(np.nextafter(u, u + rng.choice([-1, 0, 1])), np.nextafter(1.0, 0.0)))
            want = reference_choose_next(cand, weights, u)
            assert route(state, t, blocked_for, u) == want, (t, state, blocked_for, u)
            checked += 1
            wide += cand.shape[0] >= 8
        assert wide >= 20  # lists of 8 or more candidates, whose total is np.sum's


def test_router_total_on_wide_states_is_the_pairwise_sum():
    # From hub 0 toward hub 1 of K2,9 all nine middle nodes are one hop closer.
    # Weights of mixed magnitude make the sequential and pairwise totals differ;
    # draws on and beside the boundaries of the cumulative weights show which
    # total the router takes.
    sg = make_instance(K29, [], 2).state_graph
    dist = _reverse_tables(sg)(1)[0]
    state = sg.state_index(0, 2)
    rng = np.random.default_rng(23)
    paths = np.ones(sg.n_states)
    free = np.zeros(K29.n, dtype=bool)
    route = _router(sg, lambda t: (dist, paths), free, "shortest-feasible")
    telling = 0  # draws whose pick the sequential total would change
    for _ in range(200):
        paths[:] = rng.random(sg.n_states) * 2.0 ** rng.integers(-30, 30, sg.n_states)
        cand, weights = reference_candidates(sg, dist, paths, free, "shortest-feasible", state, 0)
        assert cand.shape[0] == 9
        cum, total = np.cumsum(weights), weights.sum()
        for k in range(8):
            at = cum[k] / total
            for u in (np.nextafter(at, 0.0), at, np.nextafter(at, 1.0)):
                u = float(min(u, np.nextafter(1.0, 0.0)))
                want = reference_choose_next(cand, weights, u)
                assert route(state, 1, 0, u) == want
                sequential, pairwise = np.searchsorted(cum, [u * cum[-1], u * total], side="right")
                telling += sequential != pairwise
    assert telling > 0


@pytest.mark.parametrize("policy", ["shortest-feasible", "random-feasible"])
def test_router_raises_for_stranded_particle(policy):
    # Path 0-1-2 at kappa 1 without refills: from (0, charge 1) the walk reaches
    # (1, charge 0) and cannot go on to 2.
    sg = make_instance(path_graph(3), [], 1).state_graph
    route = _router(sg, _reverse_tables(sg), np.zeros(3, dtype=bool), policy)
    state = sg.state_index(0, 1)
    with pytest.raises(NumericalError, match="stranded"):
        route(state, 2, 0, 0.5)


def test_hopping_builds_its_tables_in_chunks(monkeypatch):
    # Every node becomes a target, so with C targets per search the tables take
    # ceil(n / C) searches; one search per target would take n.
    inst = make_instance(grid_graph(16, 16), sample_omega(256, 0.2, seed=1), 16)
    real_bfs, real_toward = statespace.bfs, StateGraph.toward
    searches, targets = [], set()
    monkeypatch.setattr(statespace, "bfs", lambda *args: searches.append(len(args[2])) or real_bfs(*args))
    monkeypatch.setattr(StateGraph, "toward", lambda sg, t: targets.add(t) or real_toward(sg, t))
    particle_hopping(inst, HoppingParams(duration=4000, injection_rate=0.5, seed=1))
    c = max(searches)  # targets per search, one row each
    assert len(targets) == inst.graph.n and c > 1
    assert len(searches) == math.ceil(inst.graph.n / c)


def test_a_shared_state_graph_changes_no_result(monkeypatch):
    # Pair sampling, soc-bc and hopping on one instance share its one state graph,
    # so hopping starts with the tables that sampling built, searched in other
    # chunks than from empty; table order never enters a draw.
    def hop(inst):
        return particle_hopping(inst, HoppingParams(duration=500, injection_rate=0.5, seed=1))

    def instance():
        return make_instance(grid_graph(16, 16), sample_omega(256, 0.2, seed=1), 16)

    builds, init = [], StateGraph.__init__
    monkeypatch.setattr(StateGraph, "__init__", lambda sg, inst: builds.append(inst) or init(sg, inst))
    inst = instance()
    sample_feasible_pairs(inst, 10, seed=2)
    tables = set(inst.state_graph._tables)
    soc_betweenness(inst)
    shared = hop(inst)
    assert builds == [inst] and 0 < len(tables) < inst.graph.n
    fresh = hop(instance())
    assert shared.values.tobytes() == fresh.values.tobytes() and shared.meta == fresh.meta


def test_hopping_blocked_injection_delays():
    # Two particles with the same source: the second waits for the cell.
    inst = make_instance(path_graph(4), [], 3)
    out = particle_hopping(
        inst,
        HoppingParams(duration=10, injection_rate=2.0, seed=15,
                      pairs=((0, 3),), max_injections=2),
    )
    assert out.meta["delayed_injection_steps"] >= 1
    assert out.meta["completed"] == 2


def test_hopping_head_on_traffic_resolves_via_alternate_route():
    # Opposing flows meeting head-on stall, then reroute along the other arc
    # of the cycle; traffic keeps completing instead of deadlocking.
    from chargecent.generators import cycle_graph

    inst = make_instance(cycle_graph(4), [], 4)
    out = particle_hopping(
        inst,
        HoppingParams(duration=400, injection_rate=0.5, seed=16,
                      pairs=((0, 2), (2, 0))),
    )
    assert out.meta["completed"] >= 10
    assert out.meta["completed"] + out.meta["in_flight_at_end"] == out.meta["placed"]


def test_hopping_param_validation():
    with pytest.raises(ValueError):
        HoppingParams(policy="warp")
    with pytest.raises(ValueError):
        HoppingParams(duration=0)
    with pytest.raises(ValueError, match="same source and target"):
        particle_hopping(make_instance(path_graph(3), [], 2), HoppingParams(pairs=((0, 2), (1, 1))))
    with pytest.raises(ValueError):
        SirParams(alpha=1.5)


@pytest.mark.parametrize("pair", [(0, -1), (-1, 0), (0, 9)])
def test_hopping_pair_node_ids_outside_the_graph_are_rejected(pair):
    inst = make_instance(grid_graph(3, 3), [4], 2)
    with pytest.raises(ValueError, match=r"out of range \[0,9\)"):
        particle_hopping(inst, HoppingParams(duration=5, pairs=((1, 2), pair)))


@pytest.mark.parametrize("pair", [(0, 2.5), (1.0, 2)])
def test_hopping_pair_node_ids_must_be_integers(pair):
    # Before, a fractional id ended in a TypeError or an IndexError from numpy.
    inst = make_instance(grid_graph(3, 3), [4], 2)
    with pytest.raises(ValueError, match="not an integer"):
        particle_hopping(inst, HoppingParams(duration=5, injection_rate=1.0, pairs=(pair,)))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: make_instance(path_graph(4), [0], 2.7), "kappa 2.7 is not an integer", id="kappa-2.7"),
    pytest.param(lambda: make_instance(path_graph(4), [0], "3"), "kappa '3' is not an integer", id="kappa-str"),
    pytest.param(lambda: make_instance(path_graph(4), [0], np.float64(2.0)), "kappa 2.0 is not an integer",
                 id="kappa-float64"),
    pytest.param(lambda: SocInstance(path_graph(4), np.zeros(4, bool), 2.5), "kappa 2.5 is not an integer",
                 id="instance-kappa"),
    pytest.param(lambda: SirParams(0.5, runs=2.5), "runs 2.5 is not an integer", id="runs"),
    pytest.param(lambda: HoppingParams(duration=2.5), "duration 2.5 is not an integer", id="duration"),
    pytest.param(lambda: HoppingParams(max_injections=1.5), "max_injections 1.5 is not an integer",
                 id="max_injections-1.5"),
    pytest.param(lambda: HoppingParams(max_injections=-3), "max_injections must be nonnegative, not -3",
                 id="max_injections-negative"),
])
def test_counts_must_be_integers(build, message):
    # Before, make_instance truncated kappa 2.7 to 2 and read "3" as 3, SocInstance and
    # sir_influence failed inside numpy with a TypeError, and max_injections=-3 injected nothing.
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_an_integer_kappa_is_kept_as_an_int():
    inst = make_instance(path_graph(4), [0], np.int64(3))
    assert inst.kappa == 3 and type(inst.kappa) is int


def test_hopping_rejects_an_empty_pair_list():
    # Before, numpy's sampler failed with "high <= 0".
    with pytest.raises(ValueError, match="at least one source-target pair"):
        particle_hopping(make_instance(grid_graph(3, 3), [4], 2), HoppingParams(duration=5, pairs=()))


def test_sir_outbreak_size_check_raises(monkeypatch):
    # One impossible episode among valid ones fails the run, whatever the mean,
    # in the first seed node of a chunk or in a later one (the 3 seed nodes
    # here run as one chunk).
    for row in (0, 2):
        def outbreaks(inst, seeds, seed, alpha, runs):
            sizes = np.full((len(seeds), runs), 2)
            sizes[row, -1] = 0
            return sizes

        monkeypatch.setattr(chargecent.simulate, "_sir_outbreaks", outbreaks)
        with pytest.raises(NumericalError, match="outbreak of 0"):
            sir_influence(make_instance(path_graph(3), [], 1), SirParams(alpha=0.5, runs=3))
