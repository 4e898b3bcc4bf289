"""Reference models for the compiled GA generation.

The textbook forms live here, in the test file: a generation written
with ``rng.choice(p=)``, ``np.clip``, a masked swap, ``np.bitwise_xor``
and an eager resident-key set; ``replace_worst`` as the loop it was
before the fitness test moved ahead of the duplicate test; a plain LRU
for the fitness cache.  The compiled path in ``src/repro/ga`` must agree
with them bit for bit — genomes, fitness, counters, charged cost and the
generator state (DESIGN.md §8).
"""

from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coherence import CoherenceMode
from repro.ga.costs import generation_cost
from repro.ga import fitness_cache
from repro.ga.fitness_cache import FitnessCache
from repro.ga.functions import TEST_FUNCTIONS, reseed_f4
from repro.ga.island import IslandGaConfig, _GaPlan, _LocalDeme
from repro.ga.operators import (
    CROSSOVER_RATE,
    MUTATION_RATE,
    GaParams,
    roulette_select,
    selection_weights,
)
from repro.ga.population import Population


# ---------------------------------------------------------------------------
# The references
# ---------------------------------------------------------------------------

class RefCache:
    """Row-at-a-time LRU: the behaviour FitnessCache must reproduce."""

    def __init__(self, evaluate, enabled=True, max_entries=100_000):
        self.evaluate, self.enabled, self.max_entries = evaluate, enabled, max_entries
        self.store, self.hits, self.misses = OrderedDict(), 0, 0

    def __call__(self, genomes):
        genomes = np.atleast_2d(genomes)
        if not self.enabled:
            self.misses += genomes.shape[0]
            return self.evaluate(genomes)
        keys = [row.tobytes() for row in genomes]
        known = [k in self.store for k in keys]  # as of the start of the batch
        for k, hit in zip(keys, known):
            if hit:
                self.store.move_to_end(k)
        new = list(dict.fromkeys(k for k, hit in zip(keys, known) if not hit))
        self.misses += len(new)
        self.hits += len(keys) - len(new)
        if new:
            rows = [keys.index(k) for k in new]
            for k, v in zip(new, self.evaluate(genomes[rows])):
                self.store[k] = float(v)
        out = np.array([self.store[k] for k in keys], dtype=np.float64)
        while len(self.store) > self.max_entries:
            self.store.popitem(last=False)
        return out


def ref_replace_worst(pop, genomes, fitness):
    """The parent commit's loop: duplicate test first, eager key set."""
    genomes = np.atleast_2d(genomes)
    fitness = np.asarray(fitness, dtype=np.float64)
    k = min(genomes.shape[0], pop.size)
    order = np.argsort(fitness, kind="stable")[:k]
    worst = np.argsort(pop.fitness, kind="stable")[::-1]
    resident_keys = {row.tobytes() for row in pop.genomes}
    installed = 0
    w_iter = iter(worst)
    for m in order:
        key = genomes[m].tobytes()
        if key in resident_keys:
            continue
        w = next(w_iter, None)
        if w is None or fitness[m] >= pop.fitness[w]:
            break
        pop.genomes[w] = genomes[m]
        pop.fitness[w] = fitness[m]
        resident_keys.add(key)
        installed += 1
    return installed


def ref_generation(pop, evaluate, rng):
    """The textbook generational step, with DeJong's C, M, W=1 and S=E."""
    n = pop.size
    w = np.clip(pop.fitness.max() - pop.fitness, 0.0, None)  # W=1: this generation's worst
    p = np.full(pop.size, 1.0 / pop.size) if w.sum() <= 0.0 else w / w.sum()
    idx = rng.choice(pop.size, size=n + (n % 2), p=p)
    a = pop.genomes[idx[0::2]].copy()
    b = pop.genomes[idx[1::2]].copy()
    do = rng.random(a.shape[0]) < CROSSOVER_RATE
    points = rng.integers(1, a.shape[1], size=a.shape[0])
    swap = do[:, None] & (np.arange(a.shape[1])[None, :] >= points[:, None])
    a[swap], b[swap] = b[swap], a[swap]
    children = np.concatenate([a, b], axis=0)[:n]
    flips = rng.random(children.shape) < MUTATION_RATE
    children = np.bitwise_xor(children, flips.astype(np.uint8))
    new_pop = Population(children, evaluate(children))
    if pop.fitness.min() < new_pop.fitness.min():
        worst = int(np.argmax(new_pop.fitness))
        new_pop.genomes[worst] = pop.genomes[int(np.argmin(pop.fitness))]
        new_pop.fitness[worst] = pop.fitness.min()
    return new_pop


class RefDeme:
    """A deme on the references, with ``_LocalDeme``'s record interface."""

    def __init__(self, plan, deme):
        cfg = self.cfg = plan.cfg
        self.enc, self.n_mig = plan.enc, plan.n_mig
        self.rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(cfg.fn.fid, deme))
        )
        self.cache = RefCache(
            lambda g: cfg.fn(self.enc.decode(g)), enabled=not cfg.fn.noisy
        )
        self.best_so_far = float("inf")

    def _report(self, misses_before):
        cfg = self.cfg
        cost = generation_cost(cfg.fn, self.pop.size, self.cache.misses - misses_before)
        self.best_so_far = min(self.best_so_far, float(self.pop.fitness.min()))
        idx = np.argsort(self.pop.fitness, kind="stable")[: self.n_mig]
        migrants = self.pop.genomes[idx].copy(), self.pop.fitness[idx].copy()
        return cost, self.best_so_far, float(self.pop.fitness.mean()), migrants

    def start(self):
        genomes = self.enc.random_population(self.cfg.params.population_size, self.rng)
        self.pop = Population(genomes, self.cache(genomes))
        return self._report(0)

    def evolve(self, g):
        before = self.cache.misses
        self.pop = ref_generation(self.pop, self.cache, self.rng)
        return self._report(before)

    def incorporate(self, pool_g, pool_f):
        order = np.argsort(pool_f, kind="stable")[: self.n_mig]
        ref_replace_worst(self.pop, pool_g[order], pool_f[order])
        self.best_so_far = min(self.best_so_far, float(self.pop.fitness.min()))
        return self.best_so_far, float(self.pop.fitness.mean())


# ---------------------------------------------------------------------------
# (a) a whole archipelago, generation by generation
# ---------------------------------------------------------------------------

N_DEMES = 3
GENERATIONS = 40


def _trajectory(deme_cls, cfg):
    """Every observable of ``N_DEMES`` demes after every step of a run in
    which each deme pools and incorporates the others' latest migrants."""
    reseed_f4(cfg.seed)
    plan = _GaPlan(cfg)
    demes = [deme_cls(plan, d) for d in range(N_DEMES)]

    def observe(step):
        return [
            (
                step,
                d.pop.genomes.copy(),
                d.pop.fitness.copy(),
                d.cache.hits,
                d.cache.misses,
                d.rng.bit_generator.state,
            )
            for d in demes
        ]

    out = []
    reports = [d.start() for d in demes]
    out.append((reports, observe("start")))
    for g in range(1, GENERATIONS + 1):
        previous = [r[3] for r in reports]
        reports = [d.evolve(g) for d in demes]
        out.append((reports, observe(("evolve", g))))
        incorporated = []
        for i, d in enumerate(demes):
            arrivals = [m for j, m in enumerate(previous) if j != i]
            pool_g = np.concatenate([a[0] for a in arrivals])
            pool_f = np.concatenate([a[1] for a in arrivals])
            incorporated.append(d.incorporate(pool_g, pool_f))
        out.append((incorporated, observe(("incorporate", g))))
    return out


def _assert_same(a, b):
    """Deep equality over nested tuples/lists/dicts of arrays and scalars."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_same(a[k], b[k])
    else:
        assert type(a) is type(b) and a == b


@pytest.mark.parametrize("n", [7, 8, 50])
@pytest.mark.parametrize("fn", TEST_FUNCTIONS, ids=lambda f: f"f{f.fid}")
def test_compiled_generation_matches_textbook(fn, n):
    cfg = IslandGaConfig(
        fn=fn,
        n_demes=N_DEMES,
        mode=CoherenceMode.NON_STRICT,
        seed=11,
        params=GaParams(population_size=n),
    )
    reference = _trajectory(RefDeme, cfg)
    compiled = _trajectory(_LocalDeme, cfg)
    for (ref_reports, ref_state), (reports, state) in zip(reference, compiled):
        _assert_same(ref_state, state)
        _assert_same(ref_reports, reports)


# ---------------------------------------------------------------------------
# (b) replace_worst against the parent's loop
# ---------------------------------------------------------------------------

@st.composite
def _incorporations(draw):
    """(resident genomes, resident fitness, pool genomes, pool fitness).

    Few distinct chromosomes and few distinct fitness values, so pools
    hold duplicates of residents, duplicates of each other and ties.
    """
    length = draw(st.integers(min_value=1, max_value=4))
    chroms = st.lists(
        st.integers(min_value=0, max_value=1), min_size=length, max_size=length
    )
    levels = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    n_res = draw(st.integers(min_value=1, max_value=6))
    n_mig = draw(st.integers(min_value=0, max_value=9))
    res_g = draw(st.lists(chroms, min_size=n_res, max_size=n_res))
    res_f = draw(st.lists(levels, min_size=n_res, max_size=n_res))
    mig_g = draw(st.lists(chroms, min_size=n_mig, max_size=n_mig))
    mig_f = draw(st.lists(levels, min_size=n_mig, max_size=n_mig))
    return (
        np.array(res_g, dtype=np.uint8).reshape(n_res, length),
        np.array(res_f, dtype=np.float64),
        np.array(mig_g, dtype=np.uint8).reshape(n_mig, length),
        np.array(mig_f, dtype=np.float64),
    )


@settings(max_examples=300, deadline=None)
@given(_incorporations(), st.booleans())
def test_property_replace_worst_matches_parent_loop(case, strided):
    res_g, res_f, mig_g, mig_f = case
    if strided:  # non-contiguous migrant rows: every other row of a taller array
        tall = np.repeat(mig_g, 2, axis=0)
        mig_g = tall[::2]
        assert mig_g.shape[0] < 2 or not mig_g.flags.c_contiguous
    expected = Population(res_g.copy(), res_f.copy())
    actual = Population(res_g.copy(), res_f.copy())
    n_expected = ref_replace_worst(expected, mig_g, mig_f)
    assert actual.replace_worst(mig_g, mig_f) == n_expected
    assert np.array_equal(actual.genomes, expected.genomes)
    assert np.array_equal(actual.fitness, expected.fitness)


def test_replace_worst_skips_a_migrant_equal_to_a_displaced_resident():
    """The resident keys are those at entry: a chromosome displaced
    earlier in the pass still blocks its own duplicate."""
    residents = np.array([[0, 0], [1, 1]], dtype=np.uint8)
    pop = Population(residents.copy(), np.array([1.0, 9.0]))
    migrants = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    assert pop.replace_worst(migrants, np.array([0.0, 0.5])) == 1
    assert pop.genomes.tolist() == [[0, 0], [0, 1]]


# ---------------------------------------------------------------------------
# (c) the fitness cache against the reference LRU
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(min_value=0, max_value=11), min_size=0, max_size=8),
        min_size=1,
        max_size=12,
    ),
    max_entries=st.integers(min_value=1, max_value=10),
)
def test_property_cache_matches_reference_lru(batches, max_entries):
    """Few distinct rows, so batches repeat rows and each other; bounds
    down to one entry, so a batch can exceed the whole cache."""
    calls = {"ref": [], "new": []}

    def evaluator(tag):
        def evaluate(g):
            calls[tag].append(g.copy())
            return (g * np.arange(1, g.shape[1] + 1)).sum(axis=1) / 7.0

        return evaluate

    ref = RefCache(evaluator("ref"), max_entries=max_entries)
    new = FitnessCache(evaluator("new"))
    for batch in batches:
        genomes = np.array(
            [[(v >> b) & 1 for b in range(4)] for v in batch], dtype=np.uint8
        ).reshape(len(batch), 4)
        with mock.patch.object(fitness_cache, "MAX_ENTRIES", max_entries):
            expected, got = ref(genomes), new(genomes)
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
        assert (new.hits, new.misses) == (ref.hits, ref.misses)
        assert list(new._store) == list(ref.store)
        assert list(new._store.values()) == list(ref.store.values())
    _assert_same(calls["ref"], calls["new"])


# ---------------------------------------------------------------------------
# (d) selection: choice == searchsorted, the fallback, the NaN guard
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
        min_size=1,
        max_size=60,
    ),
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_roulette_is_generator_choice(weights, n, seed):
    """Same indices, same dtype, same next draw — zero weights, flat and
    all-zero vectors included."""
    fitness = -np.array(weights)  # baseline 0: weight = -fitness
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = a.choice(fitness.size, size=n, p=selection_weights(fitness, 0.0))
    got = roulette_select(fitness, 0.0, n, b)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize(
    "fitness, baseline",
    [
        (np.array([3.0, 3.0, 3.0, 3.0]), 3.0),  # flat
        (np.array([5.0, 6.0, 7.0, 8.0]), 1.0),  # every weight clipped to zero
    ],
    ids=["flat", "all-zero"],
)
def test_flat_and_all_zero_weights_select_uniformly(fitness, baseline):
    assert selection_weights(fitness, baseline).tolist() == [0.25] * 4
    idx = roulette_select(fitness, baseline, 4000, np.random.default_rng(0))
    assert np.bincount(idx, minlength=4).min() > 900


def test_nan_fitness_still_raises():
    fitness = np.array([1.0, np.nan, 3.0])
    with pytest.raises(ValueError, match="NaN"):
        roulette_select(fitness, 3.0, 4, np.random.default_rng(0))
    # inf - inf under a baseline that is itself infinite
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
        roulette_select(np.array([1.0, np.inf]), np.inf, 4, np.random.default_rng(0))
