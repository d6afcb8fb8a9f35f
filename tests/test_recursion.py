"""Streaming recursion: window algebra, policies, refresh bookkeeping.

The load-bearing oracle is batch equivalence: with no discounting, a fixed
prior, and forget == batch_in, the recursive posterior after any number of
steps must equal the batch fit of the samples currently in the window; with
forget == 0, the batch fit of every sample it has applied.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sparsid.recursion as rec
from sparsid import (
    ConditionViolated,
    DictionarySpec,
    DimensionMismatch,
    InsufficientWarmup,
    NoiseModel,
    NonFiniteInput,
    RecursionConfig,
    Sample,
    WindowBuffer,
    batch_fit,
    build_matrix,
    initial_horseshoe,
)
from sparsid.monitor import gram, utility_from_differential
from sparsid.posterior import posterior_from_moments
from sparsid.simulate import LorenzConfig, simulate_lorenz

from conftest import make_samples

LINEAR2 = DictionarySpec(state_dim=2, poly_degree=1, include_bias=False)


def stream(rng, spec=LINEAR2, coef=((3.0,), (-2.0,)), n=200, noise_std=0.05):
    return make_samples(rng, spec, np.asarray(coef), noise_std=noise_std, n=n)


def fixed_config(**kw):
    base = dict(window=30, batch_in=5, forget=5, theta_mode="fixed", policy="warn")
    base.update(kw)
    return RecursionConfig(**base)


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ValueError):
        RecursionConfig(window=0, batch_in=1, forget=0)
    with pytest.raises(ValueError):
        RecursionConfig(window=10, batch_in=0, forget=0)
    with pytest.raises(ValueError):
        RecursionConfig(window=10, batch_in=1, forget=11)
    with pytest.raises(ValueError):  # would shrink the buffer every step
        RecursionConfig(window=10, batch_in=1, forget=3)
    with pytest.raises(ValueError):  # neither slides the window nor grows it
        RecursionConfig(window=10, batch_in=5, forget=3)
    # a sliding window with batches longer than itself
    RecursionConfig(window=8, batch_in=25, forget=25)
    with pytest.raises(ValueError):
        RecursionConfig(window=10, batch_in=1, forget=0, forgetting_factor=0.0)
    with pytest.raises(ValueError):
        RecursionConfig(window=10, batch_in=1, forget=0, forgetting_factor=1.2)
    with pytest.raises(ValueError):
        RecursionConfig(window=10, batch_in=1, forget=0, policy="explode")
    with pytest.raises(ValueError):
        RecursionConfig(window=10, batch_in=1, forget=0, theta_mode="sometimes")
    with pytest.raises(ValueError):
        RecursionConfig(window=10, batch_in=1, forget=0, refresh_every=0)


# ------------------------------------------------------------------ buffer


def test_window_buffer_fifo_and_eviction():
    buf = WindowBuffer(3)
    assert buf.last_t == -np.inf and all(len(a) == 0 for a in buf.items())
    t = np.arange(9.0)
    x, y = np.column_stack((t, -t)), 10.0 + t[:, None]
    rows = np.arange(18.0).reshape(9, 2)  # row i belongs to sample i

    def pushed(i, j):
        return t[i:j], x[i:j], y[i:j], rows[i:j]

    buf.extend(*pushed(0, 2))
    assert buf.items()[0].tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):
        buf.oldest(3)
    buf.extend(*pushed(2, 4))  # fills the buffer and evicts the oldest
    assert len(buf) == 3
    assert buf.items()[0].tolist() == [1.0, 2.0, 3.0]
    for got, ref in zip(buf.oldest(2), pushed(1, 3)):
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(buf.oldest(3)[3], rows[1:4])
    assert buf.last_t == 3.0
    buf.extend(*pushed(4, 9))  # longer than the buffer: its last 3 stay
    assert buf.items()[0].tolist() == [6.0, 7.0, 8.0]
    for got, ref in zip(buf.oldest(3), pushed(6, 9)):
        np.testing.assert_array_equal(got, ref)
    with pytest.raises(ValueError):
        buf.extend(t[:2], x[:2], y[:2], rows[:1])


@given(
    geometry=st.integers(1, 6).flatmap(
        lambda c: st.tuples(st.just(c), st.lists(st.integers(0, 2 * c), max_size=30))
    ),
)
def test_window_buffer_rows_follow_their_samples(geometry):
    """Through any run of slides of 0 to twice the capacity samples on a
    full buffer, the buffered timestamps, states, observations and rows are
    exactly those pushed with the buffered samples, the newest `capacity`
    of them, and items() copies those samples with the same bytes."""
    capacity, slides = geometry

    def block(idx):
        t = np.array(idx, dtype=float)
        return t, np.column_stack((t, 2.0 * t)), -t[:, None], np.column_stack((t, -t))

    buf = WindowBuffer(capacity)
    reference = list(range(capacity))  # indices of the buffered samples, oldest first
    buf.extend(*block(reference))
    n = capacity
    for push in slides:
        idx = list(range(n, n + push))
        n += push
        buf.extend(*block(idx))
        reference = (reference + idx)[-capacity:]
        assert len(buf) == capacity
        expected = block(reference)
        for got, ref in zip(buf.oldest(capacity), expected):
            np.testing.assert_array_equal(got, ref)
        t, x, y = buf.items()
        assert t.tolist() == reference
        assert x.tobytes() == expected[1].tobytes()
        assert y.tobytes() == expected[2].tobytes()
        assert not any(np.shares_memory(a, b) for a, b in zip((t, x, y), buf.oldest(capacity)))


def test_window_buffer_rejects_zero_capacity():
    with pytest.raises(ValueError):
        WindowBuffer(0)


# ------------------------------------------------------------------- audit


def same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def full_window(spec, t, x, y):
    buf = WindowBuffer(len(t))
    buf.extend(t, x, y, build_matrix(spec, x))
    return buf


def copies(views) -> list:
    return [np.array(v) for v in views]


@settings(max_examples=100)
@example(window=3, geometry=(2, 2), n_batches=12, degree=2, zero_runs=[], seed=0)
@example(window=4, geometry=(9, 0), n_batches=5, degree=1, zero_runs=[(6, 20)], seed=1)
@example(window=4, geometry=(9, 7), n_batches=5, degree=2, zero_runs=[], seed=2)
@example(window=1, geometry=(1, 1), n_batches=3, degree=1, zero_runs=[], seed=3)
@given(
    window=st.integers(1, 20),
    geometry=st.integers(1, 25).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b))),
    n_batches=st.integers(0, 12),
    degree=st.integers(1, 2),
    zero_runs=st.lists(st.tuples(st.integers(0, 300), st.integers(1, 40)), max_size=3),
    seed=st.integers(0, 2**16),
)
def test_audit_run_equals_one_audit_and_slide_per_batch(
    window, geometry, n_batches, degree, zero_runs, seed
):
    """On a full window, one audit_run over k batches gives the bytes of k
    one-batch audit_runs, each followed by its slide (one extend), and of
    the slide rule written out on plain lists of sample indices: the window
    holds the last `window` samples, e = min(b, window) samples of a batch
    enter when forget > 0 (all b when forget == 0), and the e oldest leave
    when forget > 0 (the b oldest of [window; batch] are pushed out when
    forget == 0). Any geometry: forget 0 to batch_in, batches longer than
    the window, reads longer than it, and zero-state stretches. audit_run
    leaves the buffer as it is."""
    batch_in, forget = geometry
    spec = DictionarySpec(state_dim=2, poly_degree=degree)
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(window + n_batches * batch_in, 2))
    for start, length in zero_runs:
        states[start : start + length] = 0.0
    times = np.arange(len(states), dtype=float)
    samples = (times, states, 0.5 - times[:, None])  # t, x and y of each sample
    warmup = [a[:window] for a in samples]
    stacks = [a[window:].reshape(n_batches, batch_in, *a.shape[1:]) for a in samples]

    def rows_of(idx):
        return build_matrix(spec, states[idx])

    def window_of(idx):
        return [*(a[idx] for a in samples), rows_of(idx)]

    def same_window(buf, idx) -> bool:
        return all(map(same_bytes, buf.oldest(window), window_of(idx)))

    def flat(arrays) -> list:  # k x e (x n) stacks as one block of k*e rows
        return [a.reshape(arrays[0].size, *a.shape[2:]) for a in arrays]

    one_by_one = full_window(spec, *warmup)
    reference = list(range(window))
    expected = []
    e = min(batch_in, window) if forget else batch_in
    for i in range(n_batches):
        batch = list(range(window + i * batch_in, window + (i + 1) * batch_in))
        entering, psi_new, psi_old, pushed, differentials, (report,) = rec.audit_run(
            spec, one_by_one, *(a[i : i + 1] for a in stacks), forget
        )
        new, old = batch[batch_in - e :], reference[: e if forget else 0]
        out = (reference + batch)[: 0 if forget else batch_in]
        for got, ref in zip(entering, samples):
            assert same_bytes(got[0], ref[new])
        for got, ref in zip((psi_new, psi_old, pushed), (new, old, out)):
            assert same_bytes(got[0], rows_of(ref))
        assert same_bytes(differentials[0], gram(rows_of(new)) - gram(rows_of(old)))
        (ref_report,) = utility_from_differential(differentials[0][None])
        assert same_bytes(report.kappas, ref_report.kappas)
        assert (report.classification, report.differential_trace) == (
            ref_report.classification, ref_report.differential_trace
        )
        # psi_old and pushed may be views of the buffer's rows: copy them first
        blocks = copies((*entering, psi_new, psi_old, pushed, differentials))
        expected.append(([b[0] for b in blocks], report))
        one_by_one.extend(*flat([*entering, psi_new]))
        reference = (reference + new)[-window:]
        assert same_window(one_by_one, reference)

    run = full_window(spec, *warmup)
    entering, *stacks, reports = rec.audit_run(spec, run, *stacks, forget)
    assert same_window(run, list(range(window)))
    assert len(reports) == n_batches
    assert all(len(stack) == n_batches for stack in (*entering, *stacks))
    for i, (blocks, report) in enumerate(expected):
        for stack, block in zip((*entering, *stacks), blocks):
            assert same_bytes(stack[i], block), i
        assert same_bytes(reports[i].kappas, report.kappas), i
        assert (reports[i].classification, reports[i].differential_trace) == (
            report.classification, report.differential_trace
        )
        assert reports[i].epsilon == report.epsilon
    run.extend(*flat([*entering, stacks[0]]))
    assert same_window(run, reference)
    assert all(map(same_bytes, run.oldest(window), one_by_one.oldest(window)))


def test_audit_run_needs_a_full_window_and_equal_batches():
    """A partial window cannot be audited. Batches of unequal lengths cannot
    be passed at all: audit_run takes them as one k x b stack."""
    spec = DictionarySpec(state_dim=1, poly_degree=1)
    t = np.arange(10.0)
    x, y = t[:, None], np.zeros((10, 1))
    partial = WindowBuffer(4)
    partial.extend(t[:3], x[:3], y[:3], build_matrix(spec, x[:3]))
    with pytest.raises(ValueError):
        rec.audit_run(spec, partial, t[None, 3:4], x[None, 3:4], y[None, 3:4], 1)


# -------------------------------------------------------------------- init


def test_init_equals_batch_fit_of_retained_window(rng):
    samples = stream(rng, n=50)
    noise = NoiseModel([0.0025])
    hs = initial_horseshoe(LINEAR2, 1)
    state = rec.init(LINEAR2, fixed_config(), samples, noise, hs)
    ref = batch_fit(LINEAR2, samples[-30:], noise, hs)
    np.testing.assert_array_equal(state.s_blocks, ref.s_blocks)
    np.testing.assert_array_equal(state.b_blocks, ref.b_blocks)
    assert state.buffer.items()[0].tolist() == [s.timestamp for s in samples[-30:]]


def test_init_requires_full_warmup(rng):
    with pytest.raises(InsufficientWarmup):
        rec.init(LINEAR2, fixed_config(), stream(rng, n=20), NoiseModel([1.0]))


def test_init_requires_identifiable_geometry(rng):
    spec = DictionarySpec(state_dim=3, poly_degree=2)  # 10 columns
    cfg = RecursionConfig(window=8, batch_in=1, forget=1, theta_mode="fixed")
    samples = make_samples(rng, spec, np.zeros((10, 1)), 0.1, n=8)
    with pytest.raises(ValueError):
        rec.init(spec, cfg, samples, NoiseModel([1.0]))


def test_init_condition_violation_policies():
    # constant states: the window Gram is rank one, never informative
    flat = [Sample(float(i), [1.0, 1.0], [1.0]) for i in range(30)]
    noise = NoiseModel([1.0])
    with pytest.raises(ConditionViolated):
        rec.init(LINEAR2, fixed_config(policy="reject"), flat, noise)
    with pytest.raises(ConditionViolated):
        rec.init(LINEAR2, fixed_config(policy="defer"), flat, noise)
    state = rec.init(LINEAR2, fixed_config(policy="warn"), flat, noise)
    assert state.init_flagged


def test_init_timestamps_must_increase(rng):
    samples = stream(rng, n=30)
    samples[10] = Sample(samples[9].timestamp, samples[10].state, samples[10].observation)
    with pytest.raises(ValueError):
        rec.init(LINEAR2, fixed_config(), samples, NoiseModel([1.0]))


def test_observations_must_match_the_noise_model(rng):
    samples = stream(rng, n=40)
    with pytest.raises(DimensionMismatch):
        rec.init(LINEAR2, fixed_config(), samples, NoiseModel([1.0, 1.0]))
    state = rec.init(LINEAR2, fixed_config(), samples[:30], NoiseModel([1.0]))
    wide = [Sample(s.timestamp, s.state, [0.0, 0.0]) for s in samples[30:35]]
    with pytest.raises(DimensionMismatch):
        rec.step(state, wide)


# ------------------------------------------------------------ equivalence


def test_sliding_recursion_tracks_batch_fit(rng):
    samples = stream(rng, n=120)
    noise = NoiseModel([0.0025])
    hs = initial_horseshoe(LINEAR2, 1)
    cfg = fixed_config(window=40, batch_in=10, forget=10)
    state = rec.init(LINEAR2, cfg, samples[:40], noise, hs)
    for k in range(40, 120, 10):
        out = rec.step(state, samples[k : k + 10])
        assert out.accepted
        window = samples[k + 10 - 40 : k + 10]
        ref = batch_fit(LINEAR2, window, noise, hs)
        scale = 1.0 + np.max(np.abs(ref.s_blocks))
        assert np.max(np.abs(state.s_blocks - ref.s_blocks)) < 1e-8 * scale
        assert np.max(np.abs(rec.snapshot(state).mean() - ref.mean())) < 1e-8


PROPERTY_STEPS = 12


@given(
    policy=st.sampled_from(rec.POLICIES),
    window=st.integers(8, 20),
    batch_in=st.integers(1, 6),
    slide=st.booleans(),
    zero_steps=st.sets(st.integers(0, PROPERTY_STEPS - 1), max_size=4),
    seed=st.integers(0, 2**16),
)
def test_sliding_posterior_is_batch_fit_of_buffer(
    policy, window, batch_in, slide, zero_steps, seed
):
    # with no discount the posterior must hold exactly the samples applied
    # so far after every step, whatever the policy does with the batch:
    # deferred merges, batches that overflow the window and zero-state
    # batches (pure information loss without a bias column). A sliding
    # window (forget = batch_in) holds the buffered samples; a growing one
    # (forget = 0) the warmup and every applied batch. The warmup audit sees
    # the Gram of the rows that the first slide keeps: informative once
    # they span the columns
    assume(window - min(batch_in, window) >= LINEAR2.n_columns)
    rng = np.random.default_rng(seed)
    samples = stream(rng, n=window + PROPERTY_STEPS * batch_in)
    noise = NoiseModel([0.0025])
    forget = batch_in if slide else 0
    cfg = fixed_config(window=window, batch_in=batch_in, forget=forget, policy=policy)
    state = rec.init(LINEAR2, cfg, samples[:window], noise)
    applied, parked = samples[:window], []
    for k in range(PROPERTY_STEPS):
        batch = samples[window + k * batch_in : window + (k + 1) * batch_in]
        if k in zero_steps:
            batch = [Sample(s.timestamp, np.zeros(2), s.observation) for s in batch]
        merged = parked + batch
        if rec.step(state, batch).accepted:
            applied = applied + merged
        parked = merged if state.pending is not None else []
        assert len(state.buffer) == window
        post = rec.snapshot(state)
        held = state.buffer.items() if slide else applied
        ref = batch_fit(LINEAR2, held, noise, state.horseshoe)
        for a, b in ((post.s_blocks, ref.s_blocks), (post.b_blocks, ref.b_blocks)):
            assert np.linalg.norm(a - b) <= 1e-9 * (1.0 + np.linalg.norm(b))


STALE_STEPS = 20


@example(policy="warn", xi=0.7, slide=True, refresh_every=None, zero_steps=set(), seed=0)
@example(policy="warn", xi=0.9, slide=True, refresh_every=2, zero_steps=set(), seed=0)
@example(policy="defer", xi=1.0, slide=False, refresh_every=2, zero_steps={1, 2, 5}, seed=1)
@example(policy="reject", xi=0.9, slide=True, refresh_every=4, zero_steps={0, 3}, seed=2)
@given(
    policy=st.sampled_from(rec.POLICIES),
    xi=st.sampled_from([1.0, 0.9, 0.7]),
    slide=st.booleans(),
    refresh_every=st.sampled_from([None, 2, 4]),
    zero_steps=st.sets(st.integers(0, STALE_STEPS - 1), max_size=6),
    seed=st.integers(0, 2**16),
)
def test_kept_posterior_is_the_one_its_moments_give(
    policy, xi, slide, refresh_every, zero_steps, seed
):
    """The posterior the state keeps never goes stale: after init and after
    every step, whatever happened to it (applied, rejected, deferred,
    rolled back because the discounted window drains, a prior refresh
    applied or refused), snapshot holds the bytes of the posterior that the
    window moments and the prior in force give. refresh_every None runs
    the fixed prior."""
    rng = np.random.default_rng(seed)
    samples = stream(rng, n=10 + 2 * STALE_STEPS, noise_std=1.0)
    cfg = RecursionConfig(
        window=10, batch_in=2, forget=2 if slide else 0, forgetting_factor=xi,
        policy=policy, theta_mode="fixed" if refresh_every is None else "adaptive",
        refresh_every=refresh_every,
    )
    noise = NoiseModel([1.0])

    def assert_fresh(state):
        post = rec.snapshot(state)
        ref = posterior_from_moments(LINEAR2, noise, state.horseshoe, state.gram, state.cross)
        assert post.s_blocks.tobytes() == ref.s_blocks.tobytes()
        assert post.b_blocks.tobytes() == ref.b_blocks.tobytes()
        assert post.mean_blocks().tobytes() == ref.mean_blocks().tobytes()
        assert post.std_blocks().tobytes() == ref.std_blocks().tobytes()

    state = rec.init(LINEAR2, cfg, samples[:10], noise)
    assert_fresh(state)
    for k in range(STALE_STEPS):
        batch = samples[10 + 2 * k : 12 + 2 * k]
        if k in zero_steps:  # a stuck sensor: redundant, so rejected or deferred
            batch = [Sample(s.timestamp, np.zeros(2), s.observation) for s in batch]
        rec.step(state, batch)
        assert_fresh(state)


def test_one_factorization_per_posterior(monkeypatch):
    """A step factors the posterior it assembles once: the PD guard, the
    residual, the record and the refresh read that one factor, so a Lorenz
    fit makes at most one Cholesky call per step plus one per prior
    refresh (refused ones included)."""
    t, x, y = simulate_lorenz(LorenzConfig(t_end=3.0, seed=1))
    spec = DictionarySpec(state_dim=3, poly_degree=2)
    cfg = RecursionConfig(window=100, batch_in=1, forget=1, refresh_every=20)
    state = rec.init(spec, cfg, (t[:100], x[:100], y[:100]), NoiseModel(np.ones(3)))
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    steps = refreshes = 0
    for k in range(100, len(t)):
        outcome = rec.step(state, (t[k : k + 1], x[k : k + 1], y[k : k + 1]))
        rec.step_record(state, outcome)
        steps += 1
        refreshes += outcome.theta_refreshed or (outcome.reason or "").endswith("refused")
    assert steps == 201 and refreshes >= 10
    assert 0 < len(calls) <= steps + refreshes


def test_no_forget_accumulates_information(rng):
    # forget=0: nothing is divided out, the buffer evicts silently and the
    # posterior keeps every sample's information
    samples = stream(rng, n=80)
    noise = NoiseModel([0.01])
    hs = initial_horseshoe(LINEAR2, 1)
    cfg = RecursionConfig(window=40, batch_in=10, forget=0, theta_mode="fixed")
    state = rec.init(LINEAR2, cfg, samples[:40], noise, hs)
    for k in range(40, 80, 10):
        out = rec.step(state, samples[k : k + 10])
        assert out.accepted
    assert len(state.buffer) == 40
    ref = batch_fit(LINEAR2, samples, noise, hs)  # all 80, not just the window
    scale = 1.0 + np.max(np.abs(ref.s_blocks))
    assert np.max(np.abs(state.s_blocks - ref.s_blocks)) < 1e-8 * scale


def test_overflowing_moments_raise_non_finite_input(rng):
    """rec.step checks the information it builds from the moments it sums: a
    growing window whose Gram passes the largest double on its third batch
    of 8e153 states (each batch's own Gram is finite), a Gram that is finite
    but not once divided by a noise variance of 0.0025, and a cross-moment
    of observations of 1e300 raise NonFiniteInput naming the batch's t, and
    leave the state as it was."""
    samples = stream(rng, n=40)
    cfg = fixed_config(window=20, batch_in=2, forget=0)

    def batch(t, scale, y):
        return np.array([t, t + 1.0]), scale * np.eye(2), np.full((2, 1), y)

    with np.errstate(over="ignore"):
        state = rec.init(LINEAR2, cfg, samples[:20], NoiseModel([1.0]))
        assert rec.step(state, batch(100.0, 8e153, 0.0)).accepted
        assert rec.step(state, batch(102.0, 8e153, 0.0)).accepted
        gram, cross = state.gram.copy(), state.cross.copy()
        with pytest.raises(NonFiniteInput, match="t=105.0"):
            rec.step(state, batch(104.0, 8e153, 0.0))
        with pytest.raises(NonFiniteInput, match="t=107.0"):
            rec.step(state, batch(106.0, 1e10, 1e300))
        assert same_bytes(state.gram, gram) and same_bytes(state.cross, cross)
        state = rec.init(LINEAR2, cfg, samples[:20], NoiseModel([0.0025]))
        with pytest.raises(NonFiniteInput, match="t=101.0"):
            rec.step(state, batch(100.0, 2e153, 0.0))


@pytest.mark.parametrize("theta_mode", ["fixed", "adaptive"])
def test_discounted_recursion_matches_closed_form(rng, theta_mode):
    # xi < 1, forget = 0: after n steps the window Gram is
    # xi^n G_0 + sum_k xi^(n-k) Gram(batch_k) (and the cross-moment alike),
    # and block i is that Gram over sigma_i^2 plus the prior precision in
    # force, whatever the prior was when each batch arrived
    spec = DictionarySpec(state_dim=3, poly_degree=1, include_bias=False)
    coef = np.array([[1.0, 0.5], [0.4, -1.0], [2.0, 0.3]])
    window, batch_in, steps, xi = 20, 4, 25, 0.9
    samples = make_samples(rng, spec, coef, noise_std=0.1, n=window + steps * batch_in)
    variances = np.array([0.01, 0.04])
    cfg = RecursionConfig(
        window=window, batch_in=batch_in, forget=0, forgetting_factor=xi,
        policy="warn", theta_mode=theta_mode, refresh_every=40,
    )
    state = rec.init(spec, cfg, samples[:window], NoiseModel(variances))

    def moments(block):
        psi = build_matrix(spec, [s.state for s in block])
        return psi.T @ psi, psi.T @ np.array([s.observation for s in block])

    g, c = moments(samples[:window])
    refreshed = []
    for n in range(1, steps + 1):
        batch = samples[window + (n - 1) * batch_in : window + n * batch_in]
        out = rec.step(state, batch)
        assert out.accepted
        refreshed.append(out.theta_refreshed)
        g_batch, c_batch = moments(batch)
        g, c = xi * g + g_batch, xi * c + c_batch
        post = rec.snapshot(state)
        prior = state.horseshoe.prior_precision_blocks()
        for i, var in enumerate(variances):
            s_ref = g / var + np.diag(prior[i])
            b_ref = c[:, i] / var
            assert np.linalg.norm(post.s_blocks[i] - s_ref) <= 1e-9 * np.linalg.norm(s_ref)
            assert np.linalg.norm(post.b_blocks[i] - b_ref) <= 1e-9 * np.linalg.norm(b_ref)
    # adaptive: refreshes every 10 steps, each followed by more steps
    assert sum(refreshed) == (2 if theta_mode == "adaptive" else 0)


def test_outcome_metadata(rng):
    samples = stream(rng, n=60)
    noise = NoiseModel([0.0025])
    cfg = fixed_config(window=30, batch_in=10, forget=10)
    state = rec.init(LINEAR2, cfg, samples[:30], noise)
    out = rec.step(state, samples[30:40])
    assert out.step_index == 1
    assert out.timestamp == samples[39].timestamp
    assert out.accepted
    assert out.residual_rms is not None and out.residual_rms < 1.0
    record = rec.step_record(state, out)
    assert not record["prior_floor"]  # no discount, no prior re-injection
    assert set(record) == {
        "step", "t", "accepted", "flagged", "reason", "classification",
        "kappa_min", "kappa_max", "coef_mean", "coef_std", "residual_rms",
        "theta_refreshed", "prior_floor",
    }


# ---------------------------------------------------------------- policies


def test_reject_policy_leaves_state_untouched(rng):
    samples = stream(rng, n=40)
    noise = NoiseModel([0.0025])
    cfg = fixed_config(window=30, batch_in=5, forget=5, policy="reject")
    state = rec.init(LINEAR2, cfg, samples[:30], noise)
    s_before = state.s_blocks.copy()
    held = state.buffer.items()[0].tolist()
    # replay the exact five samples about to be forgotten: the differential
    # is zero, classified redundant, and the step must be rejected
    _, x, y, _ = copies(state.buffer.oldest(5))
    dup = [Sample(40.0 + i, *sample) for i, sample in enumerate(zip(x, y))]
    out = rec.step(state, dup)
    assert not out.accepted
    assert out.utility.classification == "redundant"
    np.testing.assert_array_equal(state.s_blocks, s_before)
    assert state.buffer.items()[0].tolist() == held  # the batch added nothing
    # an informative batch afterwards goes through
    out2 = rec.step(state, samples[35:40])
    assert out2.accepted or out2.utility.classification != "informative"


def test_warn_policy_applies_flagged_update(rng):
    samples = stream(rng, n=40)
    cfg = fixed_config(window=30, batch_in=2, forget=2, policy="warn")
    state = rec.init(LINEAR2, cfg, samples[:30], NoiseModel([0.0025]))
    # two samples in, two out: differential has rank <= 4 but the dictionary
    # has only 2 columns, so informativeness is possible; force redundancy
    _, x, y, _ = copies(state.buffer.oldest(2))
    dup = [Sample(50.0 + i, *sample) for i, sample in enumerate(zip(x, y))]
    out = rec.step(state, dup)
    assert out.accepted
    assert out.flagged
    assert "warn" in out.reason


def test_defer_policy_aggregates_until_informative(rng):
    spec = DictionarySpec(state_dim=4, poly_degree=1, include_bias=False)
    coef = np.array([[1.0], [2.0], [-1.0], [0.5]])
    samples = make_samples(rng, spec, coef, noise_std=0.01, n=80)
    cfg = RecursionConfig(
        window=40, batch_in=1, forget=0, policy="defer", theta_mode="fixed"
    )
    noise = NoiseModel([1e-4])
    state = rec.init(spec, cfg, samples[:40], noise)
    accepted_at = []
    for k in range(40, 52):
        last_t = state.buffer.last_t
        out = rec.step(state, [samples[k]])
        assert len(state.buffer) == 40
        if out.accepted:
            accepted_at.append(k)
            assert state.pending is None
            assert state.buffer.last_t == samples[k].timestamp
        else:
            assert "deferred" in out.reason
            assert state.buffer.last_t == last_t  # the batch added nothing yet
    # single rank-one batches can never be informative in 4 dimensions, so
    # the first acceptances happen only after enough deferrals accumulate
    assert accepted_at, "no deferred batch was ever accepted"
    assert accepted_at[0] >= 43
    # every sample up to the last acceptance is in the window despite the
    # deferrals: the newest 40 of them, none skipped
    last = accepted_at[-1]
    assert state.buffer.items()[0].tolist() == [
        s.timestamp for s in samples[last - 39 : last + 1]
    ]


def test_defer_drops_a_merged_batch_that_fills_the_window():
    # W=8, batch_in=forget=6 and three zero-state batches. The two newest
    # warmup samples out-excite any batch, the oldest six do not. A merged
    # batch that fills the window is audited against the whole buffer, so it
    # can never pass; it is dropped, and the next batch is audited against
    # the oldest six again instead of being merged into it forever
    e1, e2 = np.eye(2)
    oldest = [e1, e2, -e1, -e2, e1 + e2, e1 - e2]
    states = oldest + [100.0 * e1, 100.0 * e2]
    warmup = [Sample(float(i), x, [x @ (3.0, -2.0)]) for i, x in enumerate(states)]
    cfg = fixed_config(window=8, batch_in=6, forget=6, policy="defer")
    state = rec.init(LINEAR2, cfg, warmup, NoiseModel([0.0025]))
    reasons = []
    for k in range(8):
        scale = 0.0 if k < 3 else 3.0  # zero states, then a strong batch
        batch = [
            Sample(10.0 + 6 * k + i, scale * x, [scale * x @ (3.0, -2.0)])
            for i, x in enumerate(oldest)
        ]
        out = rec.step(state, batch)
        reasons.append(out.reason)
        assert state.pending is None or len(state.pending[0]) < cfg.window
    assert reasons[1].endswith("deferred batch reached the window length, dropped")
    assert reasons[4] is None  # a fresh strong batch beats the oldest six
    assert state.buffer.last_t > warmup[-1].timestamp


def test_defer_bounds_pending_for_a_stuck_sensor(rng):
    # forget = 0: a sensor stuck at one state sends rank-one batches that are
    # never informative; merging them stops at the window length
    samples = stream(rng, n=20)
    cfg = RecursionConfig(
        window=20, batch_in=5, forget=0, policy="defer", theta_mode="fixed"
    )
    state = rec.init(LINEAR2, cfg, samples, NoiseModel([0.0025]))
    t = samples[-1].timestamp + 1.0
    for k in range(40):
        stuck = [Sample(t + 5 * k + i, np.ones(2), [1.0]) for i in range(5)]
        assert not rec.step(state, stuck).accepted
        assert state.pending is None or len(state.pending[0]) < cfg.window
    # the sensor recovers: its batch is merged with what is pending and applied
    live = make_samples(
        rng, LINEAR2, np.array([[3.0], [-2.0]]), noise_std=0.05, n=5, t0=t + 200.0
    )
    assert rec.step(state, live).accepted
    assert state.buffer.last_t == live[-1].timestamp
    assert state.pending is None


def test_pd_rollback_guard_under_drain(rng):
    # discount plus full forgetting drains information until an update would
    # push the matrix indefinite; the guard must refuse that update even
    # under the warn policy
    samples = stream(rng, n=400)
    cfg = RecursionConfig(
        window=10, batch_in=5, forget=5, forgetting_factor=0.7,
        policy="warn", theta_mode="fixed",
    )
    noise = NoiseModel([0.0025])
    state = rec.init(LINEAR2, cfg, samples[:10], noise)
    sawed = None
    for k in range(10, 400, 5):
        out = rec.step(state, samples[k : k + 5])
        if not out.accepted:
            sawed = out
            break
    assert sawed is not None, "drain never tripped the rollback guard"
    assert "rolled back" in sawed.reason
    assert np.linalg.eigvalsh(rec.snapshot(state).s_blocks).min() > 0


def test_refresh_that_would_break_definiteness_is_refused(rng):
    # discount plus full forgetting drains the window Gram below zero, and
    # a refresh can then weaken the prior past what keeps the drained
    # posterior proper. The guard runs on the posterior the step leaves,
    # after the refresh: such a refresh is refused and the previous prior
    # kept, the step stays accepted and is flagged, and no step raises
    samples = stream(rng, n=10 + 60 * 2, noise_std=1.0)
    cfg = RecursionConfig(
        window=10, batch_in=2, forget=2, forgetting_factor=0.9,
        policy="warn", theta_mode="adaptive", refresh_every=2,
    )
    state = rec.init(LINEAR2, cfg, samples[:10], NoiseModel([1.0]))
    refused = 0
    for k in range(10, len(samples), 2):
        prior = state.horseshoe
        out = rec.step(state, samples[k : k + 2])
        if out.accepted:
            assert np.linalg.eigvalsh(rec.snapshot(state).s_blocks).min() > 0
        if out.reason is not None and out.reason.endswith("refused"):
            refused += 1
            assert out.accepted and out.flagged and not out.theta_refreshed
            assert out.reason.startswith("update ")  # joined to the warn reason
            assert state.horseshoe is prior
    assert refused


# ----------------------------------------------------------------- refresh


def test_adaptive_refresh_cadence(rng):
    spec = DictionarySpec(state_dim=3, poly_degree=1, include_bias=False)
    coef = np.array([[4.0], [0.0], [0.0]])
    samples = make_samples(rng, spec, coef, noise_std=0.1, n=120)
    cfg = RecursionConfig(
        window=40, batch_in=10, forget=10, theta_mode="adaptive", refresh_every=20
    )
    state = rec.init(spec, cfg, samples[:40], NoiseModel([0.01]))
    refreshed_at = []
    for i, k in enumerate(range(40, 120, 10)):
        out = rec.step(state, samples[k : k + 10])
        if out.theta_refreshed:
            refreshed_at.append(i + 1)
        assert np.linalg.eigvalsh(rec.snapshot(state).s_blocks).min() > 0
    assert refreshed_at == [2, 4, 6, 8]
    # shrinkage happened: null scales far below the signal scale
    scales = state.horseshoe.local_scales[:, 0]
    assert scales[0] > 10.0 * max(scales[1], scales[2])


def test_step_validates_batch_size_and_order(rng):
    samples = stream(rng, n=60)
    cfg = fixed_config(window=30, batch_in=5, forget=5)
    state = rec.init(LINEAR2, cfg, samples[:30], NoiseModel([0.0025]))
    with pytest.raises(ValueError):
        rec.step(state, samples[30:34])
    stale = [Sample(0.5 + i, s.state, s.observation) for i, s in enumerate(samples[30:35])]
    with pytest.raises(ValueError):
        rec.step(state, stale)  # timestamps fall behind the buffer


def test_snapshot_is_isolated_from_future_steps(rng):
    samples = stream(rng, n=60)
    cfg = fixed_config(window=30, batch_in=10, forget=10)
    state = rec.init(LINEAR2, cfg, samples[:30], NoiseModel([0.0025]))
    snap = rec.snapshot(state)
    frozen = snap.mean().copy()
    rec.step(state, samples[30:40])
    np.testing.assert_array_equal(snap.mean(), frozen)
