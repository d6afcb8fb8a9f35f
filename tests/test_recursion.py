"""Streaming recursion: window algebra, policies, refresh bookkeeping.

The load-bearing oracle is batch equivalence: with no discounting, a fixed
prior, and forget == batch_in, the recursive posterior after any number of
steps must equal the batch fit of the samples currently in the window.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import sparsid.recursion as rec
from sparsid import (
    ConditionViolated,
    DictionarySpec,
    InsufficientWarmup,
    NoiseModel,
    RecursionConfig,
    Sample,
    WindowBuffer,
    batch_fit,
    initial_horseshoe,
)

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
        RecursionConfig(window=10, batch_in=1, forget=11)
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
    s = [Sample(float(i), [float(i)], [0.0]) for i in range(5)]
    for x in s[:3]:
        buf.push(x)
    assert len(buf) == 3
    assert [x.timestamp for x in buf.items()] == [0.0, 1.0, 2.0]
    buf.push(s[3])  # silently evicts the oldest
    assert len(buf) == 3
    assert [x.timestamp for x in buf.items()] == [1.0, 2.0, 3.0]
    assert buf.total_ingested == 4
    assert buf.newest.timestamp == 3.0
    popped = buf.pop_oldest(2)
    assert [x.timestamp for x in popped] == [1.0, 2.0]
    assert len(buf) == 1
    with pytest.raises(ValueError):
        buf.oldest(2)
    buf.extend(s[4:])
    assert [x.timestamp for x in buf.items()] == [3.0, 4.0]


def test_window_buffer_rejects_zero_capacity():
    with pytest.raises(ValueError):
        WindowBuffer(0)


# -------------------------------------------------------------------- init


def test_init_equals_batch_fit_of_retained_window(rng):
    samples = stream(rng, n=50)
    noise = NoiseModel([0.0025])
    hs = initial_horseshoe(LINEAR2, 1)
    state = rec.init(LINEAR2, fixed_config(), samples, noise, hs)
    ref = batch_fit(LINEAR2, samples[-30:], noise, hs)
    np.testing.assert_array_equal(state.s_blocks, ref.s_blocks)
    np.testing.assert_array_equal(state.b_blocks, ref.b_blocks)
    assert state.buffer.total_ingested == 30
    assert [s.timestamp for s in state.buffer.items()] == [
        s.timestamp for s in samples[-30:]
    ]


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
    forget=st.integers(1, 8),
    zero_steps=st.sets(st.integers(0, PROPERTY_STEPS - 1), max_size=4),
    seed=st.integers(0, 2**16),
)
def test_sliding_posterior_is_batch_fit_of_buffer(
    policy, window, batch_in, forget, zero_steps, seed
):
    # with forget > 0 and no discount the posterior must hold exactly the
    # buffered samples after every step, whatever the policy does with the
    # batch: deferred merges, batches that overflow the window and
    # zero-state batches (pure information loss without a bias column).
    # The warmup audit sees Gram(window) - Gram(first `forget`), the Gram of
    # the last window - forget samples: informative once they span the columns
    assume(window - forget >= LINEAR2.n_columns)
    rng = np.random.default_rng(seed)
    samples = stream(rng, n=window + PROPERTY_STEPS * batch_in)
    noise = NoiseModel([0.0025])
    cfg = fixed_config(window=window, batch_in=batch_in, forget=forget, policy=policy)
    state = rec.init(LINEAR2, cfg, samples[:window], noise)
    for k in range(PROPERTY_STEPS):
        batch = samples[window + k * batch_in : window + (k + 1) * batch_in]
        if k in zero_steps:
            batch = [Sample(s.timestamp, np.zeros(2), s.observation) for s in batch]
        rec.step(state, batch)
        assert len(state.buffer) <= window
        post = rec.snapshot(state)
        ref = batch_fit(LINEAR2, state.buffer.items(), noise, state.horseshoe)
        for a, b in ((post.s_blocks, ref.s_blocks), (post.b_blocks, ref.b_blocks)):
            assert np.linalg.norm(a - b) <= 1e-9 * (1.0 + np.linalg.norm(b))


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
    assert state.buffer.total_ingested == 80
    ref = batch_fit(LINEAR2, samples, noise, hs)  # all 80, not just the window
    scale = 1.0 + np.max(np.abs(ref.s_blocks))
    assert np.max(np.abs(state.s_blocks - ref.s_blocks)) < 1e-8 * scale


def test_outcome_metadata(rng):
    samples = stream(rng, n=60)
    noise = NoiseModel([0.0025])
    cfg = fixed_config(window=30, batch_in=10, forget=10)
    state = rec.init(LINEAR2, cfg, samples[:30], noise)
    out = rec.step(state, samples[30:40])
    assert out.step_index == 1
    assert out.timestamp == samples[39].timestamp
    assert out.posterior_after == out.posterior_before + 1
    assert out.residual_rms is not None and out.residual_rms < 1.0
    assert not out.prior_floor  # no discount, no prior re-injection
    record = rec.step_record(state, out)
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
    ingested = state.buffer.total_ingested
    # replay the exact five samples about to be forgotten: the differential
    # is zero, classified redundant, and the step must be rejected
    dup = [
        Sample(40.0 + i, s.state, s.observation)
        for i, s in enumerate(state.buffer.oldest(5))
    ]
    out = rec.step(state, dup)
    assert not out.accepted
    assert out.utility.classification == "redundant"
    assert out.posterior_after == out.posterior_before
    np.testing.assert_array_equal(state.s_blocks, s_before)
    assert state.buffer.total_ingested == ingested
    # an informative batch afterwards goes through
    out2 = rec.step(state, samples[35:40])
    assert out2.accepted or out2.utility.classification != "informative"


def test_warn_policy_applies_flagged_update(rng):
    samples = stream(rng, n=40)
    cfg = fixed_config(window=30, batch_in=2, forget=2, policy="warn")
    state = rec.init(LINEAR2, cfg, samples[:30], NoiseModel([0.0025]))
    # two samples in, two out: differential has rank <= 4 but the dictionary
    # has only 2 columns, so informativeness is possible; force redundancy
    dup = [
        Sample(50.0 + i, s.state, s.observation)
        for i, s in enumerate(state.buffer.oldest(2))
    ]
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
    ingested = [state.buffer.total_ingested]
    accepted_at = []
    for k in range(40, 52):
        out = rec.step(state, [samples[k]])
        ingested.append(state.buffer.total_ingested)
        if out.accepted:
            accepted_at.append(k)
            assert len(state.pending) == 0
        else:
            assert "deferred" in out.reason
    # single rank-one batches can never be informative in 4 dimensions, so
    # the first acceptances happen only after enough deferrals accumulate
    assert accepted_at, "no deferred batch was ever accepted"
    assert accepted_at[0] >= 43
    # every ingested sample is accounted for despite the deferrals
    assert state.buffer.total_ingested == 40 + sum(
        1 for k in range(40, 52) if k <= accepted_at[-1]
    )


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
    assert rec.snapshot(state).is_positive_definite()


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
        assert rec.snapshot(state).is_positive_definite()
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
    assert snap.sample_count == 30
    assert rec.snapshot(state).sample_count == 40
