import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reanneal_rl import mlp
from reanneal_rl.mlp import (
    NetworkParams,
    adam_step,
    backward,
    clone_params,
    forward,
    forward_batch,
    init_adam_state,
    init_params,
)

from oracles import huber_loss


def small_net(rng, sizes=(5, 7, 6, 3)):
    return init_params(sizes, rng)


def naive_forward(params, x):
    """Straight-line nested-loop oracle for the forward pass."""
    h = list(x)
    n = len(params.weights)
    for l in range(n):
        out = []
        for i in range(params.layer_sizes[l + 1]):
            acc = params.biases[l][i]
            for j in range(params.layer_sizes[l]):
                acc += params.weights[l][i, j] * h[j]
            if l < n - 1 and acc < 0:
                acc = 0.0
            out.append(acc)
        h = out
    return np.array(h)


class TestForward:
    def test_zero_network_outputs_zero(self):
        p = init_params((8, 4, 4), np.random.default_rng(0))
        for w in p.weights:
            w[:] = 0.0
        assert np.array_equal(forward(p, np.ones(8)), np.zeros(4))

    def test_relu_clamps_negative_preactivation(self):
        # Flat order w0, b0, w1, b1.
        p = NetworkParams((1, 1, 1), flat=np.array([1.0, -1.0, 1.0, 0.0]))
        assert forward(p, np.array([0.5]))[0] == 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        p = small_net(rng)
        x = rng.normal(size=5)
        np.testing.assert_allclose(forward(p, x), naive_forward(p, x),
                                   rtol=0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        p = small_net(np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(p, np.zeros(4))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        p = small_net(rng)
        x = rng.normal(size=5)
        assert np.array_equal(forward(p, x), forward(p, x))


class TestForwardBatch:
    def test_single_row_matches_forward(self):
        rng = np.random.default_rng(1)
        p = small_net(rng)
        x = rng.normal(size=5)
        np.testing.assert_array_equal(forward_batch(p, x[None, :])[0],
                                      forward(p, x))

    def test_rowwise_equality(self):
        rng = np.random.default_rng(2)
        p = small_net(rng)
        batch = rng.normal(size=(32, 5))
        out = forward_batch(p, batch)
        for i in range(32):
            np.testing.assert_allclose(out[i], forward(p, batch[i]),
                                       rtol=0, atol=1e-12)

    def test_duplicated_rows_give_duplicated_outputs(self):
        rng = np.random.default_rng(4)
        p = small_net(rng)
        row = rng.normal(size=5)
        out = forward_batch(p, np.stack([row, row]))
        assert np.array_equal(out[0], out[1])


class TestHuberLoss:
    def test_zero_error_zero_loss(self):
        assert huber_loss(0.0, 1.0) == 0.0

    def test_unit_error_closed_form(self):
        assert huber_loss(1.0, 1.0) == pytest.approx(np.sqrt(2) - 1, abs=1e-12)

    def test_even_function(self):
        rng = np.random.default_rng(5)
        for d in rng.normal(scale=3.0, size=20):
            assert huber_loss(d, 1.3) == pytest.approx(huber_loss(-d, 1.3))

    def test_quadratic_near_zero_linear_in_tails(self):
        assert huber_loss(1e-4, 1.0) == pytest.approx(0.5e-8, rel=1e-4)
        assert huber_loss(1e4, 2.0) == pytest.approx(2.0 * 1e4, rel=1e-3)

    def test_invalid_kappa_rejected(self):
        with pytest.raises(ValueError):
            huber_loss(1.0, 0.0)
        with pytest.raises(ValueError):
            huber_loss(1.0, -1.0)

    def test_backward_loss_is_the_batch_mean(self):
        rng = np.random.default_rng(6)
        p = small_net(rng)
        batch = rng.normal(size=(9, 5))
        actions = rng.integers(0, 3, size=9)
        targets = rng.normal(scale=4.0, size=9)
        _, loss = backward(p, batch, actions, targets, kappa=1.7)
        selected = forward_batch(p, batch)[np.arange(9), actions]
        assert loss == pytest.approx(
            np.mean(huber_loss(selected - targets, 1.7)), rel=1e-12)


def finite_difference_grads(params, batch, actions, targets, kappa, h=1e-5):
    """Central finite differences of the mean batch loss."""
    def loss():
        q = forward_batch(params, batch)
        sel = q[np.arange(len(actions)), actions]
        return float(np.mean(huber_loss(sel - targets, kappa)))

    grads = NetworkParams(params.layer_sizes)
    for arrays, out in ((params.weights, grads.weights),
                        (params.biases, grads.biases)):
        for arr, g in zip(arrays, out):
            flat = arr.ravel()
            gflat = g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                gflat[i] = (up - down) / (2 * h)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4, tiny=1e-6, abs_tol=1e-7):
    for a, n in zip(analytic.weights + analytic.biases,
                    numeric.weights + numeric.biases):
        a = a.ravel()
        n = n.ravel()
        small = np.abs(a) < tiny
        assert np.all(np.abs(a[small] - n[small]) < abs_tol)
        big = ~small
        assert np.all(np.abs(a[big] - n[big]) <= rel * np.abs(a[big]))


class TestBackward:
    def test_zero_loss_zero_gradients_at_targets(self):
        rng = np.random.default_rng(11)
        p = small_net(rng)
        batch = rng.normal(size=(4, 5))
        actions = rng.integers(0, 3, size=4)
        q = forward_batch(p, batch)
        targets = q[np.arange(4), actions]
        grads, loss = backward(p, batch, actions, targets)
        assert loss == 0.0
        for g in grads.weights + grads.biases:
            assert np.all(g == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            p = small_net(rng)
            batch = rng.normal(size=(3, 5))
            actions = rng.integers(0, 3, size=3)
            targets = rng.normal(scale=2.0, size=3)
            grads, _ = backward(p, batch, actions, targets, kappa=1.0)
            numeric = finite_difference_grads(p, batch, actions, targets, 1.0)
            assert_grads_close(grads, numeric)

    def test_duplicate_samples_average_to_single_gradient(self):
        rng = np.random.default_rng(13)
        p = small_net(rng)
        x = rng.normal(size=5)
        grads1, loss1 = backward(p, x[None, :], [1], [0.7])
        grads2, loss2 = backward(p, np.stack([x, x]), [1, 1], [0.7, 0.7])
        assert loss1 == pytest.approx(loss2)
        for a, b in zip(grads1.weights + grads1.biases,
                        grads2.weights + grads2.biases):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            p = small_net(rng)
            batch = rng.normal(size=(6, 5))
            actions = rng.integers(0, 3, size=6)
            targets = rng.normal(size=6)
            _, loss = backward(p, batch, actions, targets)
            assert loss >= 0.0


def scalar_adam_reference(theta, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar Adam recurrence for expected-value checks."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    return theta


def textbook_adam_step(theta, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Kingma & Ba's update written out with fresh temporaries, in place,
    with no flush of small moments."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    theta -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)


def scalar_net():
    # One weight, no bias contribution matters: 1-in 1-out linear net.
    return NetworkParams((1, 1))


class TestAdam:
    def test_zero_gradient_leaves_params_fixed(self):
        rng = np.random.default_rng(20)
        p = small_net(rng)
        before = clone_params(p)
        state = init_adam_state(p)
        adam_step(p, NetworkParams(p.layer_sizes), state, lr=0.01)
        for a, b in zip(p.weights + p.biases, before.weights + before.biases):
            assert np.array_equal(a, b)
        assert state.step_count == 1

    def test_first_step_matches_hand_computed_recurrence(self):
        p = scalar_net()
        state = init_adam_state(p)
        grads = NetworkParams((1, 1), flat=np.array([1.0, 0.0]))
        adam_step(p, grads, state, lr=0.01)
        expected = scalar_adam_reference(0.0, [1.0], 0.01)
        assert p.weights[0][0, 0] == pytest.approx(expected, abs=1e-12)
        assert p.weights[0][0, 0] == pytest.approx(-0.01, abs=1e-9)

    def test_two_steps_match_hand_computed_recurrence(self):
        p = scalar_net()
        state = init_adam_state(p)
        grads = NetworkParams((1, 1), flat=np.array([1.0, 0.0]))
        adam_step(p, grads, state, lr=0.01)
        adam_step(p, grads, state, lr=0.01)
        expected = scalar_adam_reference(0.0, [1.0, 1.0], 0.01)
        assert state.step_count == 2
        assert p.weights[0][0, 0] == pytest.approx(expected, abs=1e-12)

    def test_subnormal_moments_flushed_every_period(self):
        rng = np.random.default_rng(21)
        p = small_net(rng)
        state = init_adam_state(p)
        state.m.flat[:] = rng.normal(size=p.flat.size)
        state.v.flat[:] = rng.uniform(0.5, 1.0, size=p.flat.size)
        state.m.flat[3] = 5e-324  # the smallest subnormal: fl(0.9*m) == m
        state.v.flat[7] = 1e-310
        theta, m, v = p.flat.copy(), state.m.flat.copy(), state.v.flat.copy()
        zero = NetworkParams(p.layer_sizes)
        for t in range(1, mlp.ADAM_FLUSH_PERIOD + 1):
            if t == mlp.ADAM_FLUSH_PERIOD:
                # Nothing is flushed before the period's last step.
                assert np.array_equal(state.m.flat, m)
                assert np.array_equal(state.v.flat, v)
            adam_step(p, zero, state, lr=0.01)
            textbook_adam_step(theta, zero.flat, m, v, t, lr=0.01)
        assert m[3] == 5e-324 and 0 < v[7] < np.finfo(float).tiny
        assert state.m.flat[3] == 0.0 and state.v.flat[7] == 0.0
        assert np.array_equal(p.flat, theta)
        others = np.ones(p.flat.size, dtype=bool)
        others[[3, 7]] = False
        assert np.array_equal(state.m.flat[others], m[others])
        assert np.array_equal(state.v.flat[others], v[others])


class TestLeanPathsEquivalence:
    """The workspace and fused code paths must do exactly the arithmetic of
    the plain per-array formulas."""

    def test_fused_adam_matches_textbook_bitwise(self):
        rng = np.random.default_rng(60)
        fused = small_net(rng)
        ref = clone_params(fused)
        ref_m = [np.zeros_like(a) for a in ref.weights + ref.biases]
        ref_v = [np.zeros_like(a) for a in ref.weights + ref.biases]
        state = init_adam_state(fused)
        lr = 0.01
        # 70 steps cross one flush of small moments, which must change
        # nothing here: no moment gets near the subnormal range.
        for t in range(1, 71):
            g = small_net(rng)  # random values in gradient shapes
            adam_step(fused, g, state, lr)
            for theta, gr, m, v in zip(ref.weights + ref.biases,
                                       g.weights + g.biases, ref_m, ref_v):
                textbook_adam_step(theta, gr, m, v, t, lr)
        assert state.step_count == 70
        assert np.array_equal(fused.flat, ref.flat)
        for moments, ref_list in ((state.m, ref_m), (state.v, ref_v)):
            for a, c in zip(moments.weights + moments.biases, ref_list):
                assert np.array_equal(a, c)

    def test_backward_into_workspace_matches_fresh(self):
        rng = np.random.default_rng(61)
        p = small_net(rng)
        ws = NetworkParams(p.layer_sizes)
        ws.flat[:] = np.nan  # stale contents must be overwritten
        buffer = ws.flat
        for _ in range(3):
            batch = rng.normal(size=(6, 5))
            actions = rng.integers(0, 3, size=6)
            targets = rng.normal(size=6)
            fresh, loss = backward(p, batch, actions, targets, kappa=0.7)
            into, loss_ws = backward(p, batch, actions, targets, kappa=0.7,
                                     grads=ws)
            assert into is ws and ws.flat is buffer
            assert loss_ws == loss
            assert np.array_equal(ws.flat, fresh.flat)
            for a, b in zip(ws.weights + ws.biases,
                            fresh.weights + fresh.biases):
                assert np.shares_memory(a, buffer)
                assert np.array_equal(a, b)

    def test_backward_without_workspace_returns_fresh_arrays(self):
        rng = np.random.default_rng(62)
        p = small_net(rng)
        batch = rng.normal(size=(4, 5))
        actions = rng.integers(0, 3, size=4)
        g1, _ = backward(p, batch, actions, rng.normal(size=4))
        g2, _ = backward(p, batch, actions, rng.normal(size=4))
        assert not np.shares_memory(g1.flat, g2.flat)
        for a in g1.weights + g1.biases:
            for b in g2.weights + g2.biases:
                assert not np.shares_memory(a, b)
        assert not np.array_equal(g1.flat, g2.flat)


def bits(a):
    return np.asarray(a).tobytes()


@st.composite
def net_and_state_batches(draw):
    """A network of one of the three shapes with normal weights and biases
    (so ReLUs cut in every hidden layer), a batch size, and batches of that
    size that hold every input index once, in a drawn order, padded with
    drawn repeats; plus actions and targets for each batch."""
    sizes = draw(st.sampled_from([(85, 2), (85, 32, 2), (85, 16, 8, 2)]))
    batch = draw(st.sampled_from([32, 64, 100]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = NetworkParams(sizes, flat=rng.normal(size=mlp.param_count(sizes)))
    order = draw(st.permutations(range(sizes[0])))
    pad = draw(st.lists(st.integers(0, sizes[0] - 1), min_size=-sizes[0] % batch,
                        max_size=-sizes[0] % batch))
    batches = np.array(order + pad).reshape(-1, batch)
    actions = rng.integers(0, sizes[-1], size=batches.shape)
    targets = rng.normal(size=batches.shape)
    return params, batch, batches, actions, targets


@settings(max_examples=100, deadline=None)
@given(net_and_state_batches())
def test_index_table_rows_are_forward_batch_rows_bitwise(case):
    """Every row of the table equals, bit for bit, forward_batch's row for
    the one-hot row of its index, wherever that row sits in a batch of the
    table's batch size; and the gradient pass over gathered table rows is
    backward's on the one-hot rows."""
    params, batch, batches, actions, targets = case
    weights = bits(params.flat)
    table = mlp.index_table(params, batch)
    assert [layer.shape for layer in table] == [
        (params.layer_sizes[0], n) for n in params.layer_sizes[1:]]
    one_hot = np.eye(params.layer_sizes[0])
    for index, action, target in zip(batches, actions, targets):
        rows = one_hot[index]
        assert bits(table[-1][index]) == bits(forward_batch(params, rows))
        acts = [rows, *(layer[index] for layer in table)]
        grads, loss = mlp.gradients(params, acts, action, target)
        expected, expected_loss = backward(params, rows, action, target)
        assert bits(grads.flat) == bits(expected.flat)
        assert bits(loss) == bits(expected_loss)
    assert bits(params.flat) == weights


class TestNetworkParams:
    def test_views_share_a_given_flat_buffer(self):
        flat = np.arange(6.0)
        p = NetworkParams((2, 2), flat=flat)
        assert p.flat is flat
        np.testing.assert_array_equal(p.biases[0], [4.0, 5.0])

    def test_no_arrays_gives_zeros(self):
        p = NetworkParams((3, 4, 2))
        assert p.flat.shape == (3 * 4 + 4 + 4 * 2 + 2,)
        assert not p.flat.any()


@st.composite
def sizes_and_flat(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 10), min_size=2, max_size=4)))
    flat = draw(arrays(np.float64, mlp.param_count(sizes),
                       elements=st.floats(-1e6, 1e6)))
    return sizes, flat


@settings(max_examples=100, deadline=None)
@given(sizes_and_flat())
def test_flat_layout_is_w0_b0_w1_b1(case):
    """The layout that checkpoints and adam_step rely on: the views,
    raveled in the order w0, b0, w1, b1, ..., are the flat buffer itself."""
    sizes, flat = case
    p = NetworkParams(sizes, flat=flat)
    assert flat.size == mlp.param_count(sizes)
    views = [v for pair in zip(p.weights, p.biases) for v in pair]
    np.testing.assert_array_equal(np.concatenate([v.ravel() for v in views]),
                                  flat)
    for v in views:
        assert np.shares_memory(v, flat)


class TestCloneParams:
    def test_mutating_clone_leaves_original(self):
        rng = np.random.default_rng(30)
        p = small_net(rng)
        snapshot = [w.copy() for w in p.weights]
        c = clone_params(p)
        c.weights[0][:] = 99.0
        for w, s in zip(p.weights, snapshot):
            assert np.array_equal(w, s)

    def test_double_clone_equals_original(self):
        p = small_net(np.random.default_rng(31))
        cc = clone_params(clone_params(p))
        for a, b in zip(p.weights + p.biases, cc.weights + cc.biases):
            assert np.array_equal(a, b)

    def test_clone_forward_identical(self):
        rng = np.random.default_rng(32)
        p = small_net(rng)
        x = rng.normal(size=5)
        assert np.array_equal(forward(clone_params(p), x), forward(p, x))


class TestInit:
    def test_he_uniform_bounds_and_zero_biases(self):
        rng = np.random.default_rng(50)
        p = init_params((8, 200, 60, 4), rng)
        for l, w in enumerate(p.weights):
            bound = np.sqrt(6.0 / p.layer_sizes[l])
            assert np.all(np.abs(w) <= bound)
        for b in p.biases:
            assert np.all(b == 0.0)

    def test_shapes(self):
        p = init_params((8, 200, 60, 4), np.random.default_rng(0))
        assert [w.shape for w in p.weights] == [(200, 8), (60, 200), (4, 60)]
        assert [b.shape for b in p.biases] == [(200,), (60,), (4,)]


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        # A network's layer sizes and every weight and bias survive a
        # checkpoint: save_checkpoint writes the flat buffer, load_checkpoint
        # rebuilds the views over it from the sizes in .meta.
        from reanneal_rl.agent import (Agent, AgentConfig, load_checkpoint,
                                       save_checkpoint)

        rng = np.random.default_rng(40)
        p = small_net(rng, sizes=(8, 7, 6, 4))  # the lander's 8 inputs, 4 actions
        agent = Agent(AgentConfig(), p.layer_sizes, rng)
        agent.online.flat[:] = p.flat
        prefix = str(tmp_path / "net")
        save_checkpoint(agent, prefix, 0, "lander")
        loaded = load_checkpoint(prefix)[0].online
        assert loaded.layer_sizes == p.layer_sizes
        for a, b in zip(p.weights + p.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a, b)
