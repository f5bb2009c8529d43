import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucnet import neural
from ucnet.neural import (AdamState, FlatParameters, LSTMCell, Mlp, adam_step,
                          gradient_check, init_lstm, lstm_backward_batch,
                          lstm_forward_batch, softmax, softmax_cross_entropy)

from conftest import lstm_sequence


class TestDenseLayer:
    """A dense layer is the views ``name.weights`` and ``name.bias`` of a
    FlatParameters."""

    def test_dimension_mismatch(self):
        net = Mlp.init(np.random.default_rng(5), [3, 4, 2])
        with pytest.raises(ValueError):
            net.forward(np.zeros(4))

    def test_two_layers_and_two_classes_only(self):
        with pytest.raises(ValueError, match="unpack"):
            Mlp.init(np.random.default_rng(5), [3, 2])
        with pytest.raises(ValueError, match="unpack"):
            Mlp.init(np.random.default_rng(5), [3, 4, 4, 2])
        with pytest.raises(ValueError, match="two classes, got \\(3,\\)"):
            Mlp.init(np.random.default_rng(5), [3, 4, 3])
        flat = Mlp.init(np.random.default_rng(5), [3, 4, 2]).flat
        with pytest.raises(ValueError, match="two layers, got 1"):
            Mlp(flat, ["layer0"])

    def test_non_finite_parameters_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="'layer0.bias' is not finite"):
                FlatParameters.pack({"layer0.weights": np.ones((1, 2)),
                                     "layer0.bias": np.array([bad])})

    def test_gradient_views_name_one_zeroed_vector(self):
        flat = Mlp.init(np.random.default_rng(6), [3, 4, 2]).flat
        assert flat.grads is flat.grads
        assert flat.gradient.shape == flat.vector.shape
        assert not flat.gradient.any()
        for name, grad in flat.grads.items():
            assert grad.shape == flat.params[name].shape
            assert np.shares_memory(grad, flat.gradient)


class TestSoftmax:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-300, 300), min_size=1, max_size=6))
    def test_positive_and_normalized(self, logits):
        p = softmax(np.array(logits))
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) < 1e-12


def hand_lstm(cell: LSTMCell, xs):
    """Plain per-step recurrence, written out gate by gate."""
    hidden = cell.hidden_dim
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for x in xs:
        z = cell.wx @ x + cell.wh @ h + cell.bias
        i = 1.0 / (1.0 + np.exp(-z[:hidden]))
        f = 1.0 / (1.0 + np.exp(-z[hidden:2 * hidden]))
        g = np.tanh(z[2 * hidden:3 * hidden])
        o = 1.0 / (1.0 + np.exp(-z[3 * hidden:]))
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def masked_lstm_forward(cell: LSTMCell, xs, lengths):
    """Reference recurrence over the whole padded batch, masking finished rows."""
    hidden = cell.hidden_dim
    n, t_max = xs.shape[0], xs.shape[1]
    h = np.zeros((n, hidden))
    c = np.zeros((n, hidden))
    cache = []
    for t in range(t_max):
        x_t = xs[:, t, :]
        mask = (t < lengths).astype(np.float64)[:, None]
        z = x_t @ cell.wx.T + h @ cell.wh.T + cell.bias
        gi = neural.sigmoid(z[:, :hidden])
        gf = neural.sigmoid(z[:, hidden:2 * hidden])
        gg = np.tanh(z[:, 2 * hidden:3 * hidden])
        go = neural.sigmoid(z[:, 3 * hidden:])
        c_cand = gf * c + gi * gg
        tanh_c = np.tanh(c_cand)
        h_cand = go * tanh_c
        c_new = mask * c_cand + (1.0 - mask) * c
        h_new = mask * h_cand + (1.0 - mask) * h
        cache.append((x_t, h, c, gi, gf, gg, go, tanh_c, mask))
        h, c = h_new, c_new
    return h, cache


def masked_lstm_backward(cell: LSTMCell, cache, dh_final):
    """Reference BPTT for masked_lstm_forward, one weight GEMM per step."""
    dwx = np.zeros_like(cell.wx)
    dwh = np.zeros_like(cell.wh)
    dbias = np.zeros_like(cell.bias)
    dh = np.array(dh_final, dtype=np.float64)
    dc = np.zeros_like(dh)
    for x_t, h_prev, c_prev, gi, gf, gg, go, tanh_c, mask in reversed(cache):
        dh_cand = mask * dh
        dc_cand = mask * dc + dh_cand * go * (1.0 - tanh_c ** 2)
        dz = np.concatenate([
            dc_cand * gg * gi * (1.0 - gi),
            dc_cand * c_prev * gf * (1.0 - gf),
            dc_cand * gi * (1.0 - gg ** 2),
            dh_cand * tanh_c * go * (1.0 - go),
        ], axis=1)
        dwx += dz.T @ x_t
        dwh += dz.T @ h_prev
        dbias += dz.sum(axis=0)
        dh = dz @ cell.wh + (1.0 - mask) * dh
        dc = dc_cand * gf + (1.0 - mask) * dc
    return {"wx": dwx, "wh": dwh, "bias": dbias}


def cast_cell(cell: LSTMCell, dtype) -> LSTMCell:
    """The same cell computing in another dtype."""
    return LSTMCell(*(a.astype(dtype) for a in (cell.wx, cell.wh, cell.bias)))


def caching_forward(cell: LSTMCell, xs, lengths, matrix):
    """``lstm_forward_batch`` with a workspace sized for the batch, so that
    it keeps the cache ``lstm_backward_batch`` reads."""
    workspace = neural.lstm_workspace(int(np.sum(lengths)), cell.hidden_dim,
                                      cell.wx.dtype)
    return lstm_forward_batch(cell, xs, lengths, matrix, workspace=workspace)


def padded_ids(id_seqs, t_max=None):
    """(n, t_max) int64 ids, zero past each length, and the lengths."""
    if t_max is None:
        t_max = max((len(s) for s in id_seqs), default=0)
    ids = np.zeros((len(id_seqs), t_max), dtype=np.int64)
    for row, seq in enumerate(id_seqs):
        ids[row, :len(seq)] = seq
    return ids, np.array([len(s) for s in id_seqs], dtype=np.int64)


def padded(seqs, input_dim, t_max=None):
    """Float sequences as LSTM input: one matrix row per cell, so every id
    is distinct. Returns (ids, lengths, matrix)."""
    starts = np.cumsum([0] + [len(s) for s in seqs])
    ids, lengths = padded_ids([np.arange(a, b) for a, b in
                               zip(starts[:-1], starts[1:])], t_max)
    matrix = np.concatenate([np.reshape(s, (-1, input_dim)) for s in seqs]) \
        if seqs else np.zeros((0, input_dim))
    return ids, lengths, matrix


def row_major_lstm(cell: LSTMCell, xs, lengths, matrix, dh_final):
    """The packed recurrence and its BPTT on a row-major ``(cells, 4 *
    hidden)`` gate array, written with the textbook expressions. Returns the
    final states in sorted row order and the gate gradients: the
    gate-planar cache must reproduce both bit for bit."""
    hidden, dtype = cell.hidden_dim, cell.wx.dtype
    order = np.argsort(-lengths, kind="stable")
    steps, rows = np.nonzero(
        np.arange(lengths.max(initial=0))[:, None] < lengths[order])
    bounds = np.searchsorted(steps, np.arange(lengths.max(initial=0) + 1))
    inputs = matrix[xs[order[rows], steps]].astype(dtype)
    gates = inputs @ cell.wx.T + cell.bias
    h = np.zeros((len(lengths), hidden), dtype)
    c = np.zeros_like(h)
    c_prev, tanh_c = np.empty((2, len(steps), hidden), dtype)
    # each gate's block of wh.T, C-ordered
    wh_t = [np.ascontiguousarray(w.T) for w in np.split(cell.wh, 4)]
    for t in range(len(bounds) - 1):
        lo, hi = bounds[t], bounds[t + 1]
        b = hi - lo
        c_prev[lo:hi] = c[:b]
        z = gates[lo:hi]
        if t:
            z += np.concatenate([h[:b] @ w for w in wh_t], axis=1)
        for k in (0, 1, 3):
            neural._sigmoid_inplace(z[:, k * hidden:(k + 1) * hidden])
        z[:, 2 * hidden:3 * hidden] = np.tanh(z[:, 2 * hidden:3 * hidden])
        gi, gf, gg, go = np.split(z, 4, axis=1)
        c[:b] = gf * c[:b] + gi * gg
        tanh_c[lo:hi] = np.tanh(c[:b])
        h[:b] = go * tanh_c[lo:hi]
    finals = h.copy()
    dh = np.asarray(dh_final, dtype=dtype)[order]
    dc = np.zeros_like(dh)
    for t in range(len(bounds) - 2, -1, -1):
        lo, hi = bounds[t], bounds[t + 1]
        b = hi - lo
        gi, gf, gg, go = np.split(gates[lo:hi].copy(), 4, axis=1)
        dc_cand = dc[:b] + dh[:b] * go * (1.0 - tanh_c[lo:hi] ** 2)
        dz = np.concatenate([dc_cand * gg * gi * (1.0 - gi),
                             dc_cand * c_prev[lo:hi] * gf * (1.0 - gf),
                             dc_cand * gi * (1.0 - gg ** 2),
                             dh[:b] * tanh_c[lo:hi] * go * (1.0 - go)], axis=1)
        gates[lo:hi] = dz
        dc[:b] = dc_cand * gf
        dh[:b] = dz @ cell.wh
    return finals, gates


def padded_vectors(ids, lengths, matrix):
    """The (n, t_max, input_dim) float tensor the ids stand for, zero-padded."""
    xs = matrix[ids] if len(matrix) else np.zeros(ids.shape + matrix.shape[1:])
    xs[np.arange(ids.shape[1]) >= lengths[:, None]] = 0.0
    return xs


class TestLstm:
    def test_empty_sequence_is_zero(self):
        cell = init_lstm(np.random.default_rng(0), 4, 3)
        assert np.array_equal(lstm_sequence(cell, []), np.zeros(3))

    def test_zero_parameters_keep_state_zero(self):
        cell = LSTMCell(np.zeros((12, 4)), np.zeros((12, 3)), np.zeros(12))
        out = lstm_sequence(cell, np.ones((5, 4)))
        assert np.array_equal(out, np.zeros(3))

    def test_two_step_hand_recurrence(self):
        rng = np.random.default_rng(8)
        cell = init_lstm(rng, 3, 2)
        xs = rng.normal(size=(2, 3))
        assert np.allclose(lstm_sequence(cell, xs), hand_lstm(cell, xs),
                           atol=1e-10)

    def test_longer_sequences_match_hand_recurrence(self):
        rng = np.random.default_rng(9)
        cell = init_lstm(rng, 5, 4)
        for t in (1, 3, 7):
            xs = rng.normal(size=(t, 5))
            assert np.allclose(lstm_sequence(cell, xs), hand_lstm(cell, xs),
                               atol=1e-10)

    def test_dimension_mismatch(self):
        cell = init_lstm(np.random.default_rng(0), 4, 3)
        with pytest.raises(ValueError):
            lstm_sequence(cell, np.ones((2, 5)))

    def test_batched_equals_per_sequence_with_ragged_lengths(self):
        rng = np.random.default_rng(11)
        cell = init_lstm(rng, 3, 4)
        seqs = [rng.normal(size=(t, 3)) for t in (4, 1, 0, 3)]
        finals, _ = lstm_forward_batch(cell, *padded(seqs, 3))
        for row, seq in enumerate(seqs):
            assert np.allclose(finals[row], lstm_sequence(cell, seq),
                               atol=1e-12)

    def test_bptt_matches_finite_differences_with_masking(self):
        rng = np.random.default_rng(21)
        cell = init_lstm(rng, 2, 3)
        # unsorted lengths, the second set with an empty row
        for lengths in ((3, 1, 2), (1, 3, 0, 2)):
            xs, lengths, matrix = padded(
                [rng.normal(size=(t, 2)) for t in lengths], 2)
            probe = rng.normal(size=(len(lengths), 3))

            def loss_value():
                finals, _ = lstm_forward_batch(cell, xs, lengths, matrix)
                return float((finals * probe).sum())

            finals, cache = caching_forward(cell, xs, lengths, matrix)
            grads = lstm_backward_batch(cell, cache, probe)
            h = 1e-6
            for name, array in (("wx", cell.wx), ("wh", cell.wh),
                                ("bias", cell.bias)):
                flat = array.reshape(-1)
                grad = grads[name].reshape(-1)
                for idx in range(0, flat.size, 7):
                    original = flat[idx]
                    flat[idx] = original + h
                    plus = loss_value()
                    flat[idx] = original - h
                    minus = loss_value()
                    flat[idx] = original
                    numeric = (plus - minus) / (2 * h)
                    assert abs(numeric - grad[idx]) < 1e-6

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_packed_matches_masked_reference(self, data):
        n = data.draw(st.integers(1, 7), label="rows")
        t_max = data.draw(st.integers(0, 6), label="t_max")
        if data.draw(st.booleans(), label="all_equal"):
            lengths = [t_max] * n
        else:
            lengths = data.draw(st.lists(st.integers(0, t_max), min_size=n,
                                         max_size=n), label="lengths")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cell = init_lstm(rng, 3, 4)
        cell.bias[...] = rng.normal(size=cell.bias.shape)
        # vocab 0: every cell its own row; 1: one distinct token (U = 1);
        # larger: ids drawn with repeats from a shared table.
        vocab = data.draw(st.sampled_from([0, 1, 2, 5]), label="vocab")
        if vocab:
            matrix = rng.normal(size=(vocab, 3))
            xs, lengths = padded_ids(
                [rng.integers(0, vocab, size=t) for t in lengths], t_max)
        else:
            xs, lengths, matrix = padded(
                [rng.normal(size=(t, 3)) for t in lengths], 3, t_max)

        finals, cache = caching_forward(cell, xs, lengths, matrix)
        ref_finals, ref_cache = masked_lstm_forward(
            cell, padded_vectors(xs, lengths, matrix), lengths)
        assert np.allclose(finals, ref_finals, rtol=0, atol=1e-12)
        assert not np.any(finals[lengths == 0])

        probe = rng.normal(size=finals.shape)
        grads = lstm_backward_batch(cell, cache, probe)
        ref = masked_lstm_backward(cell, ref_cache, probe)
        for name in ("wx", "wh", "bias"):
            assert np.allclose(grads[name], ref[name], rtol=1e-12, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_float32_agrees_with_float64_on_ragged_ids(self, data):
        # float32 rounds at 6e-8 relative. Finals (|h| < 1) must agree within
        # 1e-5 absolute and each gradient within 1e-5 of its largest float64
        # entry; the worst seen over 300 random batches was 6e-7 and 1e-6.
        n = data.draw(st.integers(1, 7), label="rows")
        t_max = data.draw(st.integers(0, 12), label="t_max")
        lengths = data.draw(st.lists(st.integers(0, t_max), min_size=n,
                                     max_size=n), label="lengths")
        input_dim = data.draw(st.sampled_from([3, 16]), label="input_dim")
        hidden = data.draw(st.sampled_from([4, 32]), label="hidden")
        vocab = data.draw(st.integers(1, 12), label="vocab")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cell = init_lstm(rng, input_dim, hidden)
        cell.bias[...] = rng.normal(size=cell.bias.shape)
        single = cast_cell(cell, np.float32)
        matrix = rng.normal(size=(vocab, input_dim))
        xs, lengths = padded_ids(
            [rng.integers(0, vocab, size=t) for t in lengths], t_max)

        finals, cache = caching_forward(cell, xs, lengths, matrix)
        finals32, cache32 = caching_forward(single, xs, lengths, matrix)
        assert finals32.dtype == np.float32
        assert np.allclose(finals32, finals, rtol=0, atol=1e-5)

        probe = rng.normal(size=finals.shape)
        grads = lstm_backward_batch(cell, cache, probe)
        grads32 = lstm_backward_batch(single, cache32, probe)
        for name in ("wx", "wh", "bias"):
            assert grads32[name].dtype == np.float32
            bound = 1e-5 * np.abs(grads[name]).max(initial=0.0)
            assert np.abs(grads32[name] - grads[name]).max(initial=0.0) <= bound

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gate_planar_cache_matches_row_major_bits(self, dtype):
        # Same operations per element as the row-major layout: the finals
        # and every gate gradient BPTT leaves in the cache are the same bits.
        rng = np.random.default_rng(53)
        for hidden, lengths in ((4, (5, 2, 0, 7, 2, 1)), (32, (1,)),
                                (32, (9, 9, 3, 0, 12, 6, 1, 1))):
            cell = cast_cell(init_lstm(rng, 6, hidden), dtype)
            cell.bias[...] = rng.normal(size=cell.bias.shape)
            matrix = rng.normal(size=(10, 6))
            xs, lengths = padded_ids(
                [rng.integers(0, 10, size=t) for t in lengths])
            probe = rng.normal(size=(len(lengths), hidden))
            finals, cache = caching_forward(cell, xs, lengths, matrix)
            lstm_backward_batch(cell, cache, probe)
            want_finals, want_dz = row_major_lstm(cell, xs, lengths, matrix,
                                                  probe)
            assert finals[cache.order].tobytes() == want_finals.tobytes()
            planar = cache.gates.transpose(1, 0, 2).reshape(-1, 4 * hidden)
            assert planar.tobytes() == want_dz.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hidden,lengths", [
        (4, (5, 2, 0, 7, 2, 1)),   # ragged, with an empty row
        (4, (0, 0, 0)),            # only empty rows
        (4, (7,)),                 # one row: every step a one-row GEMM
        (4, (6, 1, 3)),            # steps 3 to 5 run one row
        (32, (4, 4, 4, 4)),        # equal lengths
        (4, ()),                   # no rows at all
        (300, (9, 3, 0, 12, 1)),   # the model's default width
    ])
    def test_inference_pass_gives_the_cached_finals(self, dtype, hidden,
                                                    lengths):
        # A pass without a workspace keeps no cache; only where each step's
        # rows land differs, so its finals are the cached pass's bits.
        rng = np.random.default_rng([59, hidden, len(lengths)])
        cell = cast_cell(init_lstm(rng, 6, hidden), dtype)
        cell.bias[...] = rng.normal(size=cell.bias.shape)
        matrix = rng.normal(size=(10, 6))
        xs, lengths = padded_ids([rng.integers(0, 10, size=t) for t in lengths])
        finals, cache = lstm_forward_batch(cell, xs, lengths, matrix)
        want, want_cache = caching_forward(cell, xs, lengths, matrix)
        assert cache is None and want_cache is not None
        assert finals.dtype == dtype and finals.shape == (len(lengths), hidden)
        assert finals.tobytes() == want.tobytes()

    def test_backward_without_a_cache_says_why(self):
        cell = init_lstm(np.random.default_rng(0), 2, 3)
        xs, lengths = padded_ids([[0, 1], [1]])
        finals, cache = lstm_forward_batch(cell, xs, lengths, np.ones((2, 2)))
        with pytest.raises(ValueError, match="ran without a workspace"):
            lstm_backward_batch(cell, cache, np.ones_like(finals))

    def test_workspace_reuse_matches_fresh_buffers(self):
        rng = np.random.default_rng(43)
        for dtype in (np.float64, np.float32):
            cell = cast_cell(init_lstm(rng, 3, 4), dtype)
            matrix = rng.normal(size=(6, 3))
            big = padded_ids([rng.integers(0, 6, size=t) for t in (5, 3, 6)])
            small = padded_ids([rng.integers(0, 6, size=t) for t in (2, 0, 4)])
            workspace = neural.lstm_workspace(14, 4, dtype)
            probe = rng.normal(size=(3, 4))
            for batch in (small, big, small):
                fresh = caching_forward(cell, *batch, matrix)
                reused = lstm_forward_batch(cell, *batch, matrix,
                                            workspace=workspace)
                assert np.shares_memory(reused[1].gates, workspace)
                assert fresh[0].tobytes() == reused[0].tobytes()
                fresh_grads = lstm_backward_batch(cell, fresh[1], probe)
                grads = lstm_backward_batch(cell, reused[1], probe)
                for name in ("wx", "wh", "bias"):
                    assert grads[name].tobytes() == fresh_grads[name].tobytes()
            for bad in (neural.lstm_workspace(13, 4, dtype),
                        neural.lstm_workspace(14, 4, np.float16)):
                with pytest.raises(ValueError, match="cannot hold 14 cells"):
                    lstm_forward_batch(cell, *big, matrix, workspace=bad)

    def test_gathered_inputs_equal_cast_rows(self):
        # The distinct rows, in id order, cast into the compute dtype.
        rng = np.random.default_rng(47)
        xs, lengths = padded_ids([[8, 1, 4], [4, 0], [], [6, 1, 8, 8]])
        for dtype in (np.float32, np.float64):
            # fresh values each time, so no stale buffer can hold them
            matrix = rng.normal(size=(9, 3))
            cell = cast_cell(init_lstm(rng, 3, 4), dtype)
            _, cache = caching_forward(cell, xs, lengths, matrix)
            want = matrix[[0, 1, 4, 6, 8]].astype(dtype)
            assert cache.inputs.dtype == dtype
            assert cache.inputs.tobytes() == want.tobytes()

    def test_lengths_outside_padding_rejected(self):
        cell = init_lstm(np.random.default_rng(0), 2, 3)
        xs = np.zeros((2, 3), dtype=np.int64)
        for lengths in ([1, 4], [-1, 2], [1]):
            with pytest.raises(ValueError):
                lstm_forward_batch(cell, xs, np.array(lengths), np.zeros((1, 2)))

    def test_bad_ids_or_matrix_rejected(self):
        cell = init_lstm(np.random.default_rng(0), 2, 3)
        lengths = np.array([2, 1])
        ids = np.array([[0, 1], [2, 9]])  # 9 is padding: never read
        lstm_forward_batch(cell, ids, lengths, np.zeros((3, 2)))
        for xs, matrix in ((ids, np.zeros((2, 2))),       # id 2 out of range
                           (-ids, np.zeros((3, 2))),      # negative id
                           (ids.astype(float), np.zeros((3, 2))),
                           (ids[:, :, None], np.zeros((3, 2))),
                           (ids, np.zeros((3, 4)))):      # wrong width
            with pytest.raises(ValueError):
                lstm_forward_batch(cell, xs, lengths, matrix)


def ce_loss(probs, labels):
    return softmax_cross_entropy(np.array(probs), np.array(labels))


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert ce_loss([[1.0, 0.0]], [0]) == 0.0

    def test_uniform_is_log_two(self):
        assert ce_loss([[0.5, 0.5]], [1]) == pytest.approx(math.log(2))

    def test_random_probabilities_match_direct_log(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(4), size=20)
        k = rng.integers(0, 4, size=20)
        direct = [-math.log(max(p[i, k[i]], 1e-12)) for i in range(20)]
        for i in range(20):
            assert ce_loss(p[i:i + 1], k[i:i + 1]) == pytest.approx(direct[i])
        assert ce_loss(p, k) == pytest.approx(np.mean(direct))

    def test_floor_keeps_loss_finite(self):
        assert ce_loss([[0.0, 1.0]], [0]) == pytest.approx(-math.log(1e-12))

    def test_out_of_range_class(self):
        # -1 would silently pick the last column under numpy indexing
        for label in (2, -1):
            with pytest.raises(IndexError):
                ce_loss([[0.5, 0.5]], [label])


def copied(loss_and_grads):
    """(loss, grads) with the gradients copied out of the network's buffer,
    which its next call overwrites."""
    loss, grads = loss_and_grads
    return loss, {name: g.copy() for name, g in grads.items()}


def mlp_reference(x, w0, b0, w1, b1, labels):
    """Loss, parameter gradients (w0, b0, w1, b1) and input gradient of a
    two-layer, two-class net, written out with ``np.matmul`` products and
    fresh arrays: ``Mlp.step`` must give these bits on any BLAS kernel."""
    n = len(x)
    relu = np.maximum(x @ w0.T + b0, 0.0)
    logits = relu @ w1.T + b1
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = z / z.sum(axis=1, keepdims=True)
    loss = float(-np.log(np.clip(p[np.arange(n), labels], 1e-12,
                                 None)).mean())
    delta = (p - np.eye(2)[labels]) / n
    d_hidden = (delta @ w1) * (relu > 0)
    grads = (np.matmul(d_hidden.T, x), d_hidden.sum(axis=0),
             np.matmul(delta.T, relu), delta.sum(axis=0))
    return loss, grads, d_hidden @ w0


class TestBackward:
    # (rows, inputs, hidden units): the title scorer's full batch and
    # one-row tail, and UCNet heads over 300 LSTM units with 8 or 1
    # features and over small test models.
    @pytest.mark.parametrize("n,inputs,units", [
        (16, 8, 8), (1, 8, 8), (16, 308, 4), (5, 301, 4), (1, 308, 4),
        (3, 13, 4), (7, 9, 4)])
    def test_step_gives_the_written_out_bits(self, n, inputs, units):
        rng = np.random.default_rng(n * inputs + units)
        net = Mlp.init(rng, [inputs, units, 2])
        net.flat.vector[:] = rng.normal(size=net.flat.vector.size)
        xs, ys = rng.normal(size=(n, inputs)), rng.integers(0, 2, size=n)
        want_loss, want, want_dx = mlp_reference(
            xs, *net.parameters().values(), ys)
        probs, dx = net.step(n)(xs, np.eye(2)[ys])
        assert probs.tobytes() == net.forward(xs).tobytes()
        assert softmax_cross_entropy(probs, ys) == want_loss
        assert dx.tobytes() == want_dx.tobytes()
        for got, expected in zip(net.flat.grads.values(), want):
            assert got.tobytes() == expected.tobytes()

    @staticmethod
    def identity_input(w, b):
        """A net whose one hidden unit passes a positive input through
        ReLU unchanged, under the output layer ``w``, ``b``."""
        return Mlp(FlatParameters.pack({
            "layer0.weights": np.eye(w.shape[1], 1),
            "layer0.bias": np.zeros(w.shape[1]),
            "layer1.weights": w, "layer1.bias": b}), ["layer0", "layer1"])

    def test_gradients_vanish_at_near_stationary_point(self):
        # logits with a huge margin: loss ~ 0 and so is every gradient
        net = self.identity_input(np.array([[50.0], [-50.0]]), np.zeros(2))
        loss, grads = net.batch_loss_and_gradients(np.array([[1.0]]), [0])
        assert loss < 1e-15
        assert all(np.abs(g).max() < 1e-15 for g in grads.values())

    def test_two_way_softmax_hand_gradient(self):
        # logits (0, 0.7 x - 0.2): p(class 1) is the sigmoid of the second
        net = self.identity_input(np.array([[0.0], [0.7]]),
                                  np.array([0.0, -0.2]))
        loss, grads = net.batch_loss_and_gradients(np.array([[1.3]]), [1])
        p = 1.0 / (1.0 + math.exp(-(0.7 * 1.3 - 0.2)))
        assert loss == pytest.approx(-math.log(p), abs=1e-12)
        # d(-log p)/dw = (p - 1) * x for the true class 1
        assert grads["layer1.weights"][1, 0] == pytest.approx((p - 1) * 1.3,
                                                              abs=1e-12)
        assert grads["layer1.bias"][1] == pytest.approx(p - 1, abs=1e-12)
        # and through the hidden unit, whose one outgoing weight is 0.7
        assert grads["layer0.weights"][0, 0] == pytest.approx(
            0.7 * (p - 1) * 1.3, abs=1e-12)

    def test_mlp_gradient_check(self):
        rng = np.random.default_rng(13)
        net = Mlp.init(rng, [5, 4, 2])
        xs = rng.normal(size=(3, 5))
        assert gradient_check(net, xs, np.array([1, 0, 1]), h=1e-5) < 1e-6

    def test_batch_gradients_average_per_sample(self):
        rng = np.random.default_rng(14)
        net = Mlp.init(rng, [3, 4, 2])
        xs = rng.normal(size=(6, 3))
        ys = np.array([0, 1, 1, 0, 1, 0])
        batch_loss, batch_grads = copied(net.batch_loss_and_gradients(xs, ys))
        per_sample = [copied(net.batch_loss_and_gradients(xs[i:i + 1],
                                                          ys[i:i + 1]))
                      for i in range(len(ys))]
        assert batch_loss == pytest.approx(np.mean([s[0] for s in per_sample]))
        for key in batch_grads:
            mean_grad = np.mean([s[1][key] for s in per_sample], axis=0)
            assert np.allclose(batch_grads[key], mean_grad, atol=1e-12)

    def test_a_step_is_built_once_for_each_batch_size(self):
        rng = np.random.default_rng(17)
        net = Mlp.init(rng, [4, 5, 2])
        step = net.step(3)
        assert net.step(3) is step and net.step(2) is not step
        xs, one_hot = rng.normal(size=(3, 4)), np.eye(2)[[1, 0, 1]]
        probs, dx = step(xs, one_hot)
        assert probs.shape == (3, 2) and dx.shape == (3, 4)
        want = {name: g.copy() for name, g in net.flat.grads.items()}
        # the next call of the step overwrites the same buffers
        again = step(xs + 1.0, one_hot)
        assert again[0] is probs and again[1] is dx
        step(xs, one_hot)
        for name, grad in want.items():
            assert net.flat.grads[name].tobytes() == grad.tobytes()

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        net = Mlp.init(rng, [4, 5, 2])
        xs = rng.normal(size=(3, 4))
        ys = np.array([1, 0, 1])
        # a copy: the finite differences below run the same step
        dx = net.step(3)(xs, np.eye(2)[ys])[1].copy()
        h = 1e-6
        for idx in np.ndindex(xs.shape):
            bumped = [xs.copy(), xs.copy()]
            bumped[0][idx] += h
            bumped[1][idx] -= h
            plus, minus = (net.batch_loss_and_gradients(x, ys)[0]
                           for x in bumped)
            assert abs((plus - minus) / (2 * h) - dx[idx]) < 1e-8

    def test_layer_names_label_parameters(self):
        net = Mlp.init(np.random.default_rng(0), [3, 4, 2])
        arrays = {"other": np.ones(2)}
        for name, layer in (("hidden", "layer0"), ("output", "layer1")):
            arrays[f"{name}.weights"] = net.flat.params[f"{layer}.weights"]
            arrays[f"{name}.bias"] = net.flat.params[f"{layer}.bias"]
        flat = FlatParameters.pack(arrays)
        named = Mlp(flat, ("hidden", "output"))
        assert list(named.parameters()) == [
            "hidden.weights", "hidden.bias", "output.weights", "output.bias"]
        for name, array in named.parameters().items():
            assert array is flat.params[name]
        assert np.array_equal(named.parameters()["hidden.weights"],
                              net.parameters()["layer0.weights"])
        # gradients land in the given vector's gradient, other entries untouched
        xs, ys = np.ones((2, 3)), np.array([0, 1])
        _, grads = named.batch_loss_and_gradients(xs, ys)
        assert grads is flat.grads
        assert np.array_equal(flat.grads["other"], np.zeros(2))
        assert np.array_equal(grads["output.weights"],
                              net.batch_loss_and_gradients(xs, ys)[1]["layer1.weights"])


def pure_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook Adam update written out as fresh arrays, operation by
    operation: the reference adam_step must match bit for bit."""
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdam:
    def test_zero_gradients_are_a_fixed_point(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState(params, 0.1)
        adam_step(params, np.zeros(3), state)
        assert np.array_equal(params, [1.0, -2.0, 3.0])
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self):
        lr = 1e-3
        params = np.array([0.0, 10.0, -4.0])
        before = params.copy()
        grads = np.array([0.5, -3.0, 2.0])
        state = AdamState(params, lr)
        adam_step(params, grads, state)
        step = params - before
        # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr * sign(g)
        assert np.allclose(step, -lr * np.sign(grads), rtol=1e-6)

    def test_identical_calls_identical_results(self):
        grads = np.array([0.3, -0.7])
        runs = []
        for _ in range(2):
            params = np.array([1.0, 2.0])
            state = AdamState(params, 0.01)
            adam_step(params, grads, state)
            runs.append((params, state))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1].m, runs[1][1].m)

    def test_shape_mismatch_rejected(self):
        params = np.zeros(3)
        state = AdamState(params, 1e-4)
        with pytest.raises(ValueError):
            adam_step(params, np.zeros(4), state)
        with pytest.raises(ValueError):
            adam_step(np.zeros(4), np.zeros(4), state)
        assert state.t == 0

    def test_defaults_match_convention(self):
        assert (neural.ADAM_BETA1, neural.ADAM_BETA2, neural.ADAM_EPSILON) \
            == (0.9, 0.999, 1e-8)
        state = AdamState(np.ones(3), 1e-4)
        assert state.learning_rate == 1e-4 and state.t == 0
        assert state.m.tobytes() == state.v.tobytes() == np.zeros(3).tobytes()

    def test_in_place_update_matches_pure_formula_bit_for_bit(self):
        rng = np.random.default_rng(19)
        params = rng.normal(size=257)
        # mixed magnitudes, exact zeros and subnormal-adjacent values
        scales = np.array([1e-300, 1e-8, 1.0, 1e6])[rng.integers(0, 4, 257)]
        ref_p, ref_m, ref_v = params.copy(), np.zeros(257), np.zeros(257)
        state = AdamState(params, 3e-4)
        for t in range(1, 8):
            grads = rng.normal(size=257) * scales
            grads[rng.random(257) < 0.1] = 0.0
            adam_step(params, grads, state)
            ref_p, ref_m, ref_v = pure_adam(ref_p, grads, ref_m, ref_v, t, 3e-4)
            assert state.t == t
            for got, want in ((params, ref_p), (state.m, ref_m), (state.v, ref_v)):
                assert got.tobytes() == want.tobytes()

    def test_moments_are_the_rows_of_one_array(self):
        params = np.arange(5.0)
        state = AdamState(params, 0.1)
        assert state.moments.shape == (2, 5)
        assert state.m.base is state.moments and state.v.base is state.moments
        adam_step(params, np.arange(5.0), state)
        assert state.m.tobytes() == state.moments[0].tobytes()
        assert state.v.tobytes() == state.moments[1].tobytes()

    @pytest.mark.parametrize("size", [neural._ADAM_BLOCK,
                                      neural._ADAM_BLOCK + 1])
    def test_one_block_and_just_past_it_match_pure_formula(self, size):
        rng = np.random.default_rng(29)
        params = rng.normal(size=size)
        ref_p, ref_m, ref_v = params.copy(), np.zeros(size), np.zeros(size)
        state = AdamState(params, 3e-4)
        for t in range(1, 4):
            grads = rng.normal(size=size)
            adam_step(params, grads, state)
            ref_p, ref_m, ref_v = pure_adam(ref_p, grads, ref_m, ref_v, t, 3e-4)
            for got, want in ((params, ref_p), (state.m, ref_m), (state.v, ref_v)):
                assert got.tobytes() == want.tobytes()

    def test_blocked_update_matches_pure_formula_bit_for_bit(self):
        # three whole blocks and a ragged tail
        size = 3 * neural._ADAM_BLOCK + 17
        rng = np.random.default_rng(23)
        params = rng.normal(size=size)
        scales = np.array([1e-300, 1e-8, 1.0, 1e6])[rng.integers(0, 4, size)]
        ref_p, ref_m, ref_v = params.copy(), np.zeros(size), np.zeros(size)
        state = AdamState(params, 3e-4)
        for t in range(1, 8):
            grads = rng.normal(size=size) * scales
            grads[rng.random(size) < 0.1] = 0.0
            adam_step(params, grads, state)
            ref_p, ref_m, ref_v = pure_adam(ref_p, grads, ref_m, ref_v, t, 3e-4)
            for got, want in ((params, ref_p), (state.m, ref_m), (state.v, ref_v)):
                assert got.tobytes() == want.tobytes()

    def test_parameter_views_share_the_flat_buffer_after_steps(self):
        rng = np.random.default_rng(20)
        net = Mlp.init(rng, [3, 4, 2])
        state = AdamState(net.flat.vector, 0.05)
        xs, ys = rng.normal(size=(6, 3)), np.array([0, 1, 1, 0, 1, 0])
        before = net.flat.vector.copy()
        for _ in range(5):
            net.batch_loss_and_gradients(xs, ys)
            adam_step(net.flat.vector, net.flat.gradient, state)
        assert not np.array_equal(net.flat.vector, before)
        grads = net.batch_loss_and_gradients(xs, ys)[1]
        for name, array in net.parameters().items():
            assert np.shares_memory(array, net.flat.vector)
            assert np.shares_memory(grads[name], net.flat.gradient)
        assert net.parameters()["layer0.weights"] is net.flat.params["layer0.weights"]
        # the views tile the vector in order, with nothing left over
        assert np.array_equal(
            np.concatenate([a.ravel() for a in net.parameters().values()]),
            net.flat.vector)


class _Linear:
    """Mean over rows of the raw output at each row's label: linear in the
    parameters, so central differences are exact up to round-off."""

    def __init__(self, weights, bias):
        self.weights, self.bias = weights, bias

    def parameters(self):
        return {"weights": self.weights, "bias": self.bias}

    def batch_loss_and_gradients(self, xs, ys):
        n = len(ys)
        out = xs @ self.weights.T + self.bias
        loss = float(out[np.arange(n), ys].mean())
        picks = np.zeros_like(out)
        picks[np.arange(n), ys] = 1.0 / n
        return loss, {"weights": picks.T @ xs, "bias": picks.sum(axis=0)}


class _DoubledGradients:
    """Wrapper that corrupts analytic gradients by a factor of two."""

    def __init__(self, inner):
        self.inner = inner

    def parameters(self):
        return self.inner.parameters()

    def batch_loss_and_gradients(self, *batch):
        loss, grads = self.inner.batch_loss_and_gradients(*batch)
        return loss, {k: 2.0 * v for k, v in grads.items()}


class TestGradientCheck:
    def test_linear_model_at_round_off_level(self):
        rng = np.random.default_rng(17)
        net = _Linear(rng.normal(size=(3, 4)), rng.normal(size=3))
        xs = rng.normal(size=(2, 4))
        assert gradient_check(net, xs, np.array([1, 2]), h=1e-5) < 1e-8

    def test_corrupted_gradient_reports_half(self):
        rng = np.random.default_rng(18)
        net = _Linear(rng.normal(size=(2, 3)), rng.normal(size=2))
        err = gradient_check(_DoubledGradients(net), rng.normal(size=(1, 3)),
                             np.array([0]), h=1e-5)
        assert err == pytest.approx(0.5, abs=1e-3)

    def test_non_finite_loss_rejected(self):
        net = _Linear(np.array([[1.0]]), np.zeros(1))
        with pytest.raises(ValueError):
            gradient_check(net, np.array([[np.inf]]), np.array([0]))


class TestInitialization:
    def test_glorot_bounds(self):
        net = Mlp.init(np.random.default_rng(0), [20, 30, 2])
        bound = math.sqrt(6.0 / 50.0)
        assert np.abs(net.parameters()["layer0.weights"]).max() <= bound
        assert np.array_equal(net.parameters()["layer0.bias"], np.zeros(30))

    def test_lstm_forget_bias_is_one(self):
        cell = init_lstm(np.random.default_rng(0), 4, 6)
        assert np.array_equal(cell.bias[6:12], np.ones(6))
        assert np.array_equal(cell.bias[:6], np.zeros(6))
        assert np.array_equal(cell.bias[12:], np.zeros(12))

    def test_seeded_init_is_deterministic(self):
        a = init_lstm(np.random.default_rng(42), 3, 5)
        b = init_lstm(np.random.default_rng(42), 3, 5)
        assert np.array_equal(a.wx, b.wx)
        assert np.array_equal(a.wh, b.wh)
