import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_tta.autodiff import Tape, backward, softmax, softmax_entropy_mean
from lifelong_tta.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from lifelong_tta.model import MlpClassifier, bn_affine_filter, param_mask


def test_init_is_deterministic():
    a = MlpClassifier((2, 4, 3), seed=7).flatten()
    b = MlpClassifier((2, 4, 3), seed=7).flatten()
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = MlpClassifier((2, 4, 3), seed=1).flatten()
    b = MlpClassifier((2, 4, 3), seed=2).flatten()
    assert not np.array_equal(a, b)


def test_registry_dimension_counts():
    # W0 (2*4) + b0 (4) + gamma (4) + beta (4) + W1 (4*3) + b1 (3); BN running
    # stats stay out of the trainables
    model = MlpClassifier((2, 4, 3), seed=0)
    sizes = {name: view.size for name, view in model.params.items()}
    assert sizes == {
        "hidden0.weight": 8,
        "hidden0.bias": 4,
        "hidden0.gamma": 4,
        "hidden0.beta": 4,
        "out.weight": 12,
        "out.bias": 3,
    }
    assert model.theta.shape == (2 * 4 + 4 + 4 + 4 + 4 * 3 + 3,)


def test_registry_order_invariance():
    assert list(MlpClassifier((5, 7, 7, 2), seed=0).params) == list(MlpClassifier((5, 7, 7, 2), seed=9).params)


def test_views_tile_the_vector_in_registry_order():
    # each name's view is the next contiguous slice, and any vector of
    # theta's length is read the same way
    model = MlpClassifier((5, 7, 6, 3), seed=0)
    vector = np.arange(float(model.theta.size))
    views = model.views(vector)
    assert list(views) == list(model.params)
    start = 0
    for name, view in views.items():
        assert view.shape == model.params[name].shape
        assert np.shares_memory(view, vector)
        assert np.array_equal(view.ravel(), np.arange(start, start + view.size))
        start += view.size
    assert start == vector.size
    for bad in (np.zeros(vector.size - 1), np.zeros(vector.size + 1), np.zeros((1, vector.size))):
        with pytest.raises(ValueError):
            model.views(bad)


def test_invalid_sizes():
    with pytest.raises(ValueError):
        MlpClassifier((4, 3))  # no hidden layer
    with pytest.raises(ValueError):
        MlpClassifier((4, 3, 1))  # one class
    with pytest.raises(ValueError):
        MlpClassifier((4, 0, 2))


def test_zero_final_layer_gives_uniform_softmax():
    model = MlpClassifier((3, 5, 4), seed=0)
    values = model.flatten()
    for name in ("out.weight", "out.bias"):
        model.views(values)[name][...] = 0.0
    model.load(values)
    probs = softmax(model.forward(np.random.default_rng(0).random((6, 3))))
    assert np.abs(probs - 0.25).max() < 1e-12


def test_eval_forward_is_pure_and_deterministic():
    model = MlpClassifier((4, 6, 3), seed=3)
    model.set_bn_mode("eval")
    x = np.random.default_rng(1).random((5, 4))
    before_mean = model.stats[0].mean.copy()
    a = model.forward(x)
    b = model.forward(x)
    assert np.array_equal(a, b)
    assert np.array_equal(model.stats[0].mean, before_mean)


def test_train_forward_updates_running_stats():
    model = MlpClassifier((4, 6, 3), seed=3)
    x = np.random.default_rng(2).random((8, 4))
    model.set_bn_mode("eval")
    eval_before = model.forward(x)
    model.set_bn_mode("train")
    model.forward(x)
    model.set_bn_mode("eval")
    eval_after = model.forward(x)
    assert not np.array_equal(eval_before, eval_after)


def test_flatten_load_round_trip_is_bit_identical():
    model = MlpClassifier((4, 8, 8, 3), seed=5)
    flat = model.flatten()
    model.load(flat)
    again = model.flatten()
    assert np.array_equal(flat, again)
    assert not np.shares_memory(flat, model.theta) and not np.shares_memory(again, model.theta)


def test_load_zeros_gives_constant_logits_per_row():
    model = MlpClassifier((4, 6, 3), seed=5)
    model.load(np.zeros(model.theta.size))
    logits = model.forward(np.random.default_rng(3).random((4, 4)), update_stats=False)
    assert np.abs(logits - logits[:, :1]).max() < 1e-12


def test_perturbing_one_entry_touches_only_that_tensor():
    model = MlpClassifier((4, 6, 3), seed=5)
    flat = model.flatten()
    values = flat.copy()
    model.views(values)["hidden0.beta"][0] += 1.0
    model.load(values)
    before = model.views(flat)
    for name, view in model.params.items():
        if name == "hidden0.beta":
            assert view[0] == before[name][0] + 1.0 and np.array_equal(view[1:], before[name][1:])
        else:
            assert np.array_equal(view, before[name])


def test_load_rejects_registry_mismatch():
    model = MlpClassifier((4, 6, 3), seed=0)
    other = MlpClassifier((4, 7, 3), seed=0).flatten()
    with pytest.raises(ValueError):
        model.load(other)


def test_bn_filter_selects_exactly_the_affine_names():
    model = MlpClassifier((4, 6, 6, 3), seed=0)
    mask = param_mask(model, bn_affine_filter)
    for name, block in model.views(mask).items():
        if name.endswith(".gamma") or name.endswith(".beta"):
            assert block.all()
        else:
            assert not block.any()
    assert param_mask(model, lambda name: True).all()


def test_clone_is_independent():
    model = MlpClassifier((4, 6, 3), seed=0)
    twin = model.clone()
    twin.params["out.bias"][0] += 5.0
    twin.stats[0].mean[0] += 1.0
    assert model.params["out.bias"][0] != twin.params["out.bias"][0]
    assert model.stats[0].mean[0] != twin.stats[0].mean[0]


def test_clone_views_its_own_theta_and_copies_every_value():
    model = MlpClassifier((4, 6, 5, 3), seed=4)
    model.forward(np.random.default_rng(0).random((6, 4)))  # move the stats
    model.set_bn_mode("eval")
    twin = model.clone()
    assert twin.sizes == model.sizes and twin.bn_mode == "eval"
    assert np.array_equal(twin.theta, model.theta)
    assert list(twin.params) == list(model.params)
    for name, view in twin.params.items():
        assert np.shares_memory(view, twin.theta)
        assert not np.shares_memory(view, model.theta)
        assert np.array_equal(view, model.params[name])
    for i, stats in model.stats.items():
        assert np.array_equal(twin.stats[i].mean, stats.mean)
        assert np.array_equal(twin.stats[i].var, stats.var)
        assert not np.shares_memory(twin.stats[i].mean, stats.mean)
    twin.theta += 1.0
    assert np.array_equal(twin.params["out.bias"], model.params["out.bias"] + 1.0)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(2, 40),
    draws=st.integers(1, 5),
    widths=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    classes=st.integers(2, 12),
)
def test_block_forward_equals_per_draw_and_taped_forwards(seed, b, draws, widths, classes):
    rng = np.random.default_rng(seed)
    model = MlpClassifier((9, *widths, classes), seed=seed % 1000)
    model.forward(rng.random((b, 9)) * 3.0)  # running stats away from (0, 1)
    x = rng.normal(0.5, 2.0, (draws * b, 9))
    stats = {i: s.copy() for i, s in model.stats.items()}
    batches = [x[k * b : (k + 1) * b] for k in range(draws)]
    block = model.forward(x, update_stats=False, draws=draws)
    assert block.shape == (draws * b, classes)
    per_draw = [model.forward(batch, update_stats=False) for batch in batches]
    taped = [model.taped_forward(batch, Tape(), update_stats=False)[0].data for batch in batches]
    assert np.array_equal(block, np.concatenate(per_draw))
    assert np.array_equal(block, np.concatenate(taped))
    for i, s in stats.items():  # no forward above touched the running buffers
        assert np.array_equal(model.stats[i].mean, s.mean)
        assert np.array_equal(model.stats[i].var, s.var)
    model.set_bn_mode("eval")
    eval_block = model.forward(x, draws=draws)
    assert np.array_equal(eval_block, np.concatenate([model.forward(batch) for batch in batches]))


def loop_oracle_logits(model, x):
    """Logits by explicit loops over rows, features and inputs: each linear
    output a running sum, batch norm by the batch's biased statistics (train)
    or the running ones (eval), then max(0, .)."""
    p = model.params
    rows = [list(row) for row in x]
    for i in range(model.n_hidden):
        w, b = p[f"hidden{i}.weight"], p[f"hidden{i}.bias"]
        z = [[b[o] + sum(row[k] * w[k, o] for k in range(w.shape[0])) for o in range(w.shape[1])] for row in rows]
        for o in range(w.shape[1]):
            column = [zr[o] for zr in z]
            if model.bn_mode == "train":
                mean = sum(column) / len(column)
                var = sum((v - mean) ** 2 for v in column) / len(column)
            else:
                mean, var = model.stats[i].mean[o], model.stats[i].var[o]
            for zr in z:
                normed = p[f"hidden{i}.gamma"][o] * (zr[o] - mean) / np.sqrt(var + 1e-5)
                zr[o] = max(0.0, normed + p[f"hidden{i}.beta"][o])
        rows = z
    w, b = p["out.weight"], p["out.bias"]
    return np.array([[b[o] + sum(row[k] * w[k, o] for k in range(w.shape[0])) for o in range(w.shape[1])] for row in rows])


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_forward_matches_loop_oracle(mode):
    rng = np.random.default_rng(5)
    model = MlpClassifier((4, 6, 5, 3), seed=2)
    model.forward(rng.random((8, 4)) * 3.0)  # running stats away from (0, 1)
    model.set_bn_mode(mode)
    x = rng.normal(0.5, 2.0, (7, 4))
    assert np.abs(model.forward(x, update_stats=False) - loop_oracle_logits(model, x)).max() < 1e-10
    # a layer whose every ReLU is off passes only the head's bias on
    model.params["hidden1.gamma"][...] = 0.0
    model.params["hidden1.beta"][...] = -1.0
    logits = model.forward(x, update_stats=False)
    assert np.array_equal(logits, np.broadcast_to(model.params["out.bias"], logits.shape))
    assert np.array_equal(logits, loop_oracle_logits(model, x))
    for bad in (x[:, :3], x[None], x[0]):
        with pytest.raises(ValueError):
            model.forward(bad, update_stats=False)
        with pytest.raises(ValueError):
            model.taped_forward(bad, Tape())


def test_taped_forward_equals_train_forward_and_records_one_node():
    rng = np.random.default_rng(6)
    model = MlpClassifier((9, 7, 5, 4), seed=3)
    model.forward(rng.random((8, 9)) * 3.0)  # running stats away from (0, 1)
    # a unit whose batch-norm output is exactly 0: ReLU's gradient there is 0
    model.params["hidden0.gamma"][2] = 0.0
    model.params["hidden0.beta"][2] = 0.0
    x = np.asfortranarray(rng.normal(0.5, 2.0, (6, 9)))
    twin = model.clone()
    expected = twin.forward(x, update_stats=True)
    tape = Tape()
    logits, wrapped = model.taped_forward(x, tape)
    assert len(tape) == 1
    assert tape.nodes[0].inputs == tuple(wrapped.values()) and tape.nodes[0].output is logits
    assert list(wrapped) == list(model.params)
    assert np.array_equal(logits.data, expected)
    for i, stats in twin.stats.items():
        assert np.array_equal(model.stats[i].mean, stats.mean)
        assert np.array_equal(model.stats[i].var, stats.var)
    loss = softmax_entropy_mean(logits, tape)
    grads = model.views(model.grad_vector(wrapped, backward(loss, tape)))
    assert grads["hidden0.gamma"][2] == 0.0 and grads["hidden0.beta"][2] == 0.0
    assert all(np.abs(grads[name]).max() > 0.0 for name in ("hidden0.weight", "hidden1.gamma", "out.bias"))


def test_block_forward_refuses_to_update_stats_and_ragged_blocks():
    model = MlpClassifier((4, 6, 3), seed=0)
    x = np.random.default_rng(0).random((8, 4))
    mean, var = model.stats[0].mean.copy(), model.stats[0].var.copy()
    with pytest.raises(ValueError):
        model.forward(x, draws=2)  # train mode updates the stats by default
    with pytest.raises(ValueError):
        model.forward(x, update_stats=False, draws=3)
    with pytest.raises(ValueError):
        model.forward(x, update_stats=False, draws=0)
    assert np.array_equal(model.stats[0].mean, mean) and np.array_equal(model.stats[0].var, var)


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize(
    "where, name, value",
    [
        ("input", None, np.nan),
        ("theta", "hidden0.weight", np.nan),
        ("theta", "out.bias", np.inf),
        # ReLU maps a -inf BN output to 0, so only the theta check sees this one
        ("theta", "hidden0.beta", -np.inf),
    ],
)
def test_forward_rejects_non_finite_input_and_parameters(mode, where, name, value):
    model = MlpClassifier((4, 6, 3), seed=0)
    model.set_bn_mode(mode)
    x = np.random.default_rng(0).random((6, 4))
    if where == "input":
        x[2, 1] = value
    else:
        model.params[name].flat[0] = value
    with pytest.raises(FloatingPointError):
        model.forward(x, update_stats=False)
    with pytest.raises(FloatingPointError):
        model.forward(np.concatenate([x, x]), update_stats=False, draws=2)


def test_forward_rejects_an_overflowing_linear_output():
    model = MlpClassifier((4, 6, 3), seed=0)
    model.params["hidden0.weight"][...] = 1e308
    with pytest.raises(FloatingPointError), np.errstate(over="ignore", invalid="ignore"):
        model.forward(np.full((6, 4), 10.0), update_stats=False)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = MlpClassifier((4, 6, 3), seed=11)
    model.forward(np.random.default_rng(0).random((6, 4)))  # move the stats
    path = tmp_path / "model.ptta"
    model.save(path)
    loaded = MlpClassifier.load_checkpoint(path)
    assert loaded.sizes == model.sizes
    assert np.array_equal(loaded.flatten(), model.flatten())
    for i in model.stats:
        assert np.array_equal(loaded.stats[i].mean, model.stats[i].mean)
        assert np.array_equal(loaded.stats[i].var, model.stats[i].var)


def test_checkpoint_load_draws_no_random_init(tmp_path, monkeypatch):
    # the loaded model is built from the entries alone: no constructor call,
    # so no random initialization to draw and then overwrite
    model = MlpClassifier((4, 6, 5, 3), seed=12)
    model.forward(np.random.default_rng(1).random((6, 4)))  # move the stats
    model.set_bn_mode("eval")
    path = tmp_path / "model.ptta"
    model.save(path)

    def no_init(self, *args, **kwargs):
        raise AssertionError("load_checkpoint must not run the random initialization")

    monkeypatch.setattr(MlpClassifier, "__init__", no_init)
    loaded = MlpClassifier.load_checkpoint(path)
    assert loaded.sizes == model.sizes and loaded.bn_mode == "train"
    assert np.array_equal(loaded.theta, model.theta)
    for name, view in loaded.params.items():
        assert np.shares_memory(view, loaded.theta)
        assert np.array_equal(view, model.params[name])
    for i in model.stats:
        assert np.array_equal(loaded.stats[i].mean, model.stats[i].mean)
        assert np.array_equal(loaded.stats[i].var, model.stats[i].var)
    x = np.random.default_rng(2).random((5, 4))
    loaded.set_bn_mode("eval")
    assert np.array_equal(loaded.forward(x), model.forward(x))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda e: e.update({"hidden0.weight": e["hidden0.weight"].ravel()}), "matrices"),
        (lambda e: e.update({"out.weight": e["out.weight"][:, :1]}), "2 classes"),
        (lambda e: e.update({"hidden1.weight": e["hidden1.weight"][:-1]}), "hidden1.weight"),
        (lambda e: e.pop("out.bias"), "out.bias"),
    ],
)
def test_checkpoint_load_rejects_inconsistent_shapes(tmp_path, edit, message):
    path = tmp_path / "model.ptta"
    MlpClassifier((4, 6, 5, 3), seed=0).save(path)
    entries = read_checkpoint(path)
    edit(entries)
    write_checkpoint(path, entries)
    with pytest.raises(ValueError, match=message):
        MlpClassifier.load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ptta"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.ptta"
    write_checkpoint(path, {"a": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "model.ptta"
    write_checkpoint(path, {"a": np.arange(4.0)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_checkpoint_wire_format_decodes_by_hand(tmp_path):
    # pin the documented layout: magic, version u32, count u32, then per
    # entry u16 name length + name, rank u8, u32 extents, f64 payload (LE)
    import struct

    values = np.array([[1.5, -2.0, 0.25]])
    path = tmp_path / "wire.ptta"
    write_checkpoint(path, {"w": values})
    blob = path.read_bytes()
    assert blob[:4] == b"PTTA"
    version, count = struct.unpack_from("<II", blob, 4)
    assert (version, count) == (1, 1)
    (name_len,) = struct.unpack_from("<H", blob, 12)
    assert blob[14 : 14 + name_len] == b"w"
    cursor = 14 + name_len
    (rank,) = struct.unpack_from("<B", blob, cursor)
    assert rank == 2
    extents = struct.unpack_from("<2I", blob, cursor + 1)
    assert extents == (1, 3)
    payload = struct.unpack_from("<3d", blob, cursor + 9)
    assert payload == (1.5, -2.0, 0.25)
    assert len(blob) == cursor + 9 + 24


def test_checkpoint_preserves_order_and_values(tmp_path):
    rng = np.random.default_rng(4)
    entries = {
        "z.second": rng.normal(size=(2, 3)),
        "a.first": rng.normal(size=3),
        "scalar": np.asarray(2.5),
        "empty": np.zeros(0),
    }
    path = tmp_path / "arrays.ptta"
    write_checkpoint(path, entries)
    loaded = read_checkpoint(path)
    assert list(loaded) == ["z.second", "a.first", "scalar", "empty"]
    for key in entries:
        assert loaded[key].shape == entries[key].shape
        assert np.array_equal(loaded[key], entries[key])


def _encode(entries, count=None):
    """Checkpoint bytes of (name bytes, extents, values) triples, and the
    (offset, struct format) of every header field after the magic; unlike
    ``write_checkpoint`` it can write any name, extent or entry count."""
    blob = bytearray(b"PTTA")
    fields = [(4, "<I"), (8, "<I")]  # version, entry count
    blob += struct.pack("<II", 1, len(entries) if count is None else count)
    for name, extents, values in entries:
        fields.append((len(blob), "<H"))
        blob += struct.pack("<H", len(name)) + name
        fields.append((len(blob), "<B"))
        blob += struct.pack("<B", len(extents))
        for extent in extents:
            fields.append((len(blob), "<I"))
            blob += struct.pack("<I", extent)
        blob += np.asarray(values, dtype="<f8").tobytes()
    return bytes(blob), fields


def _read(path, blob):
    path.write_bytes(blob)
    return read_checkpoint(path)


_checkpoints = st.lists(
    st.tuples(st.text(min_size=1, max_size=6), st.lists(st.integers(0, 3), min_size=1, max_size=3)),
    min_size=2,
    max_size=3,
    unique_by=lambda entry: entry[0],
)


@settings(max_examples=60, deadline=None)
@given(spec=_checkpoints, data=st.data())
def test_checkpoint_reader_returns_or_raises_checkpoint_error(tmp_path_factory, spec, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ptta"
    arrays = {name: np.arange(float(np.prod(shape))).reshape(shape) for name, shape in spec}
    blob, fields = _encode(
        [(name.encode("utf-8"), a.shape, a.ravel()) for name, a in arrays.items()]
    )
    write_checkpoint(path, arrays)
    assert path.read_bytes() == blob
    loaded = read_checkpoint(path)
    assert list(loaded) == list(arrays)
    for cut in range(len(blob)):
        with pytest.raises(CheckpointError):
            _read(path, blob[:cut])
    flipped = bytearray(blob)
    bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
    flipped[bit // 8] ^= 1 << (bit % 8)
    edited = bytearray(blob)
    offset, fmt = data.draw(st.sampled_from(fields), label="field")
    top = 2 ** (8 * struct.calcsize(fmt)) - 1
    struct.pack_into(fmt, edited, offset, data.draw(st.integers(0, top), label="value"))
    for mutant in (flipped, edited):
        try:
            _read(path, bytes(mutant))
        except CheckpointError:
            pass


BAD_CHECKPOINTS = {
    "name_not_utf8": ([(b"\xff\xfe", (1,), [0.0])], "UTF-8"),
    "extents_overflow_int64": ([(b"a", (2**16,) * 4, [])], "truncated"),  # 2**64 wraps to 0
    "extents_too_big_for_numpy": ([(b"a", (0,) + (2**32 - 1,) * 3, [])], "addressable"),
    "duplicate_name": ([(b"a", (1,), [1.0]), (b"a", (1,), [2.0])], "duplicate"),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
def test_checkpoint_rejects_malformed_entries(tmp_path, case):
    entries, message = BAD_CHECKPOINTS[case]
    blob, _ = _encode(entries)
    with pytest.raises(CheckpointError, match=message):
        _read(tmp_path / "bad.ptta", blob)
