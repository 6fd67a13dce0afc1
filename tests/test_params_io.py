"""Deterministic initialization and the on-disk parameter format."""

import struct
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vecroute import (
    ParamFormatError,
    RoutingDims,
    RoutingParams,
    ShapeError,
    field_shapes,
    init_params,
    load_params,
    save_params,
)

from oracles import doc_shapes, init_draw

FIXED_DIMS = RoutingDims(5, 3, 6, 4, 2)
VARIABLE_DIMS = RoutingDims(None, 3, 6, 4, 3)


def params_equal(a: RoutingParams, b: RoutingParams) -> bool:
    if a.dims != b.dims:
        return False
    return all(
        np.array_equal(ta.array, tb.array)
        for (_, ta), (_, tb) in zip(a.field_items(), b.field_items())
    )


class TestInitParams:
    @pytest.mark.parametrize("dims", [FIXED_DIMS, VARIABLE_DIMS])
    def test_deterministic_in_seed(self, dims):
        a = init_params(dims, seed=42)
        b = init_params(dims, seed=42)
        assert params_equal(a, b)

    def test_different_seeds_differ(self):
        a = init_params(FIXED_DIMS, seed=0)
        b = init_params(FIXED_DIMS, seed=1)
        assert not np.array_equal(a.vote_proj.array, b.vote_proj.array)

    def test_fixed_mode_neutral_start(self):
        p = init_params(FIXED_DIMS, seed=0)
        assert np.all(p.beta_use.array == 1.0)
        assert np.all(p.beta_ign.array == 0.0)
        for name in ("act_bias", "vote_bias", "pred_bias", "score_bias"):
            assert np.all(getattr(p, name).array == 0.0), name

    def test_variable_mode_neutral_start(self):
        p = init_params(VARIABLE_DIMS, seed=0)
        # Constant coefficient generators: zero weights, use 1, ignore 0.
        assert np.all(p.beta_use_weight.array == 0.0)
        assert np.all(p.beta_ign_weight.array == 0.0)
        assert np.all(p.beta_use_bias.array == 1.0)
        assert np.all(p.beta_ign_bias.array == 0.0)

    def test_projection_moments(self):
        dims = RoutingDims(2, 2, 128, 128, 2)
        p = init_params(dims, seed=7)
        flat = p.vote_proj.array.ravel().astype(np.float64)
        want_std = 1.0 / np.sqrt(128.0)
        # Mean within 3 standard errors of zero; spread near 1/sqrt(fan_in).
        assert abs(flat.mean()) <= 3.0 * want_std / np.sqrt(flat.size)
        assert abs(flat.std() - want_std) <= 0.05 * want_std

    def test_fan_in_scales_differ_by_tensor(self):
        dims = RoutingDims(2, 2, 256, 16, 2)
        p = init_params(dims, seed=9)
        # pred_proj sums over d_out=16, vote_proj over d_inp=256.
        assert p.pred_proj.array.std() > 3.0 * p.vote_proj.array.std()

    def test_overrides_replace_without_disturbing_others(self):
        base = init_params(FIXED_DIMS, seed=5)
        custom = np.full(field_shapes(FIXED_DIMS)["vote_mix"], 0.5, np.float32)
        p = init_params(FIXED_DIMS, seed=5, overrides={"vote_mix": custom})
        assert np.array_equal(p.vote_mix.array, custom)
        for name, t in p.field_items():
            if name != "vote_mix":
                assert np.array_equal(t.array, getattr(base, name).array), name

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            init_params(FIXED_DIMS, seed=0, overrides={"momentum": np.zeros(3, np.float32)})

    def test_wrong_override_shape_rejected(self):
        with pytest.raises(ShapeError):
            init_params(FIXED_DIMS, seed=0, overrides={"vote_mix": np.zeros((1, 1), np.float32)})


SCHEMA_CASES = [
    (RoutingDims(5, 3, 4, 2, 2), 0),
    (RoutingDims(None, 3, 4, 2, 2), 0),
    (RoutingDims(64, 16, 32, 8, 3), 7),
    (RoutingDims(None, 7, 9, 5, 2), 3),
    (RoutingDims(1, 1, 1, 1, 2), 12),
    (RoutingDims(None, 1, 1, 1, 2), 12),
]


class TestSchemaAgainstDoc:
    @pytest.mark.parametrize("dims, seed", SCHEMA_CASES)
    def test_field_shapes_match_the_doc_tables(self, dims, seed):
        shapes = field_shapes(dims)
        assert list(shapes.items()) == list(doc_shapes(dims).items())

    @pytest.mark.parametrize("dims, seed", SCHEMA_CASES)
    def test_init_matches_the_oracle_draw_bit_for_bit(self, dims, seed):
        p = init_params(dims, seed)
        want = init_draw(dims, seed)
        assert [name for name, _ in p.field_items()] == list(want)
        for name, t in p.field_items():
            assert t.dtype == np.float32, name
            assert np.array_equal(t.array, want[name]), name

    @pytest.mark.parametrize("dims", [FIXED_DIMS, VARIABLE_DIMS])
    def test_override_leaves_the_oracle_draw_of_the_rest(self, dims):
        custom = np.full(doc_shapes(dims)["pred_proj"], -0.25, np.float32)
        p = init_params(dims, seed=8, overrides={"pred_proj": custom})
        want = init_draw(dims, seed=8)
        want["pred_proj"] = custom
        for name, t in p.field_items():
            assert np.array_equal(t.array, want[name]), name


class TestRoundTrip:
    @pytest.mark.parametrize("dims", [FIXED_DIMS, VARIABLE_DIMS])
    def test_bit_exact(self, dims, tmp_path):
        p = init_params(dims, seed=11)
        path = tmp_path / "params.bin"
        save_params(p, path)
        q = load_params(path)
        assert params_equal(p, q)

    def test_header_is_readable_text(self, tmp_path):
        p = init_params(FIXED_DIMS, seed=1)
        path = tmp_path / "params.bin"
        save_params(p, path)
        head = path.read_bytes().partition(b"\n\n")[0].decode("ascii").split("\n")
        assert head[0] == "vecroute-params 1"
        assert head[1] == "mode fixed"
        assert head[2] == "dims n_inp=5 n_out=3 d_inp=6 d_out=4 n_iters=2"
        assert head[3].startswith("checksum ")
        assert head[4] == "tensor act_weight f32 5x6 0"
        assert head[-1].startswith("payload ")

    def test_variable_mode_header_marks_length(self, tmp_path):
        p = init_params(VARIABLE_DIMS, seed=1)
        path = tmp_path / "params.bin"
        save_params(p, path)
        head = path.read_bytes().partition(b"\n\n")[0].decode("ascii").split("\n")
        assert head[1] == "mode variable"
        assert "n_inp=variable" in head[2]

    def test_round_trip_survives_repeated_cycles(self, tmp_path):
        p = init_params(FIXED_DIMS, seed=3)
        for cycle in range(5):
            path = tmp_path / f"cycle{cycle}.bin"
            save_params(p, path)
            p = load_params(path)
        assert params_equal(p, init_params(FIXED_DIMS, seed=3))

    def test_float64_params_are_not_serializable(self, tmp_path):
        p = init_params(FIXED_DIMS, seed=0).astype(np.float64)
        with pytest.raises(ParamFormatError, match="float32"):
            save_params(p, tmp_path / "params.bin")


def corrupt(path, out_path, *, header=None, payload=None, fix_checksum=False):
    """Rewrite a parameter file with targeted damage."""
    blob = path.read_bytes()
    head, _, body = blob.partition(b"\n\n")
    lines = head.decode("ascii").split("\n")
    if header:
        lines = header(lines)
    if payload:
        body = payload(body)
    if fix_checksum:
        crc = f"{zlib.crc32(body) & 0xFFFFFFFF:08x}"
        lines = [f"checksum {crc}" if l.startswith("checksum ") else l for l in lines]
    out_path.write_bytes(("\n".join(lines) + "\n\n").encode("ascii") + body)
    return out_path


class TestRejection:
    @pytest.fixture()
    def valid(self, tmp_path):
        p = init_params(FIXED_DIMS, seed=2)
        path = tmp_path / "valid.bin"
        save_params(p, path)
        return path

    def test_bad_magic(self, valid, tmp_path):
        bad = corrupt(valid, tmp_path / "bad.bin", header=lambda l: ["router-params 1"] + l[1:])
        with pytest.raises(ParamFormatError, match="not a parameter file"):
            load_params(bad)

    def test_unknown_version(self, valid, tmp_path):
        bad = corrupt(valid, tmp_path / "bad.bin", header=lambda l: ["vecroute-params 2"] + l[1:])
        with pytest.raises(ParamFormatError, match="version"):
            load_params(bad)

    def test_bad_mode(self, valid, tmp_path):
        bad = corrupt(valid, tmp_path / "bad.bin", header=lambda l: l[:1] + ["mode mixed"] + l[2:])
        with pytest.raises(ParamFormatError, match="mode"):
            load_params(bad)

    def test_mode_dims_conflict(self, valid, tmp_path):
        swap = lambda l: l[:1] + ["mode variable"] + l[2:]
        bad = corrupt(valid, tmp_path / "bad.bin", header=swap)
        with pytest.raises(ParamFormatError, match="conflicts"):
            load_params(bad)

    def test_truncated_payload(self, valid, tmp_path):
        bad = corrupt(valid, tmp_path / "bad.bin", payload=lambda b: b[:-8])
        with pytest.raises(ParamFormatError, match="truncated"):
            load_params(bad)

    def test_trailing_bytes(self, valid, tmp_path):
        bad = corrupt(valid, tmp_path / "bad.bin", payload=lambda b: b + b"\x00" * 4)
        with pytest.raises(ParamFormatError, match="trailing"):
            load_params(bad)

    def test_checksum_flip(self, valid, tmp_path):
        def flip(lines):
            out = []
            for line in lines:
                if line.startswith("checksum "):
                    digits = line.split()[1]
                    changed = ("0" if digits[0] != "0" else "1") + digits[1:]
                    line = f"checksum {changed}"
                out.append(line)
            return out

        bad = corrupt(valid, tmp_path / "bad.bin", header=flip)
        with pytest.raises(ParamFormatError, match="checksum mismatch"):
            load_params(bad)

    def test_payload_bit_flip(self, valid, tmp_path):
        def flip(body):
            mutated = bytearray(body)
            mutated[10] ^= 0x40
            return bytes(mutated)

        bad = corrupt(valid, tmp_path / "bad.bin", payload=flip)
        with pytest.raises(ParamFormatError, match="checksum mismatch"):
            load_params(bad)

    def test_wrong_tensor_name(self, valid, tmp_path):
        rename = lambda l: [x.replace("tensor vote_mix", "tensor vote_blend") for x in l]
        bad = corrupt(valid, tmp_path / "bad.bin", header=rename)
        with pytest.raises(ParamFormatError, match="canonical"):
            load_params(bad)

    def test_wrong_offset(self, valid, tmp_path):
        def shift(lines):
            out = []
            for line in lines:
                if line.startswith("tensor act_bias "):
                    parts = line.split()
                    parts[-1] = str(int(parts[-1]) + 4)
                    line = " ".join(parts)
                out.append(line)
            return out

        bad = corrupt(valid, tmp_path / "bad.bin", header=shift)
        with pytest.raises(ParamFormatError, match="offset"):
            load_params(bad)

    def test_non_finite_payload_with_valid_checksum(self, valid, tmp_path):
        def poison(body):
            return struct.pack("<f", float("nan")) + body[4:]

        bad = corrupt(valid, tmp_path / "bad.bin", payload=poison, fix_checksum=True)
        with pytest.raises(ParamFormatError, match="non-finite"):
            load_params(bad)

    def test_missing_blank_line(self, valid, tmp_path):
        blob = valid.read_bytes().replace(b"\n\n", b"\n", 1)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob)
        with pytest.raises(ParamFormatError):
            load_params(bad)

    def test_non_ascii_header(self, valid, tmp_path):
        blob = valid.read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes("möde".encode("utf-8") + blob)
        with pytest.raises(ParamFormatError):
            load_params(bad)


def with_line(prefix, line):
    """Header edit: the line starting with ``prefix`` becomes ``line``."""
    return lambda lines: [line if l.startswith(prefix) else l for l in lines]


# Header faults of the FIXED_DIMS file, each with its exact message:
# act_weight is 5x6 at offset 0, act_bias 5 at 120, the payload 836 bytes.
HEADER_FAULTS = {
    "non_integer_field": (
        with_line("vecroute-params", "vecroute-params one"),
        "malformed header: version 'one' is not an integer",
    ),
    "dims_line": (
        with_line("dims", "dims n_inp=5 n_out=3"),
        "malformed header: expected dims line, got 'dims n_inp=5 n_out=3'",
    ),
    "dims_entry_without_equals": (
        with_line("dims", "dims n_inp=5 n_out:3 d_inp=6 d_out=4 n_iters=2"),
        "malformed header: dims entry 'n_out:3' lacks '='",
    ),
    "dims_keys": (
        with_line("dims", "dims n_out=3 n_inp=5 d_inp=6 d_out=4 n_iters=2"),
        "malformed header: dims keys ('n_out', 'n_inp', 'd_inp', 'd_out', 'n_iters') "
        "!= ('n_inp', 'n_out', 'd_inp', 'd_out', 'n_iters')",
    ),
    "dims_values": (
        with_line("dims", "dims n_inp=5 n_out=3 d_inp=6 d_out=4 n_iters=1"),
        "malformed header: n_iters must be at least 2",
    ),
    "too_few_lines": (lambda lines: lines[:3] + lines[-1:], "malformed header: too few lines"),
    "checksum_line": (
        with_line("checksum", "checksum"),
        "malformed header: expected checksum line, got 'checksum'",
    ),
    "payload_line": (
        lambda lines: lines[:-1],
        "malformed header: expected payload line, got 'tensor beta_ign f32 5x3 776'",
    ),
    "tensor_line": (
        with_line("tensor act_bias", "tensor act_bias f64 5 120"),
        "malformed header: expected tensor line, got 'tensor act_bias f64 5 120'",
    ),
    "tensor_shape_text": (
        with_line("tensor act_bias", "tensor act_bias f32 5xa 120"),
        "malformed header: bad shape '5xa' for act_bias",
    ),
    "tensor_shape": (
        with_line("tensor act_bias", "tensor act_bias f32 6 120"),
        "tensor act_bias shape (6,) != required (5,)",
    ),
    "payload_total": (
        with_line("payload", "payload 840"),
        "declared payload length 840 != tensor total 836",
    ),
}


@pytest.mark.parametrize("fault", HEADER_FAULTS)
def test_header_fault_raises_before_any_value_is_read(fault, tmp_path, monkeypatch):
    edit, message = HEADER_FAULTS[fault]
    path = tmp_path / "valid.bin"
    save_params(init_params(FIXED_DIMS, seed=2), path)
    bad = corrupt(path, tmp_path / "bad.bin", header=edit)

    def no_reads(*args, **kwargs):
        raise AssertionError("a payload value was read")

    monkeypatch.setattr(np, "frombuffer", no_reads)
    with pytest.raises(ParamFormatError) as raised:
        load_params(bad)
    assert str(raised.value) == message


def independent_write(path, dims: RoutingDims, arrays: dict) -> None:
    """Second writer, built from docs/param-format.md and nothing else."""
    order = doc_shapes(dims)
    payload = b"".join(
        b"".join(struct.pack("<f", float(v)) for v in np.asarray(arrays[name]).ravel())
        for name in order
    )
    mode = "variable" if dims.n_inp is None else "fixed"
    n_inp = "variable" if dims.n_inp is None else str(dims.n_inp)
    lines = [
        "vecroute-params 1",
        f"mode {mode}",
        f"dims n_inp={n_inp} n_out={dims.n_out} d_inp={dims.d_inp} "
        f"d_out={dims.d_out} n_iters={dims.n_iters}",
        f"checksum {zlib.crc32(payload) & 0xFFFFFFFF:08x}",
    ]
    offset = 0
    for name, shape in order.items():
        shape_text = "x".join(str(e) for e in shape)
        lines.append(f"tensor {name} f32 {shape_text} {offset}")
        offset += int(np.prod(shape)) * 4
    lines.append(f"payload {offset}")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n\n").encode("ascii") + payload)


def independent_read(path):
    """Second reader, built from docs/param-format.md and nothing else."""
    blob = path.read_bytes()
    head, _, payload = blob.partition(b"\n\n")
    lines = head.decode("ascii").split("\n")
    assert lines[0] == "vecroute-params 1"
    declared = lines[3].split()[1]
    assert f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}" == declared
    arrays = {}
    for line in lines[4:-1]:
        _, name, kind, shape_text, offset = line.split()
        assert kind == "f32"
        shape = tuple(int(e) for e in shape_text.split("x"))
        count = int(np.prod(shape))
        start = int(offset)
        values = struct.unpack(f"<{count}f", payload[start : start + 4 * count])
        arrays[name] = np.asarray(values, dtype=np.float32).reshape(shape)
    return arrays


class TestCrossWriter:
    @pytest.mark.parametrize("dims", [FIXED_DIMS, VARIABLE_DIMS])
    def test_foreign_file_loads_bit_exact(self, dims, tmp_path):
        rng = np.random.default_rng(33)
        arrays = {
            name: rng.standard_normal(shape).astype(np.float32)
            for name, shape in doc_shapes(dims).items()
        }
        path = tmp_path / "foreign.bin"
        independent_write(path, dims, arrays)
        loaded = load_params(path)
        for name, want in arrays.items():
            assert np.array_equal(getattr(loaded, name).array, want), name

    def test_native_file_reads_back_through_foreign_reader(self, tmp_path):
        p = init_params(FIXED_DIMS, seed=17)
        path = tmp_path / "native.bin"
        save_params(p, path)
        arrays = independent_read(path)
        for name, t in p.field_items():
            assert np.array_equal(arrays[name], t.array), name
