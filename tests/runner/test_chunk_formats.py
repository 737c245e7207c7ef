"""The two chunk formats: identity, resume, and doctor."""

import json

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.records.columnar import read_header
from repro.runner import (
    CHUNK_FORMATS,
    CheckpointRunner,
    FaultPlan,
    InjectedCrash,
    chunk_to_bytes,
    load_chunk,
    repair_run,
    verify_run,
)
from repro.runner.chunkstore import chunk_file_name, chunk_suffix

from .conftest import assert_results_identical


def _rows(n, seed=0):
    rng = np.random.default_rng(seed)
    from repro.records.impressions import ImpressionTable

    dtypes = ImpressionTable.field_dtypes()
    out = {}
    for name, dtype in dtypes.items():
        kind = np.dtype(dtype).kind
        if kind == "f":
            out[name] = rng.random(n).astype(dtype)
        elif kind == "b":
            out[name] = rng.random(n) < 0.5
        else:
            out[name] = rng.integers(0, 100, n).astype(dtype)
    return out


class TestChunkstore:
    @pytest.mark.parametrize("fmt", CHUNK_FORMATS)
    def test_round_trip_and_determinism(self, tmp_path, fmt):
        chunk = _rows(17)
        blob = chunk_to_bytes(chunk, fmt, 0, 7)
        assert blob == chunk_to_bytes(
            {k: v.copy() for k, v in chunk.items()}, fmt, 0, 7
        )
        path = tmp_path / chunk_file_name(0, 7, fmt)
        path.write_bytes(blob)
        back = load_chunk(path, fmt)
        for name, values in chunk.items():
            assert back[name].dtype == values.dtype, name
            assert np.array_equal(back[name], values), name

    @pytest.mark.parametrize("fmt", CHUNK_FORMATS)
    def test_zero_row_chunk(self, tmp_path, fmt):
        chunk = _rows(0)
        path = tmp_path / chunk_file_name(3, 5, fmt)
        path.write_bytes(chunk_to_bytes(chunk, fmt, 3, 5))
        back = load_chunk(path, fmt)
        assert all(len(v) == 0 for v in back.values())

    @pytest.mark.parametrize("fmt", CHUNK_FORMATS)
    def test_malformed_chunk_loads_as_none(self, tmp_path, fmt):
        path = tmp_path / chunk_file_name(0, 7, fmt)
        path.write_bytes(b'{"not": "a chunk"}\n')
        assert load_chunk(path, fmt) is None

    def test_jsonl_floats_round_trip_exactly(self, tmp_path):
        # repr-based JSON floats are the crux of the jsonl format being
        # replayable: every float64 bit pattern must survive.
        chunk = _rows(64, seed=7)
        chunk["spend"] = chunk["spend"] * 1e-17  # denormal-ish values
        path = tmp_path / "chunk-00000-00007.jsonl"
        path.write_bytes(chunk_to_bytes(chunk, "jsonl", 0, 7))
        back = load_chunk(path, "jsonl")
        assert back["spend"].tobytes() == chunk["spend"].tobytes()
        assert back["day"].tobytes() == chunk["day"].tobytes()

    def test_unknown_format_rejected(self):
        with pytest.raises(SimulationError):
            chunk_to_bytes(_rows(1), "parquet", 0, 1)
        with pytest.raises(SimulationError):
            chunk_suffix("parquet")


class TestRunnerFormats:
    @pytest.mark.parametrize("fmt", CHUNK_FORMATS)
    def test_run_is_bit_identical_in_every_format(
        self, tmp_path, runner_config, baseline, fmt
    ):
        run_dir = tmp_path / f"run-{fmt}"
        result = CheckpointRunner(
            runner_config, run_dir, chunk_format=fmt
        ).run()
        assert_results_identical(baseline, result)
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        assert manifest["chunk_format"] == fmt
        chunks = sorted((run_dir / "chunks").iterdir())
        assert chunks
        assert all(p.suffix == chunk_suffix(fmt) for p in chunks)
        assert verify_run(run_dir).ok
        if fmt == "columnar":
            header = read_header(chunks[0])
            assert header["meta"] == {"day_start": 0, "day_end": 7}

    @pytest.mark.parametrize("fmt", CHUNK_FORMATS)
    def test_resume_adopts_manifest_format(
        self, tmp_path, runner_config, baseline, fmt
    ):
        run_dir = tmp_path / f"resume-{fmt}"
        plan = FaultPlan.crash_at("phase3:day", day=20)
        with pytest.raises(InjectedCrash):
            CheckpointRunner(
                runner_config, run_dir, faults=plan, chunk_format=fmt
            ).run()
        # Resume with a *different* preferred format: the directory's
        # recorded format must win, and the result stays bit-identical.
        other = next(f for f in CHUNK_FORMATS if f != fmt)
        resumed = CheckpointRunner(run_dir=run_dir, config=runner_config, chunk_format=other)
        result = resumed.run(resume=True)
        assert resumed.chunk_format == fmt
        assert_results_identical(baseline, result)
        chunks = sorted((run_dir / "chunks").iterdir())
        assert all(p.suffix == chunk_suffix(fmt) for p in chunks)

    @pytest.mark.parametrize("fmt", CHUNK_FORMATS)
    def test_doctor_repairs_every_format(
        self, tmp_path, runner_config, fmt
    ):
        run_dir = tmp_path / f"doctor-{fmt}"
        CheckpointRunner(runner_config, run_dir, chunk_format=fmt).run()
        pristine = {
            p.relative_to(run_dir): p.read_bytes()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file()
        }
        chunk = sorted((run_dir / "chunks").iterdir())[1]
        blob = bytearray(chunk.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        chunk.write_bytes(bytes(blob))
        assert not verify_run(run_dir).ok
        repair = repair_run(run_dir)
        assert repair.strategy == "chunk-replay"
        assert repair.verify.ok, repair.verify.issues
        for rel, data in pristine.items():
            assert (run_dir / rel).read_bytes() == data, rel

    def test_unknown_chunk_format_refused(self, tmp_path, runner_config):
        with pytest.raises(SimulationError):
            CheckpointRunner(runner_config, tmp_path / "x", chunk_format="xml")

    def test_format_independence_of_simulation_outputs(
        self, tmp_path, runner_config
    ):
        # Two same-seed runs in different formats agree on every
        # simulation artifact the manifest pins (the chunk checksums
        # themselves legitimately differ).
        a = tmp_path / "native"
        b = tmp_path / "export"
        CheckpointRunner(runner_config, a, chunk_format="columnar").run()
        CheckpointRunner(runner_config, b, chunk_format="jsonl").run()
        ma = json.loads((a / "MANIFEST.json").read_text())
        mb = json.loads((b / "MANIFEST.json").read_text())
        for key in ("seed", "days", "phase", "config", "phase3_start_rng"):
            assert ma[key] == mb[key], key
        assert (a / "dayledger.jsonl").read_bytes() == (
            b / "dayledger.jsonl"
        ).read_bytes()
        for ca, cb in zip(ma["chunks"], mb["chunks"]):
            assert ca["day_start"] == cb["day_start"]
            assert ca["rows"] == cb["rows"]
            assert ca["rng_after"] == cb["rng_after"]


def test_stray_tmp_detection_still_works(tmp_path, runner_config):
    run_dir = tmp_path / "tmp-orphan"
    CheckpointRunner(runner_config, run_dir).run()
    (run_dir / "chunks" / "chunk-junk.npc.tmp").write_bytes(b"partial")
    report = verify_run(run_dir)
    assert not report.ok
    repair = repair_run(run_dir)
    assert repair.verify.ok
    assert not (run_dir / "chunks" / "chunk-junk.npc.tmp").exists()
    quarantined = list((run_dir / "quarantine").rglob("*.tmp*"))
    assert quarantined


def test_chunk_files_are_column_seekable(tmp_path, runner_config):
    # The analysis layer's contract: read two columns of a durable
    # chunk without parsing rows or touching other columns.
    run_dir = tmp_path / "seekable"
    CheckpointRunner(runner_config, run_dir).run()
    from repro.records.columnar import read_columns

    chunk = sorted((run_dir / "chunks").iterdir())[0]
    subset = read_columns(chunk, names=["day", "spend"])
    assert set(subset) == {"day", "spend"}
    assert subset["day"].dtype == np.float64
