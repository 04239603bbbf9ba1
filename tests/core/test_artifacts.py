"""The artifact plane: versioned save/load of a built index, and the
bit-identity of searches served from a cold start."""

import json
import shutil

import numpy as np
import pytest

from repro import TiptoeEngine
from repro.core.artifacts import (
    PRECOMPUTE_SCHEMA,
    SCHEMA,
    ArtifactError,
    load_index,
    load_precompute_sidecar,
    save_index,
    write_precompute_sidecar,
)
from repro.core.indexer import TiptoeIndex


@pytest.fixture(scope="module")
def saved(engine, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts")
    engine.index.save(path)
    return path


class TestRoundTrip:
    def test_search_is_bit_identical_after_reload(self, engine, saved):
        reloaded = TiptoeEngine(TiptoeIndex.load(saved))
        for text in ("alpha beta", "gamma", "delta epsilon zeta"):
            a = engine.search(text, rng=np.random.default_rng(42))
            b = reloaded.search(text, rng=np.random.default_rng(42))
            assert b.cluster == a.cluster
            assert [(r.position, r.score, r.url) for r in b.results] == [
                (r.position, r.score, r.url) for r in a.results
            ]
        reloaded.close()

    def test_traffic_shape_survives_reload(self, engine, saved):
        reloaded = TiptoeEngine(TiptoeIndex.load(saved))
        a = engine.search("theta iota", rng=np.random.default_rng(1))
        b = reloaded.search("theta iota", rng=np.random.default_rng(1))
        assert b.traffic.total_bytes() == a.traffic.total_bytes()
        reloaded.close()

    def test_core_arrays_match_exactly(self, engine, saved):
        index = engine.index
        reloaded = load_index(saved)
        np.testing.assert_array_equal(
            reloaded.layout.matrix, index.layout.matrix
        )
        np.testing.assert_array_equal(
            reloaded.url_db.matrix, index.url_db.matrix
        )
        np.testing.assert_array_equal(
            reloaded.ranking_prep.hint, index.ranking_prep.hint
        )
        np.testing.assert_array_equal(
            reloaded.url_prep.hint, index.url_prep.hint
        )
        np.testing.assert_array_equal(
            reloaded.clusters.centroids, index.clusters.centroids
        )
        assert reloaded.config == index.config
        assert reloaded.quantization_gain == index.quantization_gain

    def test_schemes_regenerate_the_same_public_matrix(self, engine, saved):
        reloaded = load_index(saved)
        np.testing.assert_array_equal(
            reloaded.ranking_scheme.inner.a,
            engine.index.ranking_scheme.inner.a,
        )
        assert (
            reloaded.url_scheme.inner.a_seed
            == engine.index.url_scheme.inner.a_seed
        )

    def test_vocabulary_and_batches_survive(self, engine, saved):
        index, reloaded = engine.index, load_index(saved)
        assert (
            reloaded.embedder.vocab.term_to_id
            == index.embedder.vocab.term_to_id
        )
        assert len(reloaded.url_batches) == len(index.url_batches)
        assert reloaded.url_batches[0].payload == index.url_batches[0].payload
        assert (
            reloaded.url_batches[-1].doc_ids == index.url_batches[-1].doc_ids
        )


class TestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            load_index(tmp_path)

    def test_schema_mismatch(self, saved, tmp_path):
        for name in ("manifest.json", "vocab.json", "arrays.npz", "blobs.bin"):
            (tmp_path / name).write_bytes((saved / name).read_bytes())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["schema"] = "repro.index/v999"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="v999") as info:
            load_index(tmp_path)
        assert SCHEMA in str(info.value)  # tells the reader what *would* load

    def _copy_with_config_key(self, saved, tmp_path, key, value):
        for name in ("manifest.json", "vocab.json", "arrays.npz", "blobs.bin"):
            (tmp_path / name).write_bytes((saved / name).read_bytes())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["config"][key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))

    def test_retired_num_workers_key_still_loads(self, engine, saved, tmp_path):
        # Indexes saved before the per-shard worker count was retired
        # carry "num_workers" in their config; they must keep loading.
        self._copy_with_config_key(saved, tmp_path, "num_workers", 4)
        assert load_index(tmp_path).config == engine.index.config

    def test_unknown_config_key_is_rejected(self, saved, tmp_path):
        self._copy_with_config_key(saved, tmp_path, "bogus_knob", 1)
        with pytest.raises(TypeError, match="bogus_knob"):
            load_index(tmp_path)

    def test_truncated_blobs(self, saved, tmp_path):
        for name in ("manifest.json", "vocab.json", "arrays.npz"):
            (tmp_path / name).write_bytes((saved / name).read_bytes())
        blobs = (saved / "blobs.bin").read_bytes()
        (tmp_path / "blobs.bin").write_bytes(blobs[: len(blobs) - 7])
        with pytest.raises(ArtifactError, match="remain"):
            load_index(tmp_path)

    def test_non_lsa_embedder_is_rejected_clearly(self, engine, tmp_path):
        import dataclasses

        class Exotic:
            def embed(self, text):  # pragma: no cover - never called
                raise NotImplementedError

        weird = dataclasses.replace(engine.index, embedder=Exotic())
        with pytest.raises(ArtifactError, match="LsaEmbedder"):
            save_index(weird, tmp_path)

    def test_save_returns_the_directory_and_is_rerunnable(
        self, engine, tmp_path
    ):
        out = save_index(engine.index, tmp_path / "idx")
        assert (out / "manifest.json").exists()
        again = save_index(engine.index, tmp_path / "idx")  # overwrite ok
        assert again == out


@pytest.fixture(scope="module")
def saved_warm(engine, tmp_path_factory):
    """The same index saved with the precompute sidecar."""
    path = tmp_path_factory.mktemp("artifacts_warm")
    save_index(engine.index, path, precompute=True)
    return path


class TestPrecomputeSidecar:
    def test_sidecar_is_written_and_validates(self, saved_warm):
        assert (saved_warm / "precompute.npz").is_file()
        meta, arrays = load_precompute_sidecar(saved_warm)
        assert meta["schema"] == PRECOMPUTE_SCHEMA
        assert set(meta["plans"]) == {"ranking", "url"}
        assert set(arrays) == {"ranking_hint_ntt", "url_hint_ntt"}

    def test_plain_save_has_no_sidecar(self, saved):
        assert not (saved / "precompute.npz").exists()
        assert load_precompute_sidecar(saved) is None
        assert load_index(saved).precompute is None

    def test_tables_load_memory_mapped_read_only(self, saved_warm):
        _, arrays = load_precompute_sidecar(saved_warm)
        for table in arrays.values():
            assert isinstance(table, np.memmap)
            assert not table.flags.writeable

    def test_sidecar_tables_match_lazy_recompute(self, engine, saved_warm):
        """Bit-identity of the persisted NTT tables with what the lazy
        path computes on demand."""
        index = engine.index
        _, arrays = load_precompute_sidecar(saved_warm)
        np.testing.assert_array_equal(
            arrays["ranking_hint_ntt"],
            index.ranking_scheme.hint_ntt_table(index.ranking_prep),
        )
        np.testing.assert_array_equal(
            arrays["url_hint_ntt"],
            index.url_scheme.hint_ntt_table(index.url_prep),
        )

    def test_load_attaches_tables_and_plans(self, saved_warm):
        index = load_index(saved_warm)
        assert index.precompute is not None
        assert index.ranking_prep.hint_ntt is not None
        assert index.url_prep.hint_ntt is not None
        for plan in index.precompute["plans"].values():
            assert plan["entry_bound"] >= 0
            assert plan["limb_bits"] >= 1

    def test_cold_start_equivalence(self, engine, saved, saved_warm):
        """A warm serve answers bit-identically to a cache-less one."""
        cold = TiptoeEngine(TiptoeIndex.load(saved))
        warm = TiptoeEngine(TiptoeIndex.load(saved_warm))
        for text in ("alpha beta", "gamma", "delta epsilon zeta"):
            a = cold.search(text, rng=np.random.default_rng(17))
            b = warm.search(text, rng=np.random.default_rng(17))
            assert b.cluster == a.cluster
            assert [(r.position, r.score, r.url) for r in b.results] == [
                (r.position, r.score, r.url) for r in a.results
            ]
        cold.close()
        warm.close()

    def test_token_mint_equivalence(self, engine, saved_warm):
        """Minting against the persisted tables is bit-identical."""
        warm = TiptoeEngine(TiptoeIndex.load(saved_warm))
        a = engine.mint_token(np.random.default_rng(23))
        b = warm.mint_token(np.random.default_rng(23))
        for name in ("ranking", "url"):
            np.testing.assert_array_equal(
                a.hint_products[name], b.hint_products[name]
            )
        warm.close()

    def test_digest_mismatch_is_rejected(self, saved_warm, tmp_path):
        """A sidecar keyed to a different arrays.npz must not load."""
        for item in saved_warm.iterdir():
            shutil.copy(item, tmp_path / item.name)
        # Re-serialize the same arrays compressed: identical content,
        # different bytes, so the recorded digest no longer matches.
        with np.load(tmp_path / "arrays.npz") as z:
            arrays = {name: z[name] for name in z.files}
            with (tmp_path / "arrays.npz").open("wb") as fh:
                np.savez_compressed(fh, **arrays)
        with pytest.raises(ArtifactError, match="different"):
            load_precompute_sidecar(tmp_path)
        with pytest.raises(ArtifactError, match="rebuild the sidecar"):
            load_index(tmp_path)

    def test_unknown_sidecar_schema_is_rejected(self, saved_warm, tmp_path):
        for item in saved_warm.iterdir():
            shutil.copy(item, tmp_path / item.name)
        with np.load(tmp_path / "precompute.npz") as z:
            arrays = {name: z[name] for name in z.files}
        meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
        meta["schema"] = "repro.precompute/v999"
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        with (tmp_path / "precompute.npz").open("wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ArtifactError, match="v999"):
            load_precompute_sidecar(tmp_path)

    def test_sidecar_requires_saved_arrays(self, engine, tmp_path):
        with pytest.raises(ArtifactError, match="save the index"):
            write_precompute_sidecar(engine.index, tmp_path)

    def test_index_save_honors_config_default(self, engine, tmp_path):
        """TiptoeConfig.precompute_sidecar drives index.save()."""
        import dataclasses

        config = dataclasses.replace(
            engine.index.config, precompute_sidecar=True
        )
        index = dataclasses.replace(engine.index, config=config)
        index.save(tmp_path / "auto")
        assert (tmp_path / "auto" / "precompute.npz").is_file()


class TestKernelPlanSidecar:
    """The autotuned KernelPlan record rides the precompute sidecar:
    tuned at build time, applied at serve time without re-tuning."""

    RECORD = {
        "ranking": {
            "backend": "reference",
            "limb_bits": 0,
            "chunk_rows": 0,
            "workers": 0,
        },
        "url": {
            "backend": "multiprocess",
            "limb_bits": 0,
            "chunk_rows": 0,
            "workers": 2,
        },
    }

    def test_explicit_record_round_trips(self, engine, tmp_path):
        save_index(engine.index, tmp_path)
        write_precompute_sidecar(engine.index, tmp_path,
                                 kernel_plan=self.RECORD)
        meta, _ = load_precompute_sidecar(tmp_path)
        assert meta["kernel_plan"] == self.RECORD
        assert load_index(tmp_path).precompute["kernel_plan"] == self.RECORD

    def test_plain_sidecar_has_no_kernel_plan(self, saved_warm):
        meta, _ = load_precompute_sidecar(saved_warm)
        assert "kernel_plan" not in meta

    def test_autotune_config_tunes_at_save_time(self, engine, tmp_path):
        import dataclasses

        from repro.lwe.backends import backend_names

        config = dataclasses.replace(
            engine.index.config,
            precompute_sidecar=True,
            kernel_autotune=True,
        )
        index = dataclasses.replace(engine.index, config=config)
        index.save(tmp_path)
        meta, _ = load_precompute_sidecar(tmp_path)
        record = meta["kernel_plan"]
        assert set(record) == {"ranking", "url"}
        for entry in record.values():
            assert entry["backend"] in backend_names()
            assert entry["throughput"] > 0

    def test_serve_cold_starts_on_the_tuned_plan(self, engine, tmp_path):
        """build_services applies the sidecar record directly -- no
        tuner run at load time -- and searches stay bit-identical."""
        from repro.core.services import build_services

        save_index(engine.index, tmp_path)
        write_precompute_sidecar(engine.index, tmp_path,
                                 kernel_plan=self.RECORD)
        index = load_index(tmp_path)
        services = build_services(index)
        try:
            assert services["ranking"].kernel_backend == "reference"
            assert services["url"].kernel_backend == "multiprocess"
            health = services["url"].health()
            assert health["kernel_backend"] == "multiprocess"
        finally:
            for service in services.values():
                service.close()

    def test_cnative_record_round_trips_and_serves(self, engine, tmp_path):
        """A sidecar tuned to the native backend: the record survives
        the save/load cycle verbatim, build_services applies it, and --
        on a compiler-less host -- the unavailable backend degrades to
        reference at plan-build time without changing answers."""
        from repro.core.services import build_services

        record = {
            "ranking": {
                "backend": "cnative",
                "limb_bits": 0,
                "chunk_rows": 0,
                "workers": 2,
            },
            "url": {
                "backend": "cnative",
                "limb_bits": 0,
                "chunk_rows": 0,
                "workers": 2,
            },
        }
        save_index(engine.index, tmp_path)
        write_precompute_sidecar(engine.index, tmp_path, kernel_plan=record)
        meta, _ = load_precompute_sidecar(tmp_path)
        assert meta["kernel_plan"] == record
        index = load_index(tmp_path)
        services = build_services(index)
        try:
            assert services["ranking"].kernel_backend == "cnative"
            assert services["url"].kernel_backend == "cnative"
            health = services["ranking"].health()
            assert health["kernel_backend"] == "cnative"
            # Plans build lazily; effective backend unknown until then.
            assert health["kernel_effective"] is None
        finally:
            for service in services.values():
                service.close()
