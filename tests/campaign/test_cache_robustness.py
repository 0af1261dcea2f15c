"""Cache robustness: damaged entries are misses that heal themselves."""

import json

import pytest

from repro.campaign import CampaignRunner, ResultCache, ScenarioSpec, run_spec

SPEC = ScenarioSpec(scheme="EDF", n_graphs=2, seed=5)


def _entry_path(cache):
    (path,) = cache.root.glob("*.json")
    return path


@pytest.fixture
def warm_cache(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(run_spec(SPEC))
    return cache


class TestDamagedEntries:
    def test_truncated_entry_is_a_miss(self, warm_cache):
        path = _entry_path(warm_cache)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])  # torn write / full disk
        assert warm_cache.get(SPEC) is None

    def test_empty_entry_is_a_miss(self, warm_cache):
        _entry_path(warm_cache).write_text("")
        assert warm_cache.get(SPEC) is None

    def test_binary_garbage_is_a_miss(self, warm_cache):
        _entry_path(warm_cache).write_bytes(b"\x00\xffnot json\x13")
        assert warm_cache.get(SPEC) is None

    def test_wrong_spec_under_right_hash_is_a_miss(self, warm_cache):
        # Simulates a (vanishingly unlikely) content-hash collision or
        # a hand-edited entry: the stored spec must equal the queried
        # spec, not merely share its file name.
        path = _entry_path(warm_cache)
        data = json.loads(path.read_text())
        data["spec"]["fields"]["seed"] = 999
        path.write_text(json.dumps(data))
        assert warm_cache.get(SPEC) is None

    def test_missing_metrics_key_is_a_miss(self, warm_cache):
        path = _entry_path(warm_cache)
        data = json.loads(path.read_text())
        del data["metrics"]
        path.write_text(json.dumps(data))
        assert warm_cache.get(SPEC) is None


class TestSelfHealing:
    def test_runner_recomputes_and_repairs(self, warm_cache):
        reference = CampaignRunner(1).run([SPEC])
        _entry_path(warm_cache).write_text("{torn")

        recompute = CampaignRunner(1, cache=warm_cache).run([SPEC])
        assert recompute.cache_hits == 0
        assert recompute.executed == 1
        assert [r.metrics for r in recompute.results] == (
            [r.metrics for r in reference.results]
        )

        # The recompute overwrote the damaged entry: next run hits.
        healed = CampaignRunner(1, cache=warm_cache).run([SPEC])
        assert healed.cache_hits == 1
        assert healed.executed == 0
        assert [r.metrics for r in healed.results] == (
            [r.metrics for r in reference.results]
        )

    def test_partial_corruption_recomputes_only_the_damage(self, tmp_path):
        specs = [
            ScenarioSpec(scheme="EDF", n_graphs=2, seed=s) for s in (1, 2, 3)
        ]
        cache = ResultCache(tmp_path)
        CampaignRunner(1, cache=cache).run(specs)
        damaged = tmp_path / f"{cache._path(specs[1]).name}"
        damaged.write_text("")

        again = CampaignRunner(1, cache=cache).run(specs)
        assert again.cache_hits == 2
        assert again.executed == 1


class TestCachePurity:
    """The cache is keyed on spec content only, so every execution path
    that writes it must store exactly what the default path computes."""

    @pytest.mark.parametrize(
        "make_runner",
        [
            lambda cache: CampaignRunner(cache=cache),
            lambda cache: CampaignRunner(cache=cache, sim_vector=True),
        ],
        ids=["default", "vector"],
    )
    def test_cached_metrics_equal_fresh_run_spec(
        self, tmp_path, make_runner, long_specs
    ):
        make_runner(ResultCache(tmp_path)).run(long_specs)
        served = CampaignRunner(cache=ResultCache(tmp_path)).run(long_specs)
        assert served.cache_hits == len(long_specs)
        for result, spec in zip(served.results, long_specs):
            assert result.metrics == run_spec(spec).metrics  # bitwise
