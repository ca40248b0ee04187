import numpy as np
import pytest

from seqrel import data as D
from seqrel import synth as S
from seqrel.exceptions import ConfigError
from seqrel.graph import similarity_matrix


def small_cfg(**kw):
    base = dict(n_sequences=240, num_events=4, n_numeric=2, n_categorical=1,
                vocab_size=5, n_archetypes=4, pos_rate=0.2, noise_scale=0.2,
                seed=7)
    base.update(kw)
    return S.GeneratorConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(pos_rate=0.0).validate()
    with pytest.raises(ConfigError):
        small_cfg(pos_rate=1.0).validate()
    with pytest.raises(ConfigError):
        small_cfg(n_archetypes=1).validate()
    with pytest.raises(ConfigError):
        small_cfg(n_sequences=5).validate()
    with pytest.raises(ConfigError):
        small_cfg(n_numeric=0, n_categorical=0).validate()
    with pytest.raises(ConfigError):
        small_cfg(task="ranking").validate()
    with pytest.raises(ConfigError):
        small_cfg(vocab_size=1).validate()


def test_unreachable_positive_rate():
    with pytest.raises(ConfigError):
        S.generate(small_cfg(pos_rate=0.99))


def test_split_sizes_and_order():
    res = S.generate(small_cfg())
    sizes = [len(res.splits[s].records) for s in S.SPLIT_NAMES]
    assert sizes == [160, 40, 40]
    assert res.full_ids == [f"s{i:06d}" for i in range(240)]
    # splits follow generation order
    assert res.splits["val"].ids[0] == "s000160"
    assert res.splits["test"].ids[0] == "s000200"


def test_labels_have_native_python_types():
    res = S.generate(small_cfg())
    assert all(type(r.label) is int for r in res.splits["train"].records)
    reg = S.generate(small_cfg(task=D.REGRESSION))
    assert all(type(r.label) is float for r in reg.splits["train"].records)
    assert all(r.label > 0 for r in reg.splits["train"].records)


def test_zero_noise_archetypes_are_tight():
    res = S.generate(small_cfg(noise_scale=0.0, n_sequences=60))
    full = D.SequenceDataset(
        [r for s in S.SPLIT_NAMES for r in res.splits[s].records])
    schema = D.fit_field_schema(full)
    flat = D.encode_dataset(schema, full).reshape(len(full.records), -1)
    arch = np.array([res.archetype_of[r.id] for r in full.records])
    within, across = [], []
    for i in range(0, 50, 3):
        for j in range(i + 1, 50, 7):
            sim = similarity_matrix(flat[[i]], flat[[j]], "cosine")[0, 0]
            (within if arch[i] == arch[j] else across).append(sim)
    assert min(within) > max(across)
    # identical sequences within an archetype, up to float rounding
    assert min(within) > 1.0 - 1e-12


def test_realized_positive_rate_near_target():
    res = S.generate(S.GeneratorConfig())
    assert abs(S.realized_positive_rate(res) - 0.10) <= 0.01


def test_same_seed_byte_identical_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    S.write_synth(S.generate(small_cfg()), a)
    S.write_synth(S.generate(small_cfg()), b)
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "archetypes.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # different seed differs
    c = tmp_path / "c"
    S.write_synth(S.generate(small_cfg(seed=8)), c)
    assert (a / "train.jsonl").read_bytes() != (c / "train.jsonl").read_bytes()


def test_written_files_round_trip(tmp_path):
    res = S.generate(small_cfg())
    paths = S.write_synth(res, tmp_path)
    back = D.read_sequences(paths["train"])
    assert back.ids == res.splits["train"].ids
    assert [r.label for r in back.records] == \
        [r.label for r in res.splits["train"].records]
    assert back.records[0].events == res.splits["train"].records[0].events


def test_sidecar_contents(tmp_path):
    from seqrel.ioutil import read_json

    res = S.generate(small_cfg())
    paths = S.write_synth(res, tmp_path)
    side = read_json(paths["sidecar"])
    assert side["format_version"] == 1
    assert side["task"] == "classification"
    assert len(side["archetype_of"]) == 240
    assert len(side["archetype_info"]["propensity"]) == 4
    assert 0.0 < side["realized_positive_rate"] < 1.0


def test_relational_signal_probe_classification():
    res = S.generate(S.GeneratorConfig(n_sequences=3000, seed=1))
    probe = S.relational_signal_probe(res)
    assert probe["probe_metric"] == "auprc"
    assert probe["passes"]
    assert probe["archetype_score"] > probe["baseline_score"]


def test_relational_signal_probe_regression():
    res = S.generate(small_cfg(task=D.REGRESSION, n_sequences=1200, seed=2))
    probe = S.relational_signal_probe(res)
    assert probe["probe_metric"] == "rmse"
    assert probe["passes"]
    assert probe["archetype_score"] < probe["baseline_score"]


def test_propensity_mixture_matches_target():
    cfg = S.GeneratorConfig(n_archetypes=10, pos_rate=0.10)
    props = S._propensities(cfg, np.random.default_rng(0))
    assert len(props) == 10
    assert abs(props.mean() - 0.10) < 1e-12
    assert np.all((props >= 0.0) & (props < 1.0))
    assert props.max() > props.min()


def test_write_demand_csv(tmp_path):
    p = tmp_path / "demand.csv"
    info = S.write_demand_csv(p, n_rows=30, hours=6, n_archetypes=3, seed=1)
    ds = D.read_demand_csv(p)
    assert len(ds.records) == 30
    assert {len(r.events) for r in ds.records} == {6}
    assert all(r.label >= 0.0 for r in ds.records)
    assert len(info["archetype_of"]) == 30
    # same seed, same bytes
    p2 = tmp_path / "demand2.csv"
    S.write_demand_csv(p2, n_rows=30, hours=6, n_archetypes=3, seed=1)
    assert p.read_bytes() == p2.read_bytes()
    with pytest.raises(ConfigError):
        S.write_demand_csv(p, n_rows=2)


def test_demand_series_share_archetype_profile(tmp_path):
    p = tmp_path / "demand.csv"
    info = S.write_demand_csv(p, n_rows=200, hours=8, n_archetypes=4,
                              noise_scale=0.0, seed=3)
    ds = D.read_demand_csv(p)
    arch = info["archetype_of"]
    by_arch = {}
    for r in ds.records:
        by_arch.setdefault(arch[r.id], set()).add(
            tuple(e["demand"] for e in r.events) + (r.label,))
    # zero noise: every row of an archetype is the same series
    assert all(len(v) == 1 for v in by_arch.values())
    assert len({next(iter(v)) for v in by_arch.values()}) == 4
