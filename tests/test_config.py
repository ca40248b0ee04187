import pytest

from seqrel import config as CF
from seqrel.exceptions import ConfigError, ParseError


def test_profile_defaults():
    fraud = CF.profile_config("fraud")
    assert (fraud.task, fraud.metric) == ("classification", "cosine")
    assert (fraud.epsilon, fraud.clusters, fraud.pos_ratio) == (0.95, 500, 0.3)
    assert (fraud.embed_dim, fraud.gnn_hidden) == (256, 32)
    mob = CF.profile_config("mobility")
    assert (mob.task, mob.metric) == ("regression", "pearson")
    assert (mob.epsilon, mob.clusters) == (0.5, 100)
    assert (mob.embed_dim, mob.gnn_hidden) == (64, 16)
    with pytest.raises(ConfigError):
        CF.profile_config("nope")


def test_profile_config_returns_fresh_copy():
    a = CF.profile_config("fraud")
    a.clusters = 9
    assert CF.profile_config("fraud").clusters == 500


def test_parse_config_text():
    text = """
    # comment
    epsilon = 0.5   # trailing comment
    clusters = 64

    conv = gat
    """
    assert CF.parse_config_text(text) == {
        "epsilon": "0.5", "clusters": "64", "conv": "gat"}


def test_parse_config_errors():
    with pytest.raises(ParseError) as err:
        CF.parse_config_text("novalue")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        CF.parse_config_text("a = 1\na = 2")
    with pytest.raises(ParseError):
        CF.parse_config_text("= 3")


def test_apply_overrides_coerces_types():
    cfg = CF.apply_overrides(CF.profile_config("fraud"), {
        "epsilon": "0.8", "clusters": "32", "per_class": "false",
        "conv": "sage_mean", "seed": "3"})
    assert cfg.epsilon == 0.8
    assert cfg.clusters == 32
    assert cfg.per_class is False
    assert cfg.conv == "sage_mean"
    assert cfg.seed == 3


def test_apply_overrides_rejects_bad_input():
    base = CF.profile_config("fraud")
    with pytest.raises(ConfigError):
        CF.apply_overrides(base, {"mystery": "1"})
    with pytest.raises(ConfigError):
        CF.apply_overrides(base, {"clusters": "many"})
    with pytest.raises(ConfigError):
        CF.apply_overrides(base, {"per_class": "maybe"})
    with pytest.raises(ConfigError):
        CF.apply_overrides(base, {"epsilon": "1.5"})
    with pytest.raises(ConfigError):
        CF.apply_overrides(base, {"pos_ratio": "0"})
    with pytest.raises(ConfigError):
        CF.apply_overrides(base, {"task": "ranking"})
    with pytest.raises(ConfigError):
        CF.apply_overrides(base, {"gnn_lr": "0"})
    for removed in ("graph_kind", "knn_k"):
        with pytest.raises(ConfigError, match="unknown config key"):
            CF.apply_overrides(base, {removed: "1"})


def test_config_file_round_trip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("epsilon = 0.25\nmode = medoid\n")
    cfg = CF.apply_overrides(CF.profile_config("mobility"), CF.load_config_file(p))
    assert cfg.epsilon == 0.25
    assert cfg.mode == "medoid"
    with pytest.raises(ConfigError):
        CF.load_config_file(tmp_path / "absent.cfg")


def test_flat_dict_is_json_scalars():
    flat = CF.profile_config("fraud").to_flat_dict()
    assert all(isinstance(v, (str, int, float, bool)) for v in flat.values())
    back = CF.apply_overrides(CF.PipelineConfig(), {k: str(v) for k, v in flat.items()})
    assert back == CF.profile_config("fraud")
