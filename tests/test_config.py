"""Layered JSON configuration: defaults, deep merge, typed accessors."""

import json

import pytest

from percolab import cli
from percolab.config import Config, ConfigError, load_config


def test_defaults_load_and_validate():
    cfg = Config.from_dict({})
    assert cfg.spec().d == 2
    assert cfg.percolation().p == 0.5
    assert cfg.percolation().seed == 2024
    params = cfg.scale_params()
    assert params.mode == "toy" and params.k1 == 1
    ev = cfg.event()
    assert ev.name == "two-east-edges" and ev.L == 1


def test_seed_override_wins():
    cfg = Config.from_dict({})
    assert cfg.percolation(seed=7).seed == 7


def test_deep_merge_preserves_siblings():
    cfg = Config.from_dict({"sample": {"p": 0.55}})
    assert cfg.percolation().p == 0.55
    assert cfg.percolation().seed == 2024  # sibling default untouched
    assert cfg.section("estimation")["n_samples"] == 2000


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="typo_section"):
        Config.from_dict({"typo_section": {}})
    with pytest.raises(ConfigError, match="sample"):
        Config.from_dict({"sample": {"pee": 0.5}})


@pytest.mark.parametrize("section,key", [
    ("supercritical", "r_proxy"),
    ("estimation", "fit_drop_low"),
    ("estimation", "fit_drop_high"),
])
def test_removed_keys_are_unknown(tmp_path, section, key):
    # knobs that nothing read: a config that still sets one is a usage error
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {key: 1}}))
    code = cli.main(["--config", str(path), "--out-dir", str(tmp_path / "out"),
                     "scale-table"])
    assert code == 4
    assert not (tmp_path / "out").exists()


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        Config.from_dict({"lattice": {"d": 0}})
    with pytest.raises(ConfigError):
        Config.from_dict({"sample": {"p": 1.5}})
    with pytest.raises(ConfigError):
        Config.from_dict({"supercritical": {"r_pair": [32, 16]}})
    with pytest.raises(ConfigError):
        Config.from_dict({"supercritical": {"p_list": [0.51, 0.55]}})
    with pytest.raises(ConfigError):
        Config.from_dict({"hopf": {"size_min": 5, "size_max": 3}})


@pytest.mark.parametrize("override,message", [
    ({"p_list": [1.5, 0.5]}, "not a probability"),
    ({"p_list": ["0.5"]}, "not a probability"),
    ({"p_list": []}, "non-empty"),
    ({"r_pair": [-2, 4]}, ">= 0"),
    ({"r_pair": [4.5, 8]}, "integers"),
], ids=["p-above-1", "p-string", "empty-grid", "negative-radius", "float-radius"])
def test_invalid_supercritical_values_rejected(override, message):
    with pytest.raises(ConfigError, match=message):
        Config.from_dict({"supercritical": override})


@pytest.mark.parametrize("override,message", [
    ({"iic": {"n_samples": "5"}}, "iic.n_samples must be an integer"),
    ({"iic": {"n_samples": 2.5}}, "iic.n_samples must be an integer"),
    ({"iic": {"n_samples": True}}, "iic.n_samples must be an integer"),
    ({"iic": {"n_samples": None}}, "iic.n_samples must be an integer"),
    ({"estimation": {"n_samples": 0}}, "estimation.n_samples must be an integer >= 1"),
    ({"battery": {"n_samples": [100]}}, "battery.n_samples must be an integer"),
    ({"hopf": {"size_min": "2"}}, "hopf sizes must be integers"),
    ({"hopf": {"size_max": 8.0}}, "hopf sizes must be integers"),
    ({"hopf": {"size_min": True}}, "hopf sizes must be integers"),
    ({"supercritical": {"r_pair": [False, True]}}, "pair of integers"),
    ({"iic": {"n_list": [True, 8]}}, "family scales must be integers"),
    ({"iic": {"n_list": ["8"]}}, "family scales must be integers"),
    ({"extraction": {"n": 16.5}}, "family scales must be integers"),
], ids=["n-string", "n-float", "n-bool", "n-null", "n-zero", "n-list",
        "size-string", "size-float", "size-bool", "r-pair-bools",
        "scale-bool", "scale-string", "extraction-scale-float"])
def test_non_integer_counts_rejected(override, message):
    with pytest.raises(ConfigError, match=message):
        Config.from_dict(override)


@pytest.mark.parametrize("n_list,message", [
    ([4, 4], "family scales must be strictly increasing"),
    ([8, 4], "family scales must be strictly increasing"),
    ([8, 4.5], "family scales must be integers"),
], ids=["repeated", "decreasing", "decreasing-float"])
def test_non_increasing_scales_rejected(n_list, message):
    with pytest.raises(ConfigError, match=message):
        Config.from_dict({"iic": {"n_list": n_list}})


def test_scales_checked_only_where_read():
    # the spread-out default ladder is refused, but only a subcommand that
    # reads the ladder (or the extraction q_list checked against it) asks
    spread = {"lattice": {"d": 2, "edge_mode": "spread_out", "lam": 1}}
    with pytest.raises(ConfigError, match=r"scales: .*not separated by more than 2\*lam"):
        Config.from_dict(spread)
    cfg = Config.from_dict(spread, scales=False)
    assert cfg.spec().lam == 1
    with pytest.raises(ConfigError, match="not separated"):
        cfg.scale_params()
    out_of_range = {"extraction": {"q_list": [5]}}
    with pytest.raises(ConfigError, match="q_list"):
        Config.from_dict(out_of_range)
    assert Config.from_dict(out_of_range, scales=False)


def test_supercritical_origin_radius_accepted():
    # radius 0: the shell is the origin itself, a defined escape event
    assert Config.from_dict({"supercritical": {"r_pair": [0, 4]}})


def test_families_constructed_from_config():
    cfg = Config.from_dict({"iic": {"families": ["box_boundary",
                                                "vertex_set_with_obstacle"],
                                    "n_list": [4, 8]}})
    fams = cfg.iic_families()
    assert [f.kind for f in fams] == ["box_boundary",
                                     "vertex_set_with_obstacle"]
    assert fams[0].n_list == (4, 8)


@pytest.mark.parametrize("iic", [
    {"families": ["mystery"]},
    {"families": ["interleaved"]},   # needs two member families: not in config
    {"n_list": []},
], ids=["unknown-kind", "interleaved", "empty-scales"])
def test_unbuildable_iic_section_exits_4(tmp_path, iic):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"iic": iic}))
    code = cli.main(["--config", str(path), "--out-dir", str(tmp_path / "out"),
                     "supercritical-sweep"])
    assert code == 4
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override,message", [
    ({"iic": {"families": []}}, "iic.families must be a non-empty list"),
    ({"iic": {"families": ["box_boundary", "box_boundary"]}}, "of distinct family kinds"),
    ({"iic": {"families": "box_boundary"}}, "iic.families must be a non-empty list"),
    ({"iic": {"families": [["box_boundary"]]}}, "iic.families must be a non-empty list"),
    ({"estimation": {"targets": []}}, "estimation.targets must be a non-empty list"),
    ({"regularity": {"s_list": []}}, "regularity: s_list must be a non-empty list of distinct"),
    ({"regularity": {"s_list": [3, 3]}}, "regularity: s_list must be a non-empty list of distinct"),
    ({"regularity": {"K": 4, "s_list": [2, 3]}}, "regularity: s_list needs a scale >= K"),
], ids=["no-family", "repeated-family", "family-string", "family-list", "no-target",
        "no-scale", "repeated-scale", "no-scale-from-K"])
def test_lists_that_compute_nothing_or_repeat_rejected(override, message):
    with pytest.raises(ConfigError, match=message):
        Config.from_dict(override)


def test_faithful_mode_requires_admissible_k1():
    with pytest.raises(ConfigError, match="floor|k1"):
        Config.from_dict({"scales": {"mode": "faithful", "k1": 10}})


def test_custom_event_pattern():
    cfg = Config.from_dict({"event": {
        "name": "custom", "L": 1,
        "pattern": [[[[0, 0], [1, 0]], True]]}})
    ev = cfg.event()
    assert ev.name == "custom"
    assert ev.L == 1


def test_echo_round_trips_to_json(tmp_path):
    cfg = Config.from_dict({"sample": {"seed": 42}})
    blob = json.dumps(cfg.echo(), sort_keys=True)
    again = Config.from_dict(json.loads(blob))
    assert again.percolation().seed == 42
    assert json.dumps(again.echo(), sort_keys=True) == blob


def test_load_config_paths(tmp_path):
    assert load_config(None).percolation().seed == 2024
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"sample": {"seed": 1}}))
    assert load_config(str(p)).percolation().seed == 1
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
