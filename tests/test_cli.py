"""End-to-end CLI runs: exit codes, file sets, deterministic outputs.

Everything here drives ``percolab.cli.main`` in-process with small sample
budgets; the frozen values were recorded once from these exact invocations
and must reproduce byte for byte (the CLI promises deterministic output).
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from percolab import cli
from percolab.estimators import Estimate

PROFILE_HEADER = "observable,scale,value,stderr,n,n_truncated,seed"


def _cfg_file(tmp_path, data):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    return str(p)


def _run(tmp_path, argv, cfg=None, sub="out"):
    out = tmp_path / sub
    args = []
    if cfg is not None:
        args += ["--config", _cfg_file(tmp_path, cfg)]
    args += ["--out-dir", str(out)]
    code = cli.main(args + argv)
    return code, out


def test_estimate_two_point_csv(tmp_path):
    code, out = _run(tmp_path, ["estimate-two-point", "--n-samples", "300"])
    assert code == 0
    lines = (out / "two_point.csv").read_text().splitlines()
    assert lines == [
        PROFILE_HEADER,
        "two_point,1,0.73,0.025632011235952594,300,0,2024",
        "two_point,2,0.62,0.0280237994093116,300,0,2024",
        "two_point,4,0.5266666666666666,0.028826428203351226,300,0,2024",
        "two_point,8,0.41,0.02839600910926276,300,0,2024",
    ]
    blob = json.loads((out / "two_point.json").read_text())
    assert blob["rows"][0]["value"] == 0.73
    assert blob["config"]["sample"]["seed"] == 2024


def test_estimate_one_arm_monotone(tmp_path):
    code, out = _run(tmp_path, ["estimate-one-arm", "--n-samples", "300"])
    assert code == 0
    lines = (out / "one_arm.csv").read_text().splitlines()
    assert lines == [
        PROFILE_HEADER,
        "one_arm,2,0.8466666666666667,0.020802421511466898,300,0,2024",
        "one_arm,4,0.8033333333333333,0.02294841235531621,300,0,2024",
        "one_arm,8,0.75,0.025,300,0,2024",
        "one_arm,16,0.6766666666666666,0.027005486411029452,300,0,2024",
    ]
    vals = [float(l.split(",")[2]) for l in lines[1:]]
    # single-pass estimator: the same samples at every radius, so the
    # observed profile is nonincreasing exactly, not just in expectation
    assert vals == sorted(vals, reverse=True)


def test_find_pc_frozen_value(tmp_path):
    code, out = _run(tmp_path, ["find-pc", "--n-samples", "400"])
    assert code == 0
    blob = json.loads((out / "pc.json").read_text())
    assert blob["p_c"] == 0.4984375
    assert abs(blob["p_c"] - 0.5) < 0.005
    row = (out / "pc.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "p_c" and float(row[2]) == 0.4984375


def test_scan_good_clusters(tmp_path):
    code, out = _run(tmp_path, ["scan-good-clusters", "--n-samples", "8"])
    assert code == 0
    lines = (out / "good_clusters.csv").read_text().splitlines()
    assert lines[0] == "sample,level,q,label,n_vertices,good,failure_reasons"
    goods = [l for l in lines[1:] if l.split(",")[5] == "1"]
    assert goods  # the default wide windows certify some clusters
    # at ladder level 1 the inner window collapses to [1, 1], so most
    # candidates fail on the inner-boundary count; that reason must surface
    assert any("inner boundary too large" in l for l in lines[1:])
    blob = json.loads((out / "good_clusters.json").read_text())
    assert blob["n_good"] == len(goods)
    assert blob["n_candidates"] == len(lines) - 1


def test_scan_good_clusters_reaches_the_minimality_check(tmp_path):
    # q_max = 2 certifies Ann^2 candidates against the Ann^1 scan
    code, out = _run(tmp_path, ["scan-good-clusters", "--n-samples", "5"],
                     cfg={"scales": {"k1": 3, "q_max": 2}})
    assert code == 0
    not_minimal = "not minimal: a component already qualifies in sub-annulus 1"
    assert (out / "good_clusters.csv").read_text().splitlines() == [
        "sample,level,q,label,n_vertices,good,failure_reasons",
        "0,1,1,b4821dfef316,22035,1,",
        f"0,1,2,490feff34d64,56370,0,{not_minimal}",
        "2,1,1,7e4e0bd8896a,30008,1,",
        f"2,1,2,c28b0d90d9fe,100609,0,{not_minimal}",
        "3,1,1,a0214878fc13,17259,1,",
        f"3,1,2,6de64b96c535,48467,0,{not_minimal}",
    ]


#: ``gamma.csv`` of ``extract-kernels --n-samples 150`` at the defaults, less
#: its header: label, q, size, gamma, stderr and count of each D-label.
EXTRACTION_GAMMA_ROWS = [
    "60a51fc76804,1,70,1.0,0.0,1",
    "70302a8d18c0,1,105,1.0,0.0,1",
    "08af5dabbdc1,1,19,1.0,0.0,1",
    "62ed4fe7d747,1,25,1.0,0.0,1",
    "8d86c12b5e37,1,39,1.0,0.0,1",
    "1a5920c4627c,1,146,1.0,0.0,1",
    "154a5aa504fc,1,31,0.0,0.0,1",
    "5a288ae62960,1,116,1.0,0.0,1",
    "30e2421119d1,1,15,1.0,0.0,1",
    "03c05b5e047d,1,82,1.0,0.0,1",
    "a1128f74a0d2,1,96,1.0,0.0,1",
    "ed04cd59f73b,1,60,1.0,0.0,1",
    "ee95a65f5588,1,79,1.0,0.0,1",
    "e5316ec04bef,1,32,1.0,0.0,1",
    "52283311cdaf,1,41,1.0,0.0,1",
    "0aef1fb2196d,1,26,0.0,0.0,1",
    "60bb6d7bb82b,1,40,1.0,0.0,1",
    "67ff25577fe4,1,102,1.0,0.0,1",
    "5370f6febaa6,1,57,1.0,0.0,1",
    "84339b179803,1,49,0.0,0.0,1",
    "81c26c50a26b,1,72,1.0,0.0,1",
    "bc80faf61883,1,31,1.0,0.0,1",
    "534321b2dac5,1,42,1.0,0.0,1",
    "067ba41fbdf7,1,22,1.0,0.0,1",
    "366b97067090,1,98,1.0,0.0,1",
    "b61e7db996aa,1,39,1.0,0.0,1",
    "cdb1310cb8d6,1,30,1.0,0.0,1",
    "d9d6c27fcf31,1,33,0.0,0.0,1",
    "d8084597602b,1,36,0.0,0.0,1",
    "65714d7c2ca1,1,65,1.0,0.0,1",
    "0f630ecb1898,1,43,1.0,0.0,1",
    "e82ab4e37818,1,42,0.0,0.0,1",
    "dc80844b4285,1,58,1.0,0.0,1",
    "62b6b79a14f5,1,39,1.0,0.0,1",
    "f2e5c8e3b28b,1,18,1.0,0.0,1",
    "78c0692f5be1,1,46,1.0,0.0,1",
]


def test_extract_kernels_outputs(tmp_path):
    code, out = _run(tmp_path, ["extract-kernels", "--n-samples", "150"])
    assert code == 0
    klines = (out / "kernels.csv").read_text().splitlines()
    glines = (out / "gamma.csv").read_text().splitlines()
    assert klines[0] == "c_label,d_label,m_hat,stderr,m_event,n"
    assert glines[0] == "d_label,q,n_vertices,gamma,stderr,count"
    # single C-label (the origin side) at level 0: one kernel row per D-label,
    # in the order of the sorted labels; both files are frozen at seed 2024
    assert glines[1:] == EXTRACTION_GAMMA_ROWS
    assert klines[1:] == ["origin,{},0.0,0.0,0.0,150".format(row.split(",")[0])
                          for row in EXTRACTION_GAMMA_ROWS]
    summary = json.loads((out / "extraction.json").read_text())["summary"]
    assert summary["g_violations"] == 0
    assert summary["f_containment_failures"] == 0


@pytest.mark.parametrize("argv,built,written", [
    (["extract-kernels", "--n-samples", "150"], "extract_kernels", lambda ext: ext),
    (["reconstruct-arm", "--n-samples", "40"], "matrix_reconstruction",
     lambda rep: rep.extractions[0]),
], ids=["extract-kernels", "reconstruct-arm"])
def test_each_label_is_keyed_once(tmp_path, monkeypatch, argv, built, written):
    # the files used to key a label once per kernels.csv row it appears in,
    # once for gamma.csv and twice for extraction.json
    results, calls = [], []
    build, key = getattr(cli, built), cli.label_key

    def recorded_build(*args, **kwargs):
        results.append(build(*args, **kwargs))
        return results[-1]

    def counted_key(label):
        calls.append(label)
        return key(label)

    monkeypatch.setattr(cli, built, recorded_build)
    monkeypatch.setattr(cli, "label_key", counted_key)
    code, _ = _run(tmp_path, argv)
    assert code in (0, 3)
    ext = written(results[0])
    assert ext.d_labels
    assert calls == list(ext.c_labels) + list(ext.d_labels)


def test_reconstruct_arm_oracle_tier(tmp_path):
    code, out = _run(tmp_path, ["reconstruct-arm", "--oracle"])
    assert code == 0
    text = (out / "reconstruction_oracle.csv").read_text()
    assert text.splitlines()[0] == "instance,lhs,rhs,defect,ratio,ok"
    assert "diamond,91/512,5/32,11/512,91/80,1" in text
    assert "twin-outer-obstacle,47/256,159/1024,29/1024,188/159,1" in text
    assert "split-annulus,94689/390625,324/3125,54189/390625,1169/500,1" in text
    blob = json.loads((out / "reconstruction_oracle.json").read_text())
    assert blob["all_ok"] is True
    for inst in blob["instances"]:
        assert all(inst["checks"].values())


def test_reconstruct_arm_mc_starved_is_low_confidence(tmp_path):
    code, out = _run(tmp_path, ["reconstruct-arm", "--n-samples", "2"])
    assert code == 3
    summary = json.loads((out / "reconstruction.json").read_text())["summary"]
    assert summary["ratio"] is None
    assert summary["g_violations"] == 0


def test_hopf_demo(tmp_path):
    code, out = _run(tmp_path, ["hopf-demo"])
    assert code == 0
    blob = json.loads((out / "hopf.json").read_text())
    assert blob["kappa"] == 2.0
    assert abs(blob["decay_rate"] - 1 / 3) < 0.1 / 3
    assert blob["exact_path"] is True
    assert blob["contraction"]["failures"] == 0
    widths = blob["widths_by_step"]
    assert all(b <= a for a, b in zip(widths, widths[1:]))


IIC_SMALL = {"iic": {"n_list": [2, 4], "n_samples": 1000}}


def test_iic_converge_reruns_byte_identical(tmp_path):
    code1, out1 = _run(tmp_path, ["iic-converge"], IIC_SMALL, sub="a")
    code2, out2 = _run(tmp_path, ["iic-converge"], IIC_SMALL, sub="b")
    assert code1 == code2 == 0
    for name in ("iic.csv", "iic.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    lines = (out1 / "iic.csv").read_text().splitlines()
    assert lines[0].startswith("family,event,n,conditional")
    assert len(lines) == 5  # 2 families x 2 scales
    blob = json.loads((out1 / "iic.json").read_text())
    assert blob["diagnostic"]["verdict"] in ("consistent", "inconclusive")


def test_iic_converge_single_scale_omits_diagnostic(tmp_path):
    # one point per family leaves no successive gap to test (it used to exit 2)
    code, out = _run(tmp_path, ["iic-converge", "--n-samples", "50"],
                     {"iic": {"n_list": [16]}})
    assert code == 3  # 50 samples accept fewer than 100: low confidence
    blob = json.loads((out / "iic.json").read_text())
    assert len(blob["points"]) == 2
    assert "diagnostic" not in blob


def test_supercritical_sweep(tmp_path):
    cfg = {
        "iic": {"n_list": [2, 4], "n_samples": 1000},
        "supercritical": {"p_list": [0.55, 0.52], "r_pair": [4, 8],
                          "n_samples": 600},
    }
    code, out = _run(tmp_path, ["supercritical-sweep"], cfg)
    assert code == 0
    lines = (out / "supercritical.csv").read_text().splitlines()
    assert len(lines) == 5  # 2 p-values x 2 proxy radii
    blob = json.loads((out / "supercritical.json").read_text())
    assert blob["sensitivity"] is not None
    assert blob["critical"]["n"] == 4


BATTERY_SMALL = {"battery": {"n_samples": 2000, "n_groups": 20,
                             "nofurther_instances": 40}}


def test_oracle_battery_small(tmp_path):
    code, out = _run(tmp_path, ["oracle-battery"], BATTERY_SMALL)
    assert code == 0
    blob = json.loads((out / "battery.json").read_text())
    assert blob["all_ok"] is True
    assert blob["oracle"]["pass_fraction"] == 1.0
    assert blob["oracle"]["max_abs_z"] < 4
    assert blob["two_annulus"]["max_pairs"] <= 1
    assert blob["two_annulus"]["total_violations"] == 0
    assert blob["cluster_exit"]["n_held"] == 40


def test_battery_failure_exits_2(tmp_path, monkeypatch):
    fake = SimpleNamespace(all_hold=False, n_instances=40, n_held=39,
                           worst_margin=-0.125)
    monkeypatch.setattr(cli.bat, "run_nofurther_battery", lambda *a, **k: fake)
    code, out = _run(tmp_path, ["oracle-battery"], BATTERY_SMALL)
    assert code == 2
    blob = json.loads((out / "battery.json").read_text())
    assert blob["all_ok"] is False


def test_scale_table_toy_ladder(tmp_path):
    code, out = _run(tmp_path, ["scale-table", "--i-max", "3"])
    assert code == 0
    assert (out / "scales.csv").read_text() == (
        "i,k,k_star,ell\n1,1,2,1\n2,4,8,4\n3,16,32,16\n"
    )


@pytest.mark.parametrize("argv", [
    [],                                  # no subcommand
    ["frobnicate"],                      # unknown subcommand
    ["--format", "xml", "hopf-demo"],    # bad global flag
    ["hopf-demo", "--n-samples", "xyz"],  # unparseable option value
    # out-of-range integers: 0 used to fall back to the config default, -5
    # wrote nan rows, and --j 0 / --i-max -1 exited 2
    ["hopf-demo", "--n-samples", "0"],
    ["estimate-two-point", "--n-samples", "-5"],
    ["oracle-battery", "--n-samples", "5", "--n-groups", "0"],
    ["reconstruct-arm", "--j", "0"],
    ["scale-table", "--i-max", "-1"],
])
def test_usage_errors_exit_4(tmp_path, argv, capsys):
    code, _ = _run(tmp_path, argv)
    assert code == 4
    assert "config error" in capsys.readouterr().err


def test_config_errors_exit_4(tmp_path, capsys):
    code, _ = _run(tmp_path, ["--config", str(tmp_path / "nope.json"),
                              "hopf-demo"])
    assert code == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["--config", str(bad), "--out-dir", str(tmp_path / "o"),
                     "hopf-demo"]) == 4
    unk = tmp_path / "unk.json"
    unk.write_text(json.dumps({"nonexistent_section": 1}))
    assert cli.main(["--config", str(unk), "--out-dir", str(tmp_path / "o"),
                     "hopf-demo"]) == 4
    capsys.readouterr()


def test_bad_pc_bracket_is_a_config_error(tmp_path, capsys):
    # a bracket that misses the transition is a usage error, not a violation
    code, _ = _run(tmp_path, ["find-pc", "--n-samples", "50"],
                   cfg={"estimation": {"pc_bracket": [0.6, 0.7]}})
    assert code == 4
    err = capsys.readouterr().err
    assert "config error" in err and "does not straddle" in err


def test_bad_supercritical_grid_is_a_config_error(tmp_path, capsys):
    code, out = _run(tmp_path, ["supercritical-sweep", "--n-samples", "5"],
                     cfg={"supercritical": {"p_list": [1.5, 0.5]}})
    assert code == 4
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,cfg", [
    (["iic-converge"], {"iic": {"n_samples": "5"}}),
    (["scale-table"], {"hopf": {"size_min": "2"}}),
    (["iic-converge"], {"iic": {"n_list": [4.5, 8]}}),
    (["extract-kernels"], {"extraction": {"n": 16.5}}),
    (["iic-converge"], {"sample": {"seed": 1.5}}),
    (["find-pc"], {"sample": {"seed": 1.5}}),
    (["iic-converge"], {"lattice": {"edge_mode": "spread_out", "lam": 1.5}}),
    (["scale-table"], {"lattice": {"edge_mode": "spread_out", "lam": 1.5}}),
    (["scale-table"], {"scales": {"k1": 1.5}}),
    (["extract-kernels"], {"scales": {"k1": 1.5}}),
    (["scale-table"], {"scales": {"m": 2.5}}),
    (["extract-kernels"], {"scales": {"m": 2.5}}),
    (["estimate-one-arm"], {"lattice": {"d": True}}),
    (["scale-table"], {"scales": {"k1": True}}),
    (["scan-good-clusters"], {"scales": {"ann_margin": 2.5}}),
    (["iic-converge"], {"event": {"name": "east", "L": 1.5,
                                  "pattern": [[[[0, 0], [1, 0]], True]]}}),
], ids=["n-samples-string", "hopf-size-string", "iic-scale-float",
        "extraction-scale-float", "seed-float-iic", "seed-float-find-pc",
        "lam-float-iic", "lam-float-scale-table", "k1-float-scale-table",
        "k1-float-extract", "m-float-scale-table", "m-float-extract", "d-bool",
        "k1-bool", "ann-margin-float", "event-L-float"])
def test_non_integer_count_is_a_config_error(tmp_path, capsys, argv, cfg):
    # a non-integer count or scale used to escape as a traceback (exit 1); so
    # did a float seed, lam, k1 or m, while d true ran a d = 1 lattice, k1
    # true ran with k1 = 1, and a float ann_margin or event L ran
    code, out = _run(tmp_path, argv, cfg=cfg)
    assert code == 4
    assert "integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,cfg", [
    (["estimate-one-arm"], {"estimation": {"radii": [4, 2]}}),
    (["find-pc"], {"estimation": {"pc_criterion": "foo"}}),
    (["find-pc"], {"estimation": {"pc_bracket": [0.7, 0.3]}}),
    (["find-pc"], {"estimation": {"pc_tol": 0}}),
    (["find-pc"], {"estimation": {"pc_radii": [32, 16]}}),
    (["estimate-two-point"], {"estimation": {"targets": [[1, 0], [1, 0]]}}),
    (["extract-kernels"], {"extraction": {"q_list": [5]}}),
    (["estimate-two-point"], {"estimation": {"targets": [[1, 0, 0]]}}),
    (["estimate-two-point"], {"estimation": {"targets": [[1]]}}),
    (["estimate-two-point"], {"estimation": {"targets": []}}),
    (["extract-kernels"], {"extraction": {"level": -1}}),
    (["extract-kernels"], {"extraction": {"level": "x"}}),
    (["extract-kernels"], {"extraction": {"level": 0.5}}),
    (["extract-kernels"], {"extraction": {"p_c_ref": 0}}),
    (["extract-kernels"], {"extraction": {"p_c_ref": 1.5}}),
    (["reconstruct-arm"], {"extraction": {"p_c_ref": "x"}}),
    (["extract-kernels"], {"extraction": {"q_list": [1, 1]}}),
    (["scan-good-clusters"], {"extraction": {"q_list": [1, 1]}}),
    (["scan-good-clusters"], {"goodness": {"check_minimality": "no"}}),
    (["scan-good-clusters"], {"goodness": {"check_minimality": 0}}),
    (["scan-good-clusters"], {"goodness": {"check_minimality": None}}),
    (["scan-good-clusters"], {"regularity": {"n_inner": 100.5}}),
    (["scan-good-clusters"], {"regularity": {"s_list": [3.5]}}),
    (["scan-good-clusters"], {"regularity": {"K": 2.5}}),
    (["scan-good-clusters"], {"goodness": {"lo": True}}),
], ids=["radii-decreasing", "pc-criterion-unknown", "pc-bracket-reversed",
        "pc-tol-zero", "pc-radii-decreasing", "targets-repeated",
        "q-list-out-of-range", "target-3d-in-2d", "target-1d-in-2d", "targets-empty",
        "level-negative", "level-string", "level-float", "pc-ref-zero", "pc-ref-above-1",
        "pc-ref-string", "q-list-repeated-extract", "q-list-repeated-scan",
        "minimality-string", "minimality-zero", "minimality-null", "n-inner-float",
        "scale-float", "K-float", "lo-bool"])
def test_bad_estimation_or_extraction_value_exits_4(tmp_path, capsys, argv, cfg):
    # each used to exit 2 ("invariant violation"), except pc_tol 0 (it ran,
    # and a negative pc_tol never ends), pc_radii [32, 16] (it ran on radius
    # 16), the wrong-dimension targets: (1, 0, 0) ran as (1, 0) and (1,)
    # escaped as an IndexError, and no targets (exit 0, a header-only CSV);
    # a level "x" or 0.5 and a p_c_ref "x" escaped as a TypeError (exit 1),
    # and a p_c_ref of 0 or 1.5 ran with the likelihood-ratio gate vacuous;
    # a repeated q wrote every record twice and doubled every gamma count,
    # and a check_minimality of "no" ran the check while 0 or null skipped it;
    # an n_inner of 100.5 escaped from the first d = 3 resample as a TypeError
    # (exit 1), while a float scale or K and a boolean lo exited 0
    code, out = _run(tmp_path, argv + ["--n-samples", "5"], cfg=cfg)
    assert code == 4
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


SMALL_BATTERY = {"n_samples": 10, "n_groups": 1, "nofurther_instances": 2}


@pytest.mark.parametrize("argv,cfg", [
    (["oracle-battery"], {"battery": dict(SMALL_BATTERY, n_groups=0)}),
    (["oracle-battery"], {"battery": dict(SMALL_BATTERY, nofurther_instances=0)}),
    (["hopf-demo"], {"hopf": {"seq_len": 0}}),
    (["hopf-demo"], {"hopf": {"seq_len": 2.5}}),
    (["hopf-demo"], {"hopf": {"entry_low": 0}}),
    (["hopf-demo"], {"hopf": {"entry_low": 5.0, "entry_high": 2.0}}),
    (["hopf-demo"], {"hopf": {"rng_seed": -1}}),
    (["hopf-demo"], {"hopf": {"n_kernels": 0}}),
    (["oracle-battery"], {"battery": dict(SMALL_BATTERY, seed=1.5)}),
    (["oracle-battery"], {"battery": dict(SMALL_BATTERY, seed=True)}),
    (["oracle-battery"], {"battery": dict(SMALL_BATTERY, nofurther_seed=1.5)}),
], ids=["n-groups-zero", "nofurther-instances-zero", "seq-len-zero",
        "seq-len-float", "entry-low-zero", "entries-reversed", "rng-seed-negative",
        "n-kernels-zero", "seed-float", "seed-bool", "nofurther-seed-float"])
def test_bad_hopf_or_battery_value_exits_4(tmp_path, capsys, argv, cfg):
    # n_groups 0 (ZeroDivisionError) and seq_len 2.5 (TypeError) escaped with
    # exit 1; seq_len 0, entry_low 0 and rng_seed -1 exited 2; zero
    # nofurther instances or kernels, and reversed entries, exited 0, and so
    # did a battery seed of 1.5, scored as seed 1
    code, out = _run(tmp_path, argv, cfg=cfg)
    assert code == 4
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("families", [[], ["box_boundary", "box_boundary"], "box_boundary"],
                         ids=["empty", "repeated", "string"])
def test_empty_or_repeated_iic_families_exit_4(tmp_path, capsys, families):
    # no family exited 0 with a header-only iic.csv; a repeated one wrote
    # every row twice and dropped the diagnostic; a bare string was read
    # letter by letter ("unknown family kind 'b'")
    code, out = _run(tmp_path, ["iic-converge", "--n-samples", "20"],
                     cfg={"iic": {"families": families}})
    assert code == 4
    assert "iic.families must be a non-empty list of distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("regularity,message", [
    ({"s_list": []}, "s_list must be a non-empty list of distinct scales"),
    ({"s_list": [3, 3]}, "s_list must be a non-empty list of distinct scales"),
    ({"K": 5, "s_list": [3, 4]}, "s_list needs a scale >= K"),
], ids=["empty", "repeated", "none-from-K"])
def test_regularity_scales_that_test_nothing_exit_4(tmp_path, capsys, regularity, message):
    # no scale exited 2 ("max() arg is an empty sequence"); a repeated one
    # exited 0 with the scale twice in every regularity report; none from K
    # up exited 0, every vertex regular untested
    code, out = _run(tmp_path, ["scan-good-clusters", "--n-samples", "2"],
                     cfg={"regularity": regularity})
    assert code == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_oversized_regularity_window_exits_4(tmp_path, capsys):
    # the resampling window B(x; 2 * 90) has 361^3 sites, over the 40 million
    # check_window_size allows; this log base leaves s = 90 unsettled by
    # volume, so the scan's first resampled vertex asks for the window
    code, _ = _run(tmp_path, ["scan-good-clusters", "--n-samples", "6"],
                   cfg={"lattice": {"d": 3}, "sample": {"p": 0.25},
                        "regularity": {"s_list": [3, 90], "log_base": 1e6}})
    assert code == 4
    assert "window with 47045881 sites is too large" in capsys.readouterr().err


@pytest.mark.parametrize("n_list", [[4, 4], [8, 4]], ids=["repeated", "decreasing"])
def test_non_increasing_iic_scales_exit_4(tmp_path, capsys, n_list):
    # both used to exit 3 and write repeated or decreasing rows to iic.csv
    code, out = _run(tmp_path, ["iic-converge", "--n-samples", "20"],
                     cfg={"iic": {"n_list": n_list}})
    assert code == 4
    assert "strictly increasing" in capsys.readouterr().err
    assert not out.exists()


SPREAD_OUT = {"lattice": {"d": 2, "edge_mode": "spread_out", "lam": 1}}


def test_spread_out_sweep_runs_and_reruns_byte_identical(tmp_path):
    # the sweep reads no scale, so the default ladder, which this lattice
    # refuses, used to stop it with exit 4
    runs = [_run(tmp_path, ["supercritical-sweep", "--n-samples", "200"],
                 cfg=SPREAD_OUT, sub=sub) for sub in ("a", "b")]
    assert [code for code, _ in runs] == [0, 0]
    for name in ("supercritical.csv", "supercritical.json"):
        assert (runs[0][1] / name).read_bytes() == (runs[1][1] / name).read_bytes()


@pytest.mark.parametrize("argv", [["scale-table"], ["extract-kernels"],
                                  ["scan-good-clusters"], ["reconstruct-arm"]])
def test_spread_out_default_ladder_refused_where_read(tmp_path, capsys, argv):
    code, out = _run(tmp_path, argv + ["--n-samples", "5"], cfg=SPREAD_OUT)
    assert code == 4
    assert "not separated by more than 2*lam" in capsys.readouterr().err
    assert not out.exists()


def test_spread_out_oracle_reconstruction_runs(tmp_path):
    # the oracle tier reads neither the ladder nor the lattice, so the
    # default ladder this lattice refuses used to stop it with exit 4; the
    # Monte Carlo tier still refuses it (the test above)
    spread = _run(tmp_path, ["reconstruct-arm", "--oracle"], cfg=SPREAD_OUT, sub="spread")
    default = _run(tmp_path, ["reconstruct-arm", "--oracle"], sub="default")
    assert [code for code, _ in (spread, default)] == [0, 0]
    name = "reconstruction_oracle.csv"
    assert (spread[1] / name).read_bytes() == (default[1] / name).read_bytes()


@pytest.mark.parametrize("k1,message", [
    (8, "refusing to enumerate boundaries of a huge region"),
    (16, "radius exponent 33 exceeds materialisation limit"),
], ids=["k1-8", "k1-16"])
def test_oversized_toy_ladder_is_a_config_error(tmp_path, capsys, k1, message):
    # both used to exit 2, "invariant violation"
    code, out = _run(tmp_path, ["scan-good-clusters", "--n-samples", "1"],
                     cfg={"scales": {"k1": k1}})
    assert code == 4
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("edge", [[[0, 0], [2, 0]], [[0, 0, 0], [1, 0, 0]]],
                         ids=["non-edge", "wrong-dimension"])
def test_custom_pattern_non_edge_is_a_config_error(tmp_path, capsys, edge):
    # both passed the load and exited 2 at the event's first reading
    code, out = _run(tmp_path, ["iic-converge", "--n-samples", "10"],
                     cfg={"event": {"name": "bad", "L": 1, "pattern": [[edge, True]]}})
    assert code == 4
    err = capsys.readouterr().err
    assert "config error: event:" in err and "is not an edge" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,cfg,message", [
    (["estimate-two-point"], {"sample": {"p": True}}, "p must be a real number"),
    (["iic-converge"], {"event": {"name": "east", "L": 1,
                                  "pattern": [[[[0, 0], [1, 0]], "no"]]}},
     "pattern state must be true or false"),
], ids=["p-bool", "pattern-state-string"])
def test_boolean_probability_or_string_state_exits_4(tmp_path, capsys, argv, cfg, message):
    # p true ran at p = 1, and the state "no" required the edge open
    code, out = _run(tmp_path, argv + ["--n-samples", "5"], cfg=cfg)
    assert code == 4
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


def test_negative_seeds_run(tmp_path):
    cfg = {"sample": {"seed": -5}, "battery": dict(SMALL_BATTERY, seed=-1, nofurther_seed=-2)}
    assert cli.main(["--config", _cfg_file(tmp_path, cfg), "--out-dir", str(tmp_path / "a"),
                     "estimate-two-point", "--n-samples", "5"]) == 0
    assert cli.main(["--config", _cfg_file(tmp_path, cfg), "--out-dir", str(tmp_path / "b"),
                     "oracle-battery"]) == 0


def test_oversized_window_is_a_config_error(tmp_path, capsys):
    # refused at the first window build, not an invariant violation (exit 2)
    code, out = _run(tmp_path, ["iic-converge", "--n-samples", "5"],
                     cfg={"iic": {"n_list": [5000]}})
    assert code == 4
    err = capsys.readouterr().err
    assert "config error" in err and "too large to materialise" in err
    assert not out.exists()


def test_format_json_suppresses_csv(tmp_path):
    code, out = _run(tmp_path, ["--format", "json", "estimate-two-point",
                                "--n-samples", "50"])
    assert code == 0
    assert sorted(os.listdir(out)) == ["two_point.json"]


def test_faithful_ladder_intrusion_is_a_refusal(tmp_path, capsys):
    # data inside the first scale's ball is a refusal to run (exit 4), not
    # an invariant violation (exit 2)
    code, out = _run(tmp_path, ["extract-kernels"], cfg={"scales": {"k1": 1029}})
    assert code == 4
    err = capsys.readouterr().err
    assert "config error" in err and "intrudes" in err
    assert not out.exists()


#: The exit code of each run, and the first 16 hex digits of the sha256 of
#: every file it writes, recorded when ``write_json`` still copied the whole
#: object tree before encoding it.  The runs cover every subcommand,
#: ``--format json``, ``Fraction`` values (the oracle tier and the battery's
#: ``worst_margin``), big-integer strings (a faithful ladder) and a level-1
#: extraction whose ``extraction.json`` lists 18 MB of label sites.
FROZEN_ARTIFACTS = {
    "two-point": (
        ["estimate-two-point", "--n-samples", "50"], None,
        0, {"two_point.csv": "e5dfc79cc66e9cea", "two_point.json": "6148ec0d5123fc8a"}),
    "one-arm": (
        ["estimate-one-arm", "--n-samples", "50"], None,
        0, {"one_arm.csv": "d741f92b4e5e85b1", "one_arm.json": "72da0b5fc14e4a51"}),
    "find-pc": (
        ["find-pc", "--n-samples", "40"], {"estimation": {"pc_radii": [4, 8]}},
        0, {"pc.csv": "d23957a60c0c4279", "pc.json": "6dc4522c1cbdc998"}),
    "scan": (
        ["scan-good-clusters", "--n-samples", "3"], None,
        0, {"good_clusters.csv": "b3ca49a5e229d978",
            "good_clusters.json": "901c5249e380ffbb"}),
    "scan-d3": (
        ["scan-good-clusters", "--n-samples", "6"],
        {"lattice": {"d": 3}, "sample": {"p": 0.25}, "regularity": {"n_inner": 100}},
        0, {"good_clusters.csv": "fb5a2545bc983ea1",
            "good_clusters.json": "e0a68227f9117a40"}),
    "extract": (
        ["extract-kernels", "--n-samples", "60"], None,
        0, {"extraction.json": "044ee82cc340cb6c", "gamma.csv": "aa89f86b80afbbe2",
            "kernels.csv": "4a7afcf8a7ef7293"}),
    "extract-format-json": (
        ["--format", "json", "extract-kernels", "--n-samples", "60"], None,
        0, {"extraction.json": "044ee82cc340cb6c"}),
    "extract-level-1": (
        ["extract-kernels", "--n-samples", "3"], {"extraction": {"level": 1}},
        0, {"extraction.json": "789aa755cffd7b60", "gamma.csv": "169e6c8799617107",
            "kernels.csv": "c1322205734b14b4"}),
    "reconstruct": (
        ["reconstruct-arm", "--n-samples", "40"], None,
        3, {"gamma.csv": "0a653c23fc118385", "kernels.csv": "0bcffe532cd9dfe4",
            "reconstruction.csv": "6327cfcbb41cc181",
            "reconstruction.json": "8e6197c399dc3f34"}),
    "reconstruct-oracle": (
        ["reconstruct-arm", "--oracle"], None,
        0, {"reconstruction_oracle.csv": "8e73c3dd0e2a9715",
            "reconstruction_oracle.json": "300a88d4f80871c3"}),
    "hopf": (
        ["hopf-demo"], {"hopf": {"n_kernels": 20}},
        0, {"hopf.json": "96efd8d488a146b4", "hopf_bracket.csv": "b892ce146f563236",
            "hopf_contraction.csv": "6f2311134845b2d2"}),
    "iic": (
        ["iic-converge", "--n-samples", "200"], {"iic": {"n_list": [2, 4]}},
        3, {"iic.csv": "4124fd66f60a26e3", "iic.json": "ff6e23734b7875da"}),
    "iic-obstacle-halfspace": (
        ["iic-converge", "--n-samples", "200"],
        {"iic": {"n_list": [2, 4],
                 "families": ["vertex_set_with_obstacle", "halfspace_target"]}},
        0, {"iic.csv": "30d6fb258f7d588f", "iic.json": "fc56b8c8d6e8c559"}),
    "supercritical": (
        ["supercritical-sweep", "--n-samples", "100"],
        {"iic": {"n_list": [2, 4], "n_samples": 200},
         "supercritical": {"p_list": [0.55, 0.52], "r_pair": [4, 8]}},
        3, {"supercritical.csv": "0f56801113bff104",
            "supercritical.json": "e046bff8a1787591"}),
    "battery": (
        ["oracle-battery"], BATTERY_SMALL,
        0, {"battery.json": "24f552cc57331d23", "battery_cells.csv": "cff0bc56de824f8d",
            "y_battery.csv": "b1ee03d78a5e9c7f"}),
    "scale-table-faithful": (
        ["scale-table", "--i-max", "2"], {"scales": {"mode": "faithful", "k1": 1029}},
        0, {"scales.csv": "cb734b1c7739a65e", "scales.json": "212602b3ec70d5e1"}),
}


def _copied_then_encoded(obj):
    """The writer ``write_json`` replaced: copy the tree into plain types,
    then encode the copy as one string."""
    def jsonable(x):
        if isinstance(x, dict):
            return {str(k): jsonable(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [jsonable(v) for v in x]
        if isinstance(x, (frozenset, set)):
            return [jsonable(v) for v in sorted(x)]
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, Estimate):
            return {"value": x.value, "stderr": x.stderr, "n_samples": x.n_samples,
                    "n_truncated": x.n_truncated, "seed": x.seed,
                    "sample_range": list(x.sample_range)}
        if isinstance(x, np.floating):
            return float(x)
        if isinstance(x, np.integer):
            return int(x)
        return x
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def test_write_json_equals_the_copying_writer(tmp_path):
    obj = {
        "fraction": Fraction(-91, 512),
        "estimates": [Estimate(float("nan"), 0.0, 5, 5, 7, (3, 8)),
                      Estimate(0.25, 0.125, 40, seed=-1)],
        "sets": {"frozen": frozenset({(1, 0), (0, 1), (0, -1)}), "plain": {3, 1, 2},
                 "empty": set()},
        "numpy": [np.float32(0.1), np.float64(1 / 3), np.float64("inf"), np.int64(-7),
                  np.int64(2**62)],
        "nested": ((1, (2, (3, ()))), [(4, 5)], {"deep": ((Fraction(1, 3),),)}),
        "plain": [None, True, False, 0, -0.0, 1e300, "text", "ünïcode"],
        "z": {"b": 1, "a": {}, "c": []},
    }
    path = tmp_path / "out.json"
    cli.write_json(str(path), obj)
    assert path.read_text(encoding="utf-8") == _copied_then_encoded(obj)
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli.write_json(str(tmp_path / "bad.json"), {"array": np.arange(3)})
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli.write_json(str(tmp_path / "bad.json"), [object()])


@pytest.mark.parametrize("case", sorted(FROZEN_ARTIFACTS))
def test_artifacts_frozen(tmp_path, capsys, case):
    argv, cfg, code, digests = FROZEN_ARTIFACTS[case]
    got, out = _run(tmp_path, argv, cfg=cfg)
    assert got == code
    assert capsys.readouterr() == ("", "")
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()[:16]
            for f in out.iterdir()} == digests


def _loaded_by_cli_import(module: str) -> bool:
    # a fresh interpreter, so modules the tests import do not count
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = f"import sys, percolab.cli; print({module!r} in sys.modules)"
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return res.stdout.strip() == "True"


def test_cli_import_does_not_load_networkx():
    # networkx is a test-only reference: the package must not import it
    assert not _loaded_by_cli_import("networkx")


def test_cli_import_does_not_load_scipy_special():
    # kernels sums in the log domain itself; scipy.special would add set-up
    # time and memory to every run for nothing
    assert not _loaded_by_cli_import("scipy.special")
