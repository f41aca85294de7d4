"""Command-line surface and file-format tests."""

import json
import time

import numpy as np
import pytest

from bartree import (
    BarParams,
    LineageFormatError,
    NoiseParams,
    ObservedTree,
    ReproductionLaw,
    ValidationError,
    estimate_theta,
    simulate_joint,
)
from bartree.cli import run_cli
from bartree.io import (
    format_real,
    parse_lineage,
    parse_mask,
    write_lineage,
    write_mask,
)

FULL_LAW = {"type0": {"11": 1.0}, "type1": {"11": 1.0}}


def model_doc(**overrides):
    doc = {
        "schema": "bartree-model-v1",
        "bar": {"a": 0.5, "b": 0.3, "c": -0.4, "d": 0.7},
        "noise": {"sigma2": 1.0, "rho": 0.5},
        "law": FULL_LAW,
        "depth": 6,
        "seed": 11,
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def model_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc()))
    return path


# ---------------------------------------------------------------------------
# float formatting and lineage round trip


def test_format_real_round_trips():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 3.141592653589793, 1e300):
        assert float(format_real(x)) == x


def test_lineage_round_trip_exact(tmp_path):
    tree = simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7),
        NoiseParams(1.0, 0.5),
        ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]]),
        depth=8,
        seed=3,
    )
    path = tmp_path / "tree.csv"
    write_lineage(tree, path)
    back = parse_lineage(path)
    assert back.depth == tree.depth
    assert np.array_equal(back.mask.ids(), tree.mask.ids())
    assert np.array_equal(np.concatenate(back.values), np.concatenate(tree.values))


def test_mask_round_trip(tmp_path):
    tree = simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7),
        NoiseParams(1.0, 0.0),
        ReproductionLaw.from_mean_matrix([[0.9, 0.4], [0.3, 0.8]]),
        depth=7,
        seed=5,
    )
    path = tmp_path / "mask.csv"
    write_mask(tree.mask, path)
    back = parse_mask(path)
    assert back.depth == tree.mask.depth
    assert np.array_equal(back.ids(), tree.mask.ids())


# ---------------------------------------------------------------------------
# lineage validation errors


def test_parse_minimal_lineage(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,1.0\n2,3.0\n3,2.0\n")
    tree = parse_lineage(p)
    assert tree.mask.ids().tolist() == [1, 2, 3]
    assert [v.tolist() for v in tree.values] == [[1.0], [3.0, 2.0]]


def test_parse_orphan_names_node_and_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,1.0\n5,2.0\n")
    with pytest.raises(LineageFormatError) as err:
        parse_lineage(p)
    assert "node 5" in str(err.value)
    assert "mother 2" in str(err.value)
    assert "line 2" in str(err.value)


def test_parse_duplicate_id(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,1.0\n2,2.0\n2,3.0\n")
    with pytest.raises(LineageFormatError) as err:
        parse_lineage(p)
    assert "duplicate" in str(err.value) and "line 3" in str(err.value)


def test_parse_missing_root(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("2,1.0\n3,2.0\n")
    with pytest.raises(LineageFormatError) as err:
        parse_lineage(p)
    assert "root" in str(err.value)


def test_parse_malformed_number(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,abc\n")
    with pytest.raises(LineageFormatError) as err:
        parse_lineage(p)
    assert "malformed value" in str(err.value)


def test_lineage_header_and_non_finite_values_exit_2(tmp_path, capsys):
    cases = {
        "# root_type: x\n1,1.0\n2,2.0\n": "line 1",
        "# depth: deep\n1,1.0\n2,2.0\n": "line 1",
        "1,1.0\n2,nan\n": "line 2",
        "1,1.0\n2,2.0\n3,-inf\n": "line 3",
    }
    for i, (text, where) in enumerate(cases.items()):
        p = tmp_path / f"t{i}.csv"
        p.write_text(text)
        capsys.readouterr()
        assert run_cli(["estimate", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and where in err and "Traceback" not in err
    mask = tmp_path / "m.csv"
    mask.write_text("# root_type: odd\n1\n2\n")
    assert run_cli(["gw", "--input", str(mask)]) == 2


def _one_line_exit_2(argv, capsys):
    capsys.readouterr()
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_ids_beyond_capacity_name_their_line(tmp_path, capsys):
    mask = tmp_path / "m.csv"
    mask.write_text("1\n2\n9223372036854775808\n")
    err = _one_line_exit_2(["gw", "--input", str(mask)], capsys)
    assert "line 3: node 9223372036854775808 lies in generation 63" in err
    chain = tmp_path / "chain.csv"
    chain.write_text("".join(f"{2**r},0.5\n" for r in range(64)))
    err = _one_line_exit_2(["estimate", "--input", str(chain)], capsys)
    assert "line 42: node 2199023255552 lies in generation 41" in err
    assert "supported depth of 40" in err


def test_duplicate_mask_id_exits_2(tmp_path, capsys):
    mask = tmp_path / "m.csv"
    mask.write_text("1\n2\n2\n3\n")
    err = _one_line_exit_2(["gw", "--input", str(mask)], capsys)
    assert "line 3: duplicate node id 2 (first seen on line 2)" in err


def test_undecodable_files_and_directories_exit_2(tmp_path, capsys):
    lineage = tmp_path / "t.csv"
    lineage.write_bytes(b"1,1.0\n2,\xff\n")
    mask = tmp_path / "m.csv"
    mask.write_bytes(b"1\n\xfe\n")
    for argv, path in ((["estimate", "--input"], lineage), (["gw", "--input"], mask)):
        err = _one_line_exit_2([*argv, str(path)], capsys)
        assert f"{path}: not UTF-8 text" in err
    out = str(tmp_path / "o.csv")
    for argv in (["estimate", "--input"], ["gw", "--input"], ["verify", "--config"],
                 ["simulate", "--output", out, "--config"]):
        err = _one_line_exit_2([*argv, str(tmp_path)], capsys)
        assert "Is a directory" in err and str(tmp_path) in err


def test_from_pairs_rejects_duplicates_and_non_finite_values():
    with pytest.raises(ValidationError, match="duplicate node ids"):
        ObservedTree.from_pairs([(1, 0.0), (3, 1.0), (2, 2.0), (3, 3.0)])
    with pytest.raises(ValidationError, match="non-finite value at node 2"):
        ObservedTree.from_pairs([(1, 0.0), (2, float("nan"))])
    tree = ObservedTree.from_pairs([(3, 3.0), (1, 1.0), (2, 2.0), (6, 6.0)])
    assert [v.tolist() for v in tree.values] == [[1.0], [2.0, 3.0], [6.0]]


def test_parse_comments_and_blank_lines(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("# header\n\n1,1.0\n# mid comment\n2,3.0\n3,2.0\n")
    assert parse_lineage(p).mask.ids().tolist() == [1, 2, 3]


def test_paper_scale_fixture(tmp_path):
    # 663 observed cells down to generation 9 (1023 would be a full tree):
    # a full tree with 360 deepest cells pruned stays prefix-closed
    ids = list(range(1, 1024 - 360))
    lines = [f"{k},{format_real(0.01 * k)}" for k in ids]
    p = tmp_path / "colony.csv"
    p.write_text("\n".join(lines) + "\n")
    tree = parse_lineage(p)
    assert tree.depth == 9
    assert tree.mask.total_count(9) == 663
    est = estimate_theta(tree, 9)
    assert est.t_star == 663


# ---------------------------------------------------------------------------
# CLI subcommands


def test_simulate_estimate_flow(tmp_path, model_config, capsys):
    out = tmp_path / "tree.csv"
    assert run_cli(["simulate", "--config", str(model_config), "--output", str(out)]) == 0
    report_path = tmp_path / "report.json"
    rc = run_cli([
        "estimate", "--input", str(out), "--depth", "6", "--level", "0.95",
        "--output", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["kind"] == "estimate"
    assert set(report["theta"]) == set("abcd")
    for entry in report["theta"].values():
        assert entry["ci_low"] <= entry["estimate"] <= entry["ci_high"]
    assert set(report["wald"]) == {"pair", "intercept", "slope"}
    assert report["wald"]["pair"]["df"] == 2
    assert report["counts"]["observed"] == 2**7 - 1
    assert report["growth_rate"]["estimate"] == 2.0


def test_simulate_deterministic_bytes(tmp_path, model_config):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["simulate", "--config", str(model_config), "--output", str(a)]) == 0
    assert run_cli(["simulate", "--config", str(model_config), "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert run_cli([
        "simulate", "--config", str(model_config), "--output", str(c), "--seed", "12",
    ]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_estimate_zero_noise_fixture(tmp_path):
    cfg = model_doc(
        bar={"a": 1.0, "b": 0.5, "c": 2.0, "d": 0.25},
        noise={"sigma2": 0.0, "rho": 0.0},
        depth=4,
        seed=0,
    )
    cfg_path = tmp_path / "zero.json"
    cfg_path.write_text(json.dumps(cfg))
    tree_path = tmp_path / "zero.csv"
    assert run_cli(["simulate", "--config", str(cfg_path), "--output", str(tree_path)]) == 0
    report_path = tmp_path / "zero.report.json"
    assert run_cli([
        "estimate", "--input", str(tree_path), "--output", str(report_path),
    ]) == 0
    report = json.loads(report_path.read_text())
    expected = {"a": 1.0, "b": 0.5, "c": 2.0, "d": 0.25}
    for name, target in expected.items():
        entry = report["theta"][name]
        assert abs(entry["estimate"] - target) < 1e-10
        assert entry["ci_high"] - entry["ci_low"] == 0.0
    assert report["sigma2"]["estimate"] == 0.0


def test_estimate_round_trip_matches_in_memory(tmp_path, model_config):
    out = tmp_path / "tree.csv"
    run_cli(["simulate", "--config", str(model_config), "--output", str(out)])
    parsed = parse_lineage(out)
    direct = simulate_joint(
        BarParams(0.5, 0.3, -0.4, 0.7),
        NoiseParams(1.0, 0.5),
        ReproductionLaw.full_observation(),
        depth=6,
        seed=11,
    )
    est_file = estimate_theta(parsed, 6)
    est_mem = estimate_theta(direct, 6)
    assert np.array_equal(est_file.theta_hat, est_mem.theta_hat)
    assert est_file.sigma2_hat == est_mem.sigma2_hat


def test_noise_sidecar_and_mask_export(tmp_path, model_config):
    out = tmp_path / "tree.csv"
    eps = tmp_path / "eps.csv"
    mask = tmp_path / "mask.csv"
    rc = run_cli([
        "simulate", "--config", str(model_config), "--output", str(out),
        "--noise-output", str(eps), "--mask-output", str(mask),
    ])
    assert rc == 0
    assert eps.exists() and mask.exists()
    rows = [l for l in eps.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) == 2**7 - 2  # every observed non-root cell


def test_gw_subcommand(tmp_path, model_config):
    mask = tmp_path / "mask.csv"
    run_cli(["simulate", "--config", str(model_config), "--output", str(tmp_path / "t.csv"),
             "--mask-output", str(mask)])
    report_path = tmp_path / "gw.json"
    assert run_cli(["gw", "--input", str(mask), "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["kind"] == "gw"
    assert report["growth_rate"]["estimate"] == 2.0
    assert report["counts"]["per_generation"] == [2**n for n in range(7)]
    assert not report["extinct_by_depth"]


def test_gw_extinct_mask_exits_3(tmp_path):
    mask = tmp_path / "mask.csv"
    mask.write_text("1\n")
    assert run_cli(["gw", "--input", str(mask)]) == 3


def test_level_outside_unit_interval_exits_2(tmp_path, model_config, capsys):
    lineage, mask = tmp_path / "t.csv", tmp_path / "m.csv"
    assert run_cli(["simulate", "--config", str(model_config), "--output", str(lineage),
                    "--mask-output", str(mask)]) == 0
    for level in ("1.5", "-1", "nan", "0"):
        for argv in (["gw", "--input", str(mask)], ["estimate", "--input", str(lineage)]):
            err = _one_line_exit_2([*argv, "--level", level], capsys)
            assert "confidence level must be in (0, 1)" in err


def _verify_doc(**overrides):
    doc = {
        "schema": "bartree-mc-v1",
        "model": model_doc(),
        "depths": [5],
        "replicates": 5,
        "seed": 3,
        "checks": ["limit_matrices"],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def no_simulation(monkeypatch):
    """Make ``verify`` fail the test if it simulates anything."""
    from bartree import mc

    def simulate(*args, **kwargs):
        raise AssertionError("verify simulated before rejecting its config")

    monkeypatch.setenv("BARTREE_THREADS", "1")
    monkeypatch.setattr(mc, "simulate_joint", simulate)


def test_non_gaussian_noise_family_exits_2(tmp_path, capsys, no_simulation):
    # the Gaussian is the only noise law: another family is no silent no-op
    noise = dict(model_doc()["noise"], family="laplace")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc(noise=noise)))
    out = tmp_path / "o.csv"
    err = _one_line_exit_2(["simulate", "--config", str(path), "--output", str(out)], capsys)
    assert "unsupported noise family 'laplace'" in err and not out.exists()
    path.write_text(json.dumps(_verify_doc(model=model_doc(noise=noise))))
    err = _one_line_exit_2(["verify", "--config", str(path)], capsys)
    assert "unsupported noise family 'laplace'" in err


@pytest.mark.parametrize("level", [1.5, 0, -1, float("nan")])
def test_verify_level_outside_unit_interval_exits_2(tmp_path, capsys, no_simulation, level):
    # rejected at load, whether or not a check reads the level
    path = tmp_path / "mc.json"
    for checks in (["qsl"], ["clt"]):
        path.write_text(json.dumps(_verify_doc(checks=checks, level=level)))
        err = _one_line_exit_2(["verify", "--config", str(path)], capsys)
        assert "confidence level must be in (0, 1)" in err


def test_verify_clt_without_noise_exits_2(tmp_path, capsys, no_simulation):
    # a zero CLT covariance would scale every deviation to infinity
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(_verify_doc(
        checks=["clt"], model=model_doc(noise={"sigma2": 0.0, "rho": 0.0}),
    )))
    err = _one_line_exit_2(["verify", "--config", str(path)], capsys)
    assert "clt needs sigma2 > 0" in err


def test_verify_critical_law_exits_3_at_once(tmp_path, capsys, no_simulation):
    # growth rate 1: rejected as not supercritical, before any extinction
    # fixed-point iteration (which converges sublinearly there)
    law = {"11": 0.25, "10": 0.25, "01": 0.25, "00": 0.25}
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(_verify_doc(
        checks=["clt"], depths=[4], replicates=10,
        model=model_doc(law={"type0": law, "type1": law}),
    )))
    capsys.readouterr()
    start = time.perf_counter()
    assert run_cli(["verify", "--config", str(path)]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "experiment requires a supercritical law, growth rate 1.0" in err


def test_verify_consistency_rate_below_depth_2_exits_2(tmp_path, capsys, no_simulation):
    # at depth 1 the rate divides by log 1 = 0 and would pass vacuously
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(_verify_doc(checks=["consistency_rate"], depths=[1, 3, 5])))
    err = _one_line_exit_2(["verify", "--config", str(path)], capsys)
    assert "consistency_rate needs depths >= 2" in err


def test_validation_exit_codes(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,1.0\n5,2.0\n")
    assert run_cli(["estimate", "--input", str(bad)]) == 2
    assert run_cli(["estimate", "--input", str(tmp_path / "missing.csv")]) == 2
    assert run_cli(["estimate", "--no-such-flag"]) == 2
    assert run_cli(["nonsense"]) == 2


def test_depth_beyond_capacity(tmp_path):
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(model_doc(depth=41)))
    assert run_cli(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o.csv")]) == 2


def test_bad_config_schema(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(model_doc(schema="wrong")))
    assert run_cli(["simulate", "--config", str(p), "--output", str(tmp_path / "o.csv")]) == 2
    p2 = tmp_path / "invalid.json"
    p2.write_text("{not json")
    assert run_cli(["simulate", "--config", str(p2), "--output", str(tmp_path / "o.csv")]) == 2


def test_verify_subcommand(tmp_path):
    doc = {
        "schema": "bartree-mc-v1",
        "model": model_doc(noise={"sigma2": 1.0, "rho": 0.0}),
        "depths": [7],
        "replicates": 30,
        "seed": 4,
        "checks": ["qsl", "variance_estimators"],
    }
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "verify.json"
    csv = tmp_path / "reps.csv"
    rc = run_cli(["verify", "--config", str(cfg), "--output", str(out),
                  "--replicate-csv", str(csv)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "verify"
    names = [r["check"] for r in report["reports"]]
    assert names == ["qsl", "variance_estimators"]
    # full-observation unit-variance experiment: target 4 sigma2, with the
    # printed constant 4 sigma2 (pi - 1) / pi alongside
    qsl_check = next(c for c in report["reports"][0]["checks"] if c["name"] == "qsl_mean")
    assert qsl_check["target"] == 4.0
    assert qsl_check["detail"]["printed_constant"] == 2.0
    lines = csv.read_text().splitlines()
    assert lines[0] == "check,depth,replicate,seed,survived,stat,value"
    assert len(lines) > 30
    assert {line.split(",")[0] for line in lines[1:]} == set(names)


def test_verify_unknown_check(tmp_path):
    doc = {
        "schema": "bartree-mc-v1",
        "model": model_doc(),
        "depths": [6],
        "replicates": 5,
        "seed": 4,
        "checks": ["bogus"],
    }
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["verify", "--config", str(cfg)]) == 2


def test_verify_deterministic(tmp_path):
    doc = {
        "schema": "bartree-mc-v1",
        "model": model_doc(),
        "depths": [7],
        "replicates": 24,
        "seed": 9,
        "checks": ["clt"],
    }
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(doc))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["verify", "--config", str(cfg), "--output", str(a)]) == 0
    assert run_cli(["verify", "--config", str(cfg), "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_rejects_survival_override(tmp_path, capsys):
    # extinct replicates are always discarded: the policy is not a setting
    doc = {
        "schema": "bartree-mc-v1",
        "model": model_doc(),
        "depths": [6],
        "replicates": 10,
        "seed": 2,
        "checks": ["qsl"],
    }
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(dict(doc, condition_on_survival=True)))
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--config", str(ok), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["reports"][0]["config"]["condition_on_survival"] is True
    for value in (False, "false"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(doc, condition_on_survival=value)))
        capsys.readouterr()
        assert run_cli(["verify", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "condition_on_survival" in err
    assert run_cli(["verify", "--config", str(ok), "--condition-on-survival", "0"]) == 2


def test_verify_rejects_mistyped_config_fields(tmp_path, capsys):
    doc = {
        "schema": "bartree-mc-v1",
        "model": model_doc(),
        "depths": [6],
        "replicates": 10,
        "seed": 2,
        "checks": ["qsl"],
    }
    bad = {
        # the replicate seeds run from seed to seed + 10 - 1: past 2^64 - 1 here
        "seed": ["abc", True, 2.0, -1, 2**64 - 2],
        "replicates": [4.7, "10", False],
        "depths": [[5.9], 6, ["6"], [True]],
        "checks": ["clt", [1], [["qsl"]]],
        "level": ["high", None],
    }
    path = tmp_path / "bad.json"
    for key, values in bad.items():
        for value in values:
            path.write_text(json.dumps(dict(doc, **{key: value})))
            capsys.readouterr()
            assert run_cli(["verify", "--config", str(path)]) == 2, (key, value)
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and key in err, (key, value, err)


def test_simulate_rejects_mistyped_config_fields(tmp_path, capsys):
    bad = {"seed": ["abc", 1.5, True, -1, 2**64], "depth": ["6", 6.0], "root_type": ["odd"],
           "x1": ["0"]}
    bad_bar = {"b": ["0.3", None], "allow_unstable": ["false", 0]}
    bad_noise = {"sigma2": ["1"], "rho": [False]}
    docs = [(key, model_doc(**{key: v})) for key, values in bad.items() for v in values]
    docs += [(key, model_doc(bar=dict(model_doc()["bar"], **{key: v})))
             for key, values in bad_bar.items() for v in values]
    docs += [(key, model_doc(noise=dict(model_doc()["noise"], **{key: v})))
             for key, values in bad_noise.items() for v in values]
    docs += [("type0", model_doc(law={"type0": {"11": v}, "type1": {"11": 1.0}}))
             for v in ("1.0", True, None)]
    docs += [("type1", model_doc(law={"type0": {"11": 1.0}, "type1": [1.0]}))]
    path = tmp_path / "bad.json"
    for key, doc in docs:
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run_cli(["simulate", "--config", str(path), "--output", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1 and key in err, (key, doc, err)


def test_seed_range_edges(tmp_path, capsys):
    # seeds are the first word of a 64-bit Philox key: 2^64 - 1 is the last
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc(seed=2**64 - 1, depth=3)))
    assert run_cli(["simulate", "--config", str(path), "--output", str(tmp_path / "o.csv")]) == 0
    capsys.readouterr()
    rc = run_cli(["simulate", "--config", str(path), "--output", str(tmp_path / "o.csv"),
                  "--seed", str(2**64)])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and "seed" in err, err
    doc = {
        "schema": "bartree-mc-v1",
        "model": model_doc(),
        "depths": [3, 4],
        "replicates": 4,
        "seed": 2**64 - 8,  # replicate seeds 2^64 - 8 .. 2^64 - 1
        "checks": ["consistency_rate"],
    }
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["verify", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 0
    cfg.write_text(json.dumps(dict(doc, seed=2**64 - 7)))
    capsys.readouterr()
    assert run_cli(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "2^64" in err, err


@pytest.mark.parametrize("magnitude", ["1.7e308", "1e150"])
def test_estimate_overflowing_values_exit_3(tmp_path, capsys, magnitude):
    # near the largest double the squares overflow (1.7e308), or the fit
    # and its residuals do (1e150); the finite gate turns either into exit 3
    p = tmp_path / "big.csv"
    p.write_text("".join(f"{k},{'-' if k % 2 else ''}{magnitude}\n" for k in range(1, 8)))
    capsys.readouterr()
    assert run_cli(["estimate", "--input", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "too large" in err, err


def test_threads_env_respected(tmp_path, monkeypatch, model_config):
    monkeypatch.setenv("BARTREE_THREADS", "1")
    doc = {
        "schema": "bartree-mc-v1",
        "model": model_doc(),
        "depths": [6],
        "replicates": 12,
        "seed": 2,
        "checks": ["qsl"],
    }
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--config", str(cfg), "--output", str(out)]) == 0
