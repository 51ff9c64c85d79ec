import contextlib
import gc
import io
import json
import weakref

import pytest
from click.testing import CliRunner

from torelli import config_to_json, standard_grid
from torelli.cli import main

CFG21 = '{"n":2,"b":1,"partition":[[1]]}'
CFG31 = '{"n":3,"b":1,"partition":[[1]]}'
CFG22 = '{"n":2,"b":2,"partition":[[1,2]]}'


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_word_reduce_example(runner):
    result = invoke(runner, "word", "reduce", "--n", "1",
                    "--word", "x1 x1^-1")
    assert result.exit_code == 0
    assert result.output.strip() == '{"word":"e"}'


def test_rho_example(runner):
    result = invoke(runner, "rho", "--n", "2",
                    "--word", "x1 x2 x1^-1 x2^-1")
    assert result.exit_code == 0
    assert result.output.strip() == '{"coeffs":[[1,2,1]]}'


def test_rank_example(runner):
    result = invoke(runner, "rank", "--config", CFG31)
    assert result.exit_code == 0
    assert result.output.strip() == \
        '{"computed_rank":9,"formula_rank":9,"match":true}'


def test_word_mul_and_inv(runner):
    result = invoke(runner, "word", "mul", "--n", "2",
                    "--word", "x1 x2", "--other", "x2^-1 x1")
    assert json.loads(result.output) == {"word": "x1 x1"}
    result = invoke(runner, "word", "inv", "--n", "2", "--word", "x1 x2")
    assert json.loads(result.output) == {"word": "x2^-1 x1^-1"}


def test_usage_error_exit_2(runner):
    result = invoke(runner, "word", "reduce", "--n", "1", "--word", "x2")
    assert result.exit_code == 2
    assert "token 1" in result.output


@pytest.mark.parametrize("word", ["x\u0663", "x01"])
def test_word_index_must_be_plain_ascii_exit_2(runner, word):
    result = invoke(runner, "word", "reduce", "--n", "3", "--word", word)
    assert result.exit_code == 2
    assert "cannot read" in result.output


def test_domain_error_exit_1(runner):
    result = invoke(runner, "rho", "--n", "2", "--word", "x1")
    assert result.exit_code == 1
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert "abelianization" in payload["error"]


@pytest.mark.parametrize("config_text", [
    '{"n":"2","b":1,"partition":[[1]]}',
    '{"n":2,"b":1.0,"partition":[[1]]}',
    '{"n":2,"b":1,"partition":[1]}',
    '{"n":true,"b":1,"partition":[[1]]}',
])
def test_config_field_types_exit_1(runner, config_text):
    result = invoke(runner, "rank", "--config", config_text)
    assert result.exit_code == 1
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert "error" in payload


def test_rank_n1_without_boundary(runner):
    config = '{"n":1,"b":0,"partition":[]}'
    result = invoke(runner, "rank", "--config", config)
    assert result.output.strip() == \
        '{"computed_rank":0,"formula_rank":0,"match":true}'
    result = invoke(runner, "verify", "--config", config, "--all")
    data = json.loads(result.output)
    assert data["ok"] is True
    assert all(c["ok"] for c in data["checks"])


def test_gens_and_reduced(runner):
    result = invoke(runner, "gens", "--config", CFG21)
    data = json.loads(result.output)
    assert data["count"] == 5
    assert data["generators"][0] == "HD:1,2"
    result = invoke(runner, "gens", "--config", CFG21, "--reduced")
    assert json.loads(result.output)["count"] == 2


def test_tau_subcommand(runner):
    result = invoke(runner, "tau", "--config", CFG21, "--drags", "HD:1,2")
    data = json.loads(result.output)
    assert data["rank"] == 3
    assert data["columns"][0] == [[1, 2, -1]]
    assert data["columns"][1] == []


def test_realize_subcommand(runner):
    result = invoke(runner, "realize", "--config", CFG21,
                    "--drags", "HD:1,2")
    data = json.loads(result.output)
    assert data["rank"] == 3
    assert data["basis"] == ["loop:1", "loop:2", "handle:1"]
    assert data["images"] == ["x2 x1 x2^-1", "x2", "x3"]
    assert data["inverse_images"] == ["x2^-1 x1 x2", "x2", "x3"]


def test_verify_single_config(runner):
    result = invoke(runner, "verify", "--config", CFG22, "--all")
    data = json.loads(result.output)
    assert data["ok"] is True
    assert data["configs"] == 1
    names = {c["check"] for c in data["checks"]}
    assert {"membership", "pd_relation", "bcd_relation",
            "tau_table", "rank"} <= names


@pytest.mark.slow
def test_verify_sweep_n2_to_5_b_up_to_4(runner):
    # the checks of `torelli verify --all` on every configuration with
    # n in 2..5 and b <= 4; every failing check is reported
    total, failures = 0, []
    for config in standard_grid(ns=(2, 3, 4, 5), bs=(0, 1, 2, 3, 4)):
        text = json.dumps(config_to_json(config), separators=(",", ":"))
        result = invoke(runner, "verify", "--all", "--config", text)
        assert result.exit_code == 0, result.output
        checks = json.loads(result.output)["checks"]
        total += len(checks)
        failures.extend(c for c in checks if not c["ok"])
    print(f"verify sweep: {total} checks, {len(failures)} failed")
    assert not failures, failures


def test_verify_membership_mode(runner):
    result = invoke(runner, "verify", "--config", CFG21, "--membership")
    data = json.loads(result.output)
    assert data["ok"] is True
    assert all(c["check"] == "membership" for c in data["checks"])


def test_rewrite_subcommand(runner):
    result = invoke(runner, "rewrite", "--n", "2",
                    "--word", "x1 x2 x1^-1 x2^-1")
    data = json.loads(result.output)
    assert data["factors"] == [{"factor": "T:1,2:[0,0]", "exp": 1}]


def test_push_subcommand(runner):
    result = invoke(runner, "push", "--config", CFG22,
                    "--boundary", "1,2", "--gamma", "x1")
    data = json.loads(result.output)
    assert data["membership"] is False
    assert data["images"][2] == "x1^-1 x3"
    result = invoke(runner, "push", "--config", CFG22,
                    "--boundary", "1,2", "--gamma", "x1 x2 x1^-1 x2^-1")
    assert json.loads(result.output)["membership"] is True


def test_push_bad_boundary_text_exit_2(runner):
    result = invoke(runner, "push", "--config", CFG22,
                    "--boundary", "1-2", "--gamma", "x1")
    assert result.exit_code == 2


def test_push_factor_subcommand(runner):
    result = invoke(runner, "push-factor", "--config", CFG22,
                    "--boundary", "1,2", "--word", "x1 x2 x1^-1 x2^-1")
    data = json.loads(result.output)
    assert data["matches_push"] is True
    assert data["drags"] == "BCD:1,2,1,2^-1"


def test_fs_subcommand(runner, tmp_path):
    result = invoke(runner, "fs", "--n", "2", "--bound", "1", "--homology")
    data = json.loads(result.output)
    assert len(data["vertices"]) == 4
    assert len(data["edges"]) == 5
    assert data["connected"] is True
    assert data["h1_rank"] == 2
    dot = tmp_path / "fs.dot"
    result = invoke(runner, "fs", "--n", "2", "--bound", "1",
                    "--dot", str(dot))
    assert dot.read_text().startswith("graph fs {")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_fs_rejects_n_below_1(runner, n):
    result = invoke(runner, "fs", "--n", n, "--bound", "1")
    assert result.exit_code == 1
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["error"] == "n must be >= 1"


def test_complete_basis_subcommand(runner):
    result = invoke(runner, "complete-basis", "--n", "2",
                    "--vectors", "[[2,3]]")
    data = json.loads(result.output)
    assert data["matrix"][0] == [2, 3]
    assert data["det"] in (1, -1)
    result = invoke(runner, "complete-basis", "--n", "2",
                    "--vectors", "[[2,4]]")
    assert result.exit_code == 1
    result = invoke(runner, "complete-basis", "--n", "2",
                    "--vectors", "not json")
    assert result.exit_code == 2
    for bad in ("[[true,false]]", '[["a",1]]', "[[1.5,1]]"):
        result = invoke(runner, "complete-basis", "--n", "2",
                        "--vectors", bad)
        assert result.exit_code == 2
        assert "vector entries must be integers" in result.output


def test_output_is_byte_stable(runner):
    for args in (("rank", "--config", CFG31),
                 ("gens", "--config", CFG21),
                 ("fs", "--n", "2", "--bound", "1"),
                 ("verify", "--config", CFG21, "--all")):
        first = invoke(runner, *args).output
        second = invoke(runner, *args).output
        assert first == second


def test_human_output_mode(runner):
    result = invoke(runner, "--output", "human", "rank", "--config", CFG31)
    assert result.exit_code == 0
    assert "computed_rank: 9" in result.output


@pytest.mark.parametrize("args", [
    ("rank", "--config", CFG21),
    ("--output", "human", "rank", "--config", CFG21),
    ("rho", "--n", "2", "--word", "x1"),
])
def test_in_process_streams_are_released(args):
    # click caches a wrapper per default stream that keeps its stream
    # alive; every invocation must leave its buffers collectable
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit):
            main.main(args=list(args), prog_name="torelli")
    assert out.getvalue() or err.getvalue()
    refs = weakref.ref(out), weakref.ref(err)
    del out, err
    gc.collect()
    assert all(ref() is None for ref in refs)
