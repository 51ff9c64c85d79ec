import contextlib
import gc
import hashlib
import io
import json
import pathlib
import random
import weakref

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli import (
    all_generators,
    build_basis,
    config_from_json,
    config_to_json,
    drags,
    johnson,
    lattice,
    rewriter,
    standard_grid,
    words,
)
from torelli import cli
from torelli.cli import main
from torelli.drags import _drag_action, _push_action

GOLDEN = pathlib.Path(__file__).parent / "golden"
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


@pytest.mark.parametrize("word", ["x\u0663", "x01", "x+1", "x1_0"])
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


def test_verify_builds_actions_once_and_checks_homology_once(runner,
                                                              monkeypatch):
    # one action per generator and sign for the whole configuration, and
    # one homology check and one certificate check per generator, both on
    # moved images; their whole-map wrappers never run
    calls = {"_drag_action": 0, "_homology_trivial": 0, "_certified": 0,
             "is_homology_trivial": 0, "verify_certificate": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    for name in ("_drag_action", "_homology_trivial", "_certified"):
        monkeypatch.setattr(drags, name, counted(name, getattr(drags, name)))
    trivial = counted("is_homology_trivial", words.is_homology_trivial)
    for module in (words, drags, johnson):
        monkeypatch.setattr(module, "is_homology_trivial", trivial)
    monkeypatch.setattr(words, "verify_certificate", counted(
        "verify_certificate", words.verify_certificate))
    config = '{"n":3,"b":2,"partition":[[1],[2]]}'
    result = invoke(runner, "verify", "--all", "--config", config)
    count = len(all_generators(config_from_json(config)))
    assert calls == {"_drag_action": 2 * count, "_homology_trivial": count,
                     "_certified": count, "is_homology_trivial": 0,
                     "verify_certificate": 0}
    assert result.output == (GOLDEN / "verify_n3_b2.json").read_text()


def test_verify_reports_a_generator_outside_torelli(runner,
                                                   hd12_transvection):
    # the parent raised PreconditionError out of tau and exited 1
    config = '{"n":3,"b":2,"partition":[[1],[2]]}'
    result = invoke(runner, "verify", "--all", "--config", config)
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["ok"] is False
    failed = [(c["check"], c["detail"]) for c in out["checks"]
              if not c["ok"] and c["check"] in ("membership", "tau_table",
                                                "rank")]
    assert failed == [
        ("membership", "HD:1,2"), ("tau_table", "HD:1,2"),
        ("rank", "not computed: 1/24 generators failed membership")]


def _count_image_realizations(monkeypatch) -> list:
    """Record the ``Action`` sequence of every realization: every call of
    the one loop ``drags._accumulate``, on a dense or a sparse table."""
    seen: list = []
    loop = drags._accumulate

    def counted(actions):
        actions = tuple(actions)
        seen.append(actions)
        return loop(actions)

    monkeypatch.setattr(drags, "_accumulate", counted)
    return seen


def test_verify_relations_realize_no_inverse_word(runner, monkeypatch):
    seen = _count_image_realizations(monkeypatch)
    config = '{"n":3,"b":2,"partition":[[1],[2]]}'
    result = invoke(runner, "verify", "--relations", "--config", config)
    # one realization per displayed product, none for its inverse: 3 PD
    # relations, two sides of each of the 2 x 3 BCD relations, and the
    # target and 8 candidates of each of the 3 CD identities (the parent
    # made twice as many calls)
    assert len(seen) == 3 + 2 * 6 + 9 * 3
    golden = json.loads((GOLDEN / "verify_n3_b2.json").read_text())
    relations = {"pd_relation", "bcd_relation", "cd_identity"}
    assert json.loads(result.output)["checks"] == [
        c for c in golden["checks"] if c["check"] in relations]


def test_verify_all_runs_no_smith_form(runner, monkeypatch):
    # every reduced set of the rank check spans a summand, which the
    # primitive-quotient test decides with no Smith form
    calls = []
    real = lattice.snf

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(lattice, "snf", counted)
    config = '{"n":3,"b":2,"partition":[[1],[2]]}'
    result = invoke(runner, "verify", "--all", "--config", config)
    assert calls == []
    assert result.output == (GOLDEN / "verify_n3_b2.json").read_text()


def test_rank_realizes_images_once_per_generator(runner, monkeypatch):
    # tau reads the moved images only, so no inverse word is realized:
    # one realization per generator
    seen = _count_image_realizations(monkeypatch)
    config = '{"n":3,"b":2,"partition":[[1],[2]]}'
    result = invoke(runner, "rank", "--config", config)
    basis = build_basis(config_from_json(config))
    gens = all_generators(basis.config)
    assert seen == [(_drag_action(basis, g, 1),) for g in gens]
    assert result.output == \
        '{"computed_rank":12,"formula_rank":12,"match":true}\n'


def test_standard_grid_verify_stdout_is_pinned(runner):
    # `torelli verify` over the standard grid, n in {2, 3} and b <= 3
    out = invoke(runner, "verify").output.encode()
    assert len(out) == 173036
    assert hashlib.sha256(out).hexdigest() == (
        "8e66347940c0c0915dd3e64ea7154ce316a28042daff7a6a9e2f0afb23b7e744")


def _readback_args():
    """The argument lists of ``realize`` and ``tau`` of one seeded drag
    word of up to 6 tokens on each configuration of the grid n <= 4,
    b <= 3, and of ``push`` at each of its boundaries."""
    rng = random.Random(5)
    for config in standard_grid(ns=(2, 3, 4)):
        text = json.dumps(config_to_json(config), separators=(",", ":"))
        gens = all_generators(config)
        w = drags.drag_word_text(tuple(
            (rng.choice(gens), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 6))))
        for command in ("realize", "tau"):
            yield [command, "--config", text, "--drags", w]
        for r, s in map(config.boundary_address, range(1, config.b + 1)):
            yield ["push", "--config", text, "--boundary", f"{r},{s}",
                   "--gamma", "x1 x2 x1^-1 x2^-1 x1"]


def test_dense_readback_stdout_is_pinned(runner):
    # every image that realize, tau and push print comes through the
    # dense readback; (args, exit code, stdout) of each invocation, hashed
    digest, count = hashlib.sha256(), 0
    for args in _readback_args():
        result = invoke(runner, *args)
        digest.update(json.dumps([args, result.exit_code, result.output])
                      .encode() + b"\n")
        count += 1
    assert count == 246
    assert digest.hexdigest() == (
        "18d872f8bcd0be864c75c84ff6e06c91346a58e35409d92cf01dec78c7e1271e")


@pytest.mark.parametrize("index", range(4))
def test_push_factor_matches_golden_realizing_once(runner, monkeypatch,
                                                    index):
    # one input per push case: r = 1, s = 1 on a block of two labels;
    # r > 1, s = 1; s > 1; r = 1, s = 1 on a singleton block.  The check
    # realizes images only: the drag word once, its inverse never, and
    # the push as its one action
    seen = _count_image_realizations(monkeypatch)
    case = json.loads((GOLDEN / "push_factor.json").read_text())[index]
    result = invoke(runner, *case["args"])
    assert result.exit_code == 0
    assert result.output == case["stdout"]
    assert json.loads(result.output)["matches_push"] is True
    args = dict(zip(case["args"][1::2], case["args"][2::2]))
    basis = build_basis(config_from_json(args["--config"]))
    dw = drags.parse_drag_word(json.loads(result.output)["drags"])
    r, s = (int(x) for x in args["--boundary"].split(","))
    w = words.parse_word(args["--word"], basis.config.n)

    def word_actions(tokens):
        return tuple(_drag_action(basis, g, e) for g, e in tokens)

    assert seen == [word_actions(dw), (_push_action(basis, r, s, w.letters),)]
    assert word_actions(drags.drag_word_inv(dw)) not in seen


@pytest.mark.parametrize("index", range(4))
def test_push_factor_builds_push_images_only(runner, monkeypatch, index):
    # the check reads only the moved images of the push: one push action
    # per input, and no dense readback (``_realize_images``) nor the push
    # with its inverse family; stdout stays golden
    pushes: list = []
    checked = drags._checked_push

    def counted(config, boundary, gamma):
        pushes.append(gamma)
        return checked(config, boundary, gamma)

    def refused(*args):
        raise AssertionError("push-factor built whole or inverse images")

    monkeypatch.setattr(drags, "_checked_push", counted)
    for name in ("push_boundary", "_realize_images", "realize_images"):
        monkeypatch.setattr(drags, name, refused)
    case = json.loads((GOLDEN / "push_factor.json").read_text())[index]
    result = invoke(runner, *case["args"])
    assert result.exit_code == 0
    assert result.output == case["stdout"]
    assert len(pushes) == 1


@pytest.mark.parametrize("index", range(4))
def test_push_factor_reports_a_drag_word_short_of_the_push(runner,
                                                          monkeypatch, index):
    # the drag word less its last token realizes another map
    real = rewriter.push_factorization
    monkeypatch.setattr(rewriter, "push_factorization",
                        lambda *args: real(*args)[:-1])
    case = json.loads((GOLDEN / "push_factor.json").read_text())[index]
    result = invoke(runner, *case["args"])
    assert result.exit_code == 0
    golden = json.loads(case["stdout"])
    assert json.loads(result.output) == {
        "drags": golden["drags"].rsplit(" ", 1)[0], "matches_push": False}


@pytest.mark.parametrize("boundary, error", [
    ("1,2", "boundary (1,2) does not exist"),
    ("3,1", "block 3 does not exist")])
@pytest.mark.parametrize("word", ["e", "x1 x2 x1^-1 x2^-1"])
def test_push_factor_refuses_a_missing_boundary_before_any_work(
        runner, monkeypatch, boundary, error, word):
    def refused(*args):
        raise AssertionError("the boundary must be refused before any "
                             "factor is built")

    for name in ("tomaszewski_factor", "_factorize", "push_factorization"):
        monkeypatch.setattr(rewriter, name, refused)
    result = invoke(runner, "push-factor", "--config", CFG21,
                    "--boundary", boundary, "--word", word)
    assert result.exit_code == 1
    assert result.output == json.dumps({"error": error},
                                       separators=(",", ":")) + "\n"


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


@pytest.mark.parametrize("partition, boundary", [
    ([[1, 2], [3]], "1,1"), ([[1, 2], [3]], "1,2"), ([[1, 2], [3]], "2,1"),
    ([[1], [2, 3]], "1,1"), ([[1], [2, 3]], "2,1"), ([[1], [2, 3]], "2,2")])
def test_push_realizes_the_push_of_gamma_only(runner, monkeypatch,
                                              partition, boundary):
    # membership reads images only: one realization, the one action of
    # the push of gamma, and no push of gamma^-1 for an inverse family
    seen = _count_image_realizations(monkeypatch)
    config = json.dumps({"n": 2, "b": 3, "partition": partition})
    gamma = "x1 x2 x1^-1 x2^-1 x1"
    result = invoke(runner, "push", "--config", config,
                    "--boundary", boundary, "--gamma", gamma)
    assert result.exit_code == 0
    basis = build_basis(config_from_json(config))
    r, s = (int(x) for x in boundary.split(","))
    w = words.parse_word(gamma, 2)
    assert seen == [(_push_action(basis, r, s, w.letters),)]
    f = drags.push_boundary(basis.config, (r, s), w)
    assert json.loads(result.output) == {
        "rank": f.rank, "images": [words.word_text(x) for x in f.images],
        "membership": drags.membership_IOP(basis.config, f)}


def test_push_bad_boundary_text_exit_2(runner):
    # indices are read as `parse_word` reads them: ASCII digits, no
    # leading zero, no sign, underscore or blank
    for command, word in (("push", "--gamma"), ("push-factor", "--word")):
        for boundary in ("1-2", "\u0661, +1", "01,2", "1,+2", "1_0,1",
                         "1, 2"):
            result = invoke(runner, command, "--config", CFG22,
                            "--boundary", boundary, word, "x1 x2 x1^-1 x2^-1")
            assert result.exit_code == 2, (command, boundary)
            assert "boundary must be 'r,s'" in result.output


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


def test_fs_homology_counts_the_components_once(runner, monkeypatch):
    # `connected` and dim ker d1 share one component count
    calls = []
    real = lattice.fs_components
    monkeypatch.setattr(lattice, "fs_components",
                        lambda *args: calls.append(1) or real(*args))
    result = invoke(runner, "fs", "--n", "3", "--bound", "1", "--homology")
    data = json.loads(result.output)
    assert data["connected"] is True and data["h1_rank"] == 0
    assert calls == [1]


@pytest.mark.parametrize("n, bound, digest", [
    ("4", "1", "d21333a956d1164f622aba9cb628ed41"
               "8927f47ee9e901a66d8978ad2ae2709c"),
    ("3", "2", "1fccfb7415e71dcb0454038ce56087b6"
               "ef25c03239cd31e27708937e8125cc5d"),
    ("2", "2", "625452637b92dcaf4c850f31d7737ab6"
               "9d2f98bb64d5211418415ff301520905"),
    pytest.param("6", "1", "070d418bbd9e5d12afc60ddc647ecef2"
                           "118f0cc9348b252bb8d3c7dd2d3a5282",
                 marks=pytest.mark.slow),
    pytest.param("4", "2", "53b0184b37c1a9ad872909b800d33025"
                           "d4337c09cca31d5a7cb697d5116309ea",
                 marks=pytest.mark.slow),
    pytest.param("3", "4", "c50eecc349b5e67ba4a6c82843d4699c"
                           "2c4444af68220329edb20bf833b2d310",
                 marks=pytest.mark.slow),
])
def test_fs_homology_stdout_is_pinned(runner, n, bound, digest):
    # the three inputs of the fs-h1 benchmark and the exact fallback at
    # (2, 2); under `slow`, the three inputs at the cap
    out = invoke(runner, "fs", "--n", n, "--bound", bound,
                 "--homology").output.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_fs_builds_no_quotient(runner, monkeypatch):
    # edges and simplices are decided by the minors of the vertices, so
    # the elimination-based summand decision never runs, the exact
    # fallback at (2, 2) included
    def kernel(rows):
        raise AssertionError("fs must not run the summand elimination")
    monkeypatch.setattr(lattice, "_spans_summand_rows", kernel)
    for n, bound, h1 in (("4", "1", 0), ("2", "2", 6)):
        result = invoke(runner, "fs", "--n", n, "--bound", bound,
                        "--homology")
        assert json.loads(result.output)["h1_rank"] == h1
    assert lattice.fs_h1_rank(3, 2) == 0


def test_fs_dot_into_a_missing_directory_exit_1(runner, tmp_path):
    # a --dot path that cannot be written is a domain error, not a
    # traceback
    dot = tmp_path / "missing" / "fs.dot"
    result = invoke(runner, "fs", "--n", "2", "--bound", "1",
                    "--dot", str(dot))
    assert result.exit_code == 1
    error = json.loads(result.output.strip().splitlines()[-1])["error"]
    assert "No such file or directory" in error


@pytest.mark.parametrize("n", ["0", "-1"])
def test_fs_rejects_n_below_1(runner, n):
    result = invoke(runner, "fs", "--n", n, "--bound", "1")
    assert result.exit_code == 1
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["error"] == "n must be >= 1"


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_fs_rejects_bound_below_1(runner, bound):
    # the candidate cap is checked only from bound 1 on, so the
    # library's own error is printed
    result = invoke(runner, "fs", "--n", "2", "--bound", bound)
    assert result.exit_code == 1
    assert result.output.strip().splitlines()[-1] == \
        '{"error":"bound must be >= 1"}'


def _refuse_work(monkeypatch, name):
    def work(*args):
        raise AssertionError(f"{name} must not run")
    monkeypatch.setattr(lattice, name, work)


@pytest.mark.parametrize("n, bound", [
    ("3", "1000000"), ("7", "1"), ("10", "1"), ("2", "14"),
    ("1000000000", "1"), ("2", str(10 ** 40))])
def test_fs_refuses_too_many_candidates(runner, monkeypatch, n, bound):
    _refuse_work(monkeypatch, "fs_graph")
    result = invoke(runner, "fs", "--n", n, "--bound", bound, "--homology")
    assert result.exit_code == 1
    error = json.loads(result.output.strip().splitlines()[-1])["error"]
    assert f"FS_MAX_CANDIDATES = {cli.FS_MAX_CANDIDATES}" in error


@pytest.mark.parametrize("n, bound", [("4", "2"), ("6", "1"), ("3", "4"),
                                      ("2", "13")])
def test_fs_admits_candidate_counts_up_to_the_cap(runner, monkeypatch, n,
                                                  bound):
    # (4, 2) has 625 candidates, (6, 1), (3, 4) and (2, 13) have 729;
    # with (10, 1) refused, these pin the count at both ends of the
    # cap's bit length, 10
    calls = []
    monkeypatch.setattr(lattice, "fs_graph",
                        lambda *args: calls.append(args) or ([], []))
    result = invoke(runner, "fs", "--n", n, "--bound", bound)
    assert result.exit_code == 0
    assert calls == [(int(n), int(bound))]


def _square_commutator(k):
    # x1^k x2^k x1^-k x2^-k: k^2 Schreier factors, before any cancel
    return " ".join(["x1"] * k + ["x2"] * k + ["x1^-1"] * k + ["x2^-1"] * k)


def _rewrite_args(command, word):
    if command == "rewrite":
        return ["rewrite", "--n", "3", "--word", word]
    return ["push-factor", "--config", CFG31, "--boundary", "1,1",
            "--word", word]


@pytest.mark.parametrize("command", ["rewrite", "push-factor"])
def test_rewrite_commands_refuse_words_over_the_cap(runner, monkeypatch,
                                                    command):
    limit = cli.REWRITE_MAX_FACTORS
    assert limit == 64 ** 2
    for name in ("tomaszewski_factor", "push_factorization"):
        monkeypatch.setattr(rewriter, name, lambda *args: pytest.fail(
            "the word must be refused before any factor is built"))
    result = invoke(runner, *_rewrite_args(command, _square_commutator(65)))
    assert result.exit_code == 1
    error = json.loads(result.output.strip().splitlines()[-1])["error"]
    assert error == (f"{command}: 4225 Schreier factors exceed "
                     f"REWRITE_MAX_FACTORS = {limit}")


@pytest.mark.parametrize("command", ["rewrite", "push-factor"])
def test_rewrite_commands_admit_words_up_to_the_cap(runner, monkeypatch,
                                                    command):
    word = _square_commutator(2)
    monkeypatch.setattr(cli, "REWRITE_MAX_FACTORS", 4)
    assert invoke(runner, *_rewrite_args(command, word)).exit_code == 0
    monkeypatch.setattr(cli, "REWRITE_MAX_FACTORS", 3)
    assert invoke(runner, *_rewrite_args(command, word)).exit_code == 1


def _square_push_args(n, k):
    config = json.dumps({"n": n, "b": 1, "partition": [[1]]})
    return ["push-factor", "--config", config, "--boundary", "1,1",
            "--word", _square_commutator(k)]


@pytest.mark.parametrize("n, k, tokens", [(300, 16, 2_296_576),
                                          (999, 64, 515_067_904)])
def test_push_factor_refuses_drag_words_over_the_cap(runner, monkeypatch,
                                                     n, k, tokens):
    # both inputs pass REWRITE_MAX_FACTORS and WORD_MAX_RANK
    limit = cli.PUSH_MAX_TOKENS
    assert limit == 2 ** 20
    for name in ("tomaszewski_factor", "push_factorization"):
        monkeypatch.setattr(rewriter, name, lambda *args: pytest.fail(
            "the word must be refused before any drag token is built"))
    result = invoke(runner, *_square_push_args(n, k))
    assert result.exit_code == 1
    error = json.loads(result.output.strip().splitlines()[-1])["error"]
    assert error == (f"push-factor: {tokens} drag tokens exceed "
                     f"PUSH_MAX_TOKENS = {limit}")


class _Admitted(Exception):
    """Raised by a patched work function: the input passed every cap."""


@pytest.mark.parametrize("n, k", [(3, 64), (999, 8)])
def test_push_factor_admits_drag_words_up_to_the_cap(runner, monkeypatch,
                                                     n, k):
    # 1,036,288 and 894,272 drag tokens
    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(rewriter, "push_factorization", admitted)
    with pytest.raises(_Admitted):
        invoke(runner, *_square_push_args(n, k))


def test_push_factor_cap_is_inclusive(runner, monkeypatch):
    # x1^2 x2^2 x1^-2 x2^-2 at n = 3 builds 20 drag tokens
    args = _square_push_args(3, 2)
    monkeypatch.setattr(cli, "PUSH_MAX_TOKENS", 20)
    assert invoke(runner, *args).exit_code == 0
    monkeypatch.setattr(cli, "PUSH_MAX_TOKENS", 19)
    assert invoke(runner, *args).exit_code == 1


def test_rewrite_admits_the_largest_square_commutator(runner):
    result = invoke(runner, *_rewrite_args("rewrite", _square_commutator(64)))
    assert result.exit_code == 0
    assert len(json.loads(result.output)["factors"]) == 64 ** 2


def _rank_args(command, n, word):
    return [command, "--n", str(n), "--word", word]


@pytest.mark.parametrize("command", ["rho", "rewrite"])
@pytest.mark.parametrize("n", [1001, 10 ** 12, 10 ** 20])
def test_word_commands_refuse_ranks_over_the_cap(runner, monkeypatch,
                                                 command, n):
    limit = cli.WORD_MAX_RANK
    assert limit == 1000

    def refused(*args):
        raise AssertionError("the rank must be refused before any work")

    monkeypatch.setattr(words, "parse_word", refused)
    monkeypatch.setattr(johnson, "rho", refused)
    for name in ("_expansion_size", "tomaszewski_factor"):
        monkeypatch.setattr(rewriter, name, refused)
    for word in ("e", "x1"):
        result = invoke(runner, *_rank_args(command, n, word))
        assert result.exit_code == 1
        error = json.loads(result.output.strip().splitlines()[-1])["error"]
        assert error == (f"{command}: rank {n} exceeds WORD_MAX_RANK"
                         f" = {limit}")


@pytest.mark.parametrize("command", ["rho", "rewrite"])
def test_word_commands_admit_ranks_up_to_the_cap(runner, command):
    word = "x1 x2 x1^-1 x2^-1"
    result = invoke(runner, *_rank_args(command, cli.WORD_MAX_RANK, word))
    assert result.exit_code == 0


def _map_args(command, config):
    config = json.dumps(config)
    if command == "push":
        return ["push", "--config", config, "--boundary", "1,1",
                "--gamma", "x1"]
    if command == "push-factor":
        return ["push-factor", "--config", config, "--boundary", "1,1",
                "--word", "x1 x2 x1^-1 x2^-1"]
    return [command, "--config", config, "--drags", "HD:1,2"]


_MAP_COMMANDS = ["tau", "realize", "push", "push-factor"]


@pytest.mark.parametrize("command", _MAP_COMMANDS)
@pytest.mark.parametrize("n, m", [(1000, 1001), (10 ** 12, 10 ** 12 + 1),
                                  (10 ** 20, 10 ** 20 + 1)])
def test_map_commands_refuse_capped_ranks_over_the_cap(runner, monkeypatch,
                                                       command, n, m):
    # config n plus one handle for the singleton block 1
    def refused(*args):
        raise AssertionError("the capped rank must be refused before any work")

    for module in (cli.cfg, drags):
        monkeypatch.setattr(module, "build_basis", refused)
    for name in ("tau_star", "realize_word", "realize_images",
                 "push_boundary", "_realize_images", "_checked_push",
                 "_moved_word_images", "parse_drag_word"):
        monkeypatch.setattr(drags, name, refused)
    for name in ("_expansion_size", "_factorize", "push_factorization"):
        monkeypatch.setattr(rewriter, name, refused)
    monkeypatch.setattr(words, "parse_word", refused)
    config = {"n": n, "b": 1, "partition": [[1]]}
    result = invoke(runner, *_map_args(command, config))
    assert result.exit_code == 1
    error = json.loads(result.output.strip().splitlines()[-1])["error"]
    assert error == (f"{command}: rank {m} exceeds WORD_MAX_RANK"
                     f" = {cli.WORD_MAX_RANK}")


@pytest.mark.parametrize("command", _MAP_COMMANDS)
def test_map_commands_admit_capped_ranks_up_to_the_cap(runner, command):
    # capped rank 999 + 1 = WORD_MAX_RANK
    config = {"n": cli.WORD_MAX_RANK - 1, "b": 1, "partition": [[1]]}
    result = invoke(runner, *_map_args(command, config))
    assert result.exit_code == 0


_CONFIG_CAPS = [("gens", "GENS_MAX_RANK"), ("rank", "VERIFY_MAX_RANK"),
                ("verify", "VERIFY_MAX_RANK")]


def _config_args(command, config):
    mode = ["--all"] if command == "verify" else []
    return [command, *mode, "--config", json.dumps(config)]


@pytest.mark.parametrize("command, cap", _CONFIG_CAPS)
@pytest.mark.parametrize("over", [1, 10 ** 12])
def test_config_commands_refuse_capped_ranks_over_the_cap(runner, monkeypatch,
                                                          command, cap, over):
    def refused(*args):
        raise AssertionError("the capped rank must be refused before any work")

    for name in ("all_generators", "reduced_generating_set",
                 "abelianization_rank", "verify_config", "build_basis"):
        monkeypatch.setattr(drags, name, refused)
    monkeypatch.setattr(cli.cfg, "build_basis", refused)
    limit = getattr(cli, cap)
    # config n plus one handle for the singleton block 1
    config = {"n": limit - 1 + over, "b": 1, "partition": [[1]]}
    result = invoke(runner, *_config_args(command, config))
    assert result.exit_code == 1
    error = json.loads(result.output.strip().splitlines()[-1])["error"]
    assert error == f"{command}: rank {limit + over} exceeds {cap} = {limit}"


@pytest.mark.parametrize("command, cap", _CONFIG_CAPS)
def test_config_commands_admit_capped_ranks_up_to_the_cap(runner, monkeypatch,
                                                          command, cap):
    # the CLI sweep and the benchmark's grid reach capped rank 9
    assert getattr(cli, cap) >= 9
    # the cap is inclusive: CFG22 has capped rank 3
    monkeypatch.setattr(cli, cap, 3)
    assert invoke(runner, *_config_args(command, json.loads(CFG22))) \
        .exit_code == 0
    monkeypatch.setattr(cli, cap, 2)
    assert invoke(runner, *_config_args(command, json.loads(CFG22))) \
        .exit_code == 1


def test_complete_basis_refuses_n_over_the_cap(runner, monkeypatch):
    limit = cli.COMPLETE_BASIS_MAX_N
    result = invoke(runner, "complete-basis", "--n", str(limit),
                    "--vectors", "[]")
    assert result.exit_code == 0
    assert json.loads(result.output)["det"] == 1
    _refuse_work(monkeypatch, "complete_basis")
    # n = 100, the old cap; n - 1 random rows already fail to print at 60
    for n in (limit + 1, 100):
        result = invoke(runner, "complete-basis", "--n", str(n),
                        "--vectors", "[]")
        assert result.exit_code == 1
        error = json.loads(result.output.strip().splitlines()[-1])["error"]
        assert error == (f"complete-basis: n={n} exceeds COMPLETE_BASIS_MAX_N"
                         f" = {limit}")


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
    for bad in ("[1,2]", '{"a":1}'):
        result = invoke(runner, "complete-basis", "--n", "2",
                        "--vectors", bad)
        assert result.exit_code == 2
        assert "vectors must be a JSON list of lists" in result.output


@pytest.mark.parametrize("n", ["0", "-1"])
def test_complete_basis_rank_bounds(runner, n):
    result = invoke(runner, "complete-basis", "--n", n, "--vectors", "[]")
    if n == "0":
        # Z^0 has the empty basis
        assert result.exit_code == 0
        assert json.loads(result.output) == {"matrix": [], "det": 1}
        result = invoke(runner, "complete-basis", "--n", n,
                        "--vectors", "[[1]]")
        assert result.exit_code == 1
        return
    assert result.exit_code == 1
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["error"] == "n must be >= 0, got -1"


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("word", ["x1", "e", "x2^-1 x1", "y1"])
@pytest.mark.parametrize("command", [
    ("word", "reduce"), ("word", "inv"), ("word", "mul"), ("rho",),
    ("rewrite",)])
def test_rank_below_1_is_one_domain_error(runner, command, word, n):
    # the rank is refused before any token is read, so every word text,
    # readable or not, gives the same exit code and message
    args = [*command, "--n", n, "--word", word]
    if command == ("word", "mul"):
        args += ["--other", word]
    result = invoke(runner, *args)
    assert result.exit_code == 1
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload == {"error": f"rank must be >= 1, got {n}"}


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
    ("--help",),
    ("verify", "--help"),
    (),
    ("word",),
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


def _run_in_process(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main.main(args=list(args), prog_name="torelli")
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("output", [(), ("--output", "human")])
def test_unprintable_result_is_a_domain_error(monkeypatch, output):
    # an int past Python's digit limit on int to str fails in the printing
    # of the result, which keeps the exit contract
    monkeypatch.setattr(lattice, "complete_basis",
                        lambda vectors, n: [[10 ** 5000]])
    code, out, err = _run_in_process(
        (*output, "complete-basis", "--n", "1", "--vectors", "[]"))
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert "4300" in json.loads(err.splitlines()[-1])["error"]


@pytest.mark.parametrize("group", [(), ("word",)])
def test_group_without_arguments_prints_help_on_stderr(group):
    # the --help text, byte for byte, on stderr and with exit 2
    code, out, err = _run_in_process(group)
    help_code, help_out, _ = _run_in_process((*group, "--help"))
    assert (code, out) == (2, "")
    assert help_code == 0
    assert err == help_out and err.startswith("Usage: torelli")


# --- the CLI contract under fuzzing ------------------------------------------
#
# Every value comes from a small sampled set, so each admitted input is
# cheap and each past-the-cap one is refused before any work.  The first
# value of each set is admitted by every subcommand that takes it, and is
# drawn half of the time, so that inputs often get past validation.

def _mostly(good, *others):
    return st.one_of(st.just(good), st.sampled_from([good, *others]))


_INTS = ["3", "1", "0", "-1", "101", "1001", str(10 ** 12), "٣", "true",
         "2.0", ""]
_JSON_INTS = [-1, 0, 1, 14, 1001, 10 ** 12, True, 2.0, "2", None]
_WORDS = ["x2 x1 x2^-1 x1^-1", "x1", "e", "", "x٣", "x0", "x1^2",
          "x1^-1 x1", "y1", "x1001"]
_VALUES = {
    "--n": _mostly("2", *_INTS),
    "--bound": _mostly("2", *_INTS),
    "--word": _mostly(*_WORDS),
    "--other": _mostly(*_WORDS),
    "--gamma": _mostly(*_WORDS),
    "--drags": _mostly("HD:1,2 BCD:1,2,1,2^-1", "", "CD-:1,2,3", "PD:1,2",
                       "HD:1,1", "HD:١,2", "XX:1", "HD:1,2^2", "HD:1001,1"),
    "--boundary": _mostly("1,2", "2,1", "0,1", "1", "a,b", "١,1", ""),
    "--vectors": _mostly("[[1,1]]", "[]", "[[2,4]]", "[[true,1]]",
                         "not json", "[[1.5]]", "{}", "[[1,2,3]]", "[1]"),
    "--config": st.one_of(
        _mostly(CFG22, CFG21, '{"n":1,"b":0,"partition":[]}',
                '{"n":13,"b":1,"partition":[[1]]}',
                '{"n":1001,"b":0,"partition":[]}',
                "", "not json", "[]", "{}", '{"n":2}', "null"),
        st.fixed_dictionaries({
            "n": st.sampled_from(_JSON_INTS),
            "b": st.sampled_from(_JSON_INTS),
            "partition": st.sampled_from([[], [[1]], [[1], [1]], [[0]],
                                          [[True]], [1], "x"]),
        }).map(json.dumps)),
}
# each subcommand with its options; a name without a value is a flag
_SUBCOMMANDS = [
    (["tau"], ["--config", "--drags"]),
    (["gens"], ["--config", "--reduced"]),
    (["realize"], ["--config", "--drags"]),
    (["verify"], ["--config", "--relations", "--membership", "--all"]),
    (["rank"], ["--config"]),
    (["push"], ["--config", "--boundary", "--gamma"]),
    (["push-factor"], ["--config", "--boundary", "--word"]),
    (["rho"], ["--n", "--word"]),
    (["rewrite"], ["--n", "--word"]),
    (["fs"], ["--n", "--bound", "--homology"]),
    (["complete-basis"], ["--n", "--vectors"]),
    (["word", "reduce"], ["--n", "--word"]),
    (["word", "mul"], ["--n", "--word", "--other"]),
    (["word", "inv"], ["--n", "--word"]),
]


@st.composite
def _cli_args(draw):
    command, options = draw(st.sampled_from(_SUBCOMMANDS))
    args = draw(st.sampled_from([[], ["--output", "human"]])) + command
    for option in options:
        if option not in _VALUES:
            if draw(st.booleans()):
                args.append(option)
        elif draw(st.sampled_from([True] * 7 + [False])):
            # a required option is sometimes left out
            args += [option, draw(_VALUES[option])]
    return args


@settings(max_examples=400)
@given(_cli_args())
def test_every_subcommand_keeps_the_exit_contract(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), args
    assert "Traceback" not in result.output, args
    if result.exit_code == 1:
        assert "error" in json.loads(result.stderr.splitlines()[-1]), args
    elif result.exit_code == 2:
        assert result.stdout == "" and "Error" in result.stderr, args
    elif args[0] != "--output":
        json.loads(result.stdout)
