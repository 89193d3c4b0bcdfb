"""The forge command line surface."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupoid_forge
from groupoid_forge import cli, matrices, pipeline, twisted_product
from groupoid_forge.certificates import check_wfc
from groupoid_forge.cli import main
from groupoid_forge.graph_model import (
    BratteliDiagram,
    constant_diagram,
    diagram_from_json,
    path_count_matrix,
    validate_bratteli,
)
from groupoid_forge.groupoid_core import cyclic_group_groupoid, full_relation
from groupoid_forge.pipeline import PipelineInputError, plan_af_realization, plan_rank2_realization
from groupoid_forge.rank2_diagrams import Rank2Data, build_rank2, canonical_rank2, telescope_rank2
from groupoid_forge.dimension_groups import DimGroupElement, dg_equal, dimension_group_of
from groupoid_forge.matrices import as_matrix
from groupoid_forge.validation import StructuralError
from groupoid_forge.twisted_product import reverify_contracting_witness

from helpers import (
    enumerated_af_lc_witness,
    level_cap,
    materialized_automorphism,
    materialized_orders,
    mutant,
)

CONSTANT2 = Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (1,)), repeat_from=0)
FIGURE = Rank2Data(A=(((3,),), ((4,),)), B=(((1,),), ((2,),)), T=((1,), (3,), (6,)))
# compatible data whose matrices are negative
NEGATIVE_A = {"A": [[[-2]]], "B": [[[-2]]], "T": [[1], [1]], "repeat_from": 0}
DATA = Path(__file__).resolve().parent / "data"
# level 1 merges the two level-0 vertices; the repeating block is [[1]]
MERGING = {
    "levels": [{"size": 2}, {"size": 2}, {"size": 1}, {"size": 1}],
    "edges": [
        {"level": 0, "range": 0, "source": 0, "mult": 1},
        {"level": 0, "range": 1, "source": 1, "mult": 1},
        {"level": 1, "range": 0, "source": 0, "mult": 1},
        {"level": 1, "range": 1, "source": 0, "mult": 1},
        {"level": 2, "range": 0, "source": 0, "mult": 1},
    ],
    "repeat_from": 2,
}
# one stored doubling step and no repetition rule
ONE_STEP = {
    "levels": [{"size": 1}, {"size": 1}],
    "edges": [{"level": 0, "range": 0, "source": 0, "mult": 2}],
}
FIGURE_TAIL = Rank2Data(
    A=(((3,),), ((4,),), ((2,),)),
    B=(((1,),), ((2,),), ((2,),)),
    T=((1,), (3,), (6,), (6,)),
    repeat_from=2,
)


@pytest.fixture
def diagram_file(tmp_path):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(constant_diagram(2).to_json()))
    return str(path)


@pytest.fixture
def bad_diagram_file(tmp_path):
    data = {
        "levels": [{"size": 1}, {"size": 2}],
        "edges": [{"level": 0, "range": 0, "source": 0, "mult": 1}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def groupoid_file(tmp_path):
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(full_relation(range(2)).to_json()))
    return str(path)


@pytest.fixture
def rank2_file(tmp_path):
    data = Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (1,)), repeat_from=0)
    path = tmp_path / "rank2.json"
    path.write_text(json.dumps(data.to_json() | {"horizon": 4}))
    return str(path)


class TestValidate:
    def test_pass(self, diagram_file, capsys):
        assert main(["validate", diagram_file]) == 0
        assert "pass" in capsys.readouterr().out

    def test_fail(self, bad_diagram_file, capsys):
        assert main(["validate", bad_diagram_file]) == 1

    def test_structural_error_exit_two(self, tmp_path):
        path = tmp_path / "skips.json"
        path.write_text(
            json.dumps(
                {
                    "levels": [{"size": 1}, {"size": 1}, {"size": 1}],
                    "edges": [
                        {"level": 0, "range": 0, "source": 0, "mult": 1, "source_level": 2}
                    ],
                }
            )
        )
        assert main(["validate", str(path)]) == 2


class TestTelescope:
    def test_writes_output(self, diagram_file, tmp_path):
        out = tmp_path / "out.json"
        assert main(["telescope", diagram_file, "--subsequence", "0,2,4", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["edges"][0]["mult"] == 4


class TestGroupoid:
    def test_check(self, groupoid_file):
        assert main(["check-groupoid", groupoid_file]) == 0

    def test_check_output_does_not_depend_on_hash_seed(self, tmp_path):
        # string ids hash differently under each PYTHONHASHSEED
        dump = full_relation("abc").to_json()
        dropped = [
            ["('a', 'b')", "('b', 'c')", "('a', 'c')"],
            ["('c', 'a')", "('a', 'b')", "('c', 'b')"],
            ["('b', 'a')", "('a', 'b')", "('b', 'b')"],
        ]
        dump["compose"] = [e for e in dump["compose"] if e not in dropped] + [
            ["('a', 'b')", "('a', 'b')", "('a', 'a')"],
            ["('c', 'a')", "('b', 'c')", "('c', 'c')"],
            ["('b', 'a')", "('c', 'c')", "('b', 'b')"],
        ]
        path = tmp_path / "bad_groupoid.json"
        path.write_text(json.dumps(dump))
        src = str(Path(groupoid_forge.__file__).resolve().parents[1])
        runs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            runs.append(
                subprocess.run(
                    [sys.executable, "-m", "groupoid_forge.cli", "check-groupoid", str(path)],
                    capture_output=True,
                    text=True,
                    env=env,
                    timeout=60,
                )
            )
        assert [r.returncode for r in runs] == [1, 1]
        assert runs[0].stdout == runs[1].stdout
        assert "Traceback" not in runs[0].stderr + runs[1].stderr

    def test_twist_finite(self, groupoid_file, capsys):
        assert (
            main(["twist", "--H", groupoid_file, "--G", groupoid_file, "--alpha", "cycle"])
            == 0
        )
        assert "pass" in capsys.readouterr().out

    def test_twist_cycle_needs_pair_elements(self, tmp_path, capsys):
        # the elements of Z/4 are integers, not pairs of points to permute
        G = tmp_path / "z4.json"
        G.write_text(json.dumps(cyclic_group_groupoid(4).to_json()))
        H = tmp_path / "h.json"
        H.write_text(json.dumps(full_relation(range(3)).to_json()))
        assert main(["twist", "--H", str(H), "--G", str(G), "--alpha", "cycle"]) == 2
        err = capsys.readouterr().err
        assert "--alpha cycle needs G to be a relation" in err
        assert "Traceback" not in err

    def test_twist_multiplier_needs_cyclic_elements(self, groupoid_file, capsys):
        # the elements of the full relation on two points are pairs, not 0..3;
        # multiplying them used to raise TypeError
        argv = ["twist", "--H", groupoid_file, "--G", groupoid_file, "--alpha", "multiplier:3"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "multiplier automorphism needs G's elements to be 0..n-1" in err
        assert "Traceback" not in err

    def test_twist_bouquet(self, groupoid_file, capsys):
        assert main(["twist", "--H", "hinf", "--G", groupoid_file, "--alpha", "identity"]) == 0
        assert "bouquet" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--cocycle", "missing.json"], "--cocycle"),
            (["--cocycle", "zero"], "--cocycle"),
            (["--out", "{out}"], "--out"),
            (["--out", "{out}", "--cocycle", "missing.json"], "--cocycle"),
        ],
        ids=["cocycle-file", "cocycle-zero", "out", "out-and-cocycle"],
    )
    def test_twist_bouquet_refuses_an_option_it_does_not_read(
        self, flags, named, groupoid_file, tmp_path, capsys
    ):
        out = tmp_path / "product.json"
        argv = ["twist", "--H", "hinf", "--G", groupoid_file, "--alpha", "identity"]
        assert main(argv + [flag.format(out=out) for flag in flags]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and f"twist --H hinf does not read {named}" in err
        assert not out.exists()

    def test_twist_cocycle_defaults_to_zero(self, groupoid_file, tmp_path):
        dumps = []
        for extra in ([], ["--cocycle", "zero"]):
            out = tmp_path / f"product{len(extra)}.json"
            argv = ["twist", "--H", groupoid_file, "--G", groupoid_file, "--alpha", "cycle"]
            assert main(argv + extra + ["--out", str(out)]) == 0
            dumps.append(out.read_text())
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("dump", ["H", "G"])
    def test_twist_refuses_a_dump_that_fails_an_axiom(self, dump, groupoid_file, tmp_path, capsys):
        # a product outside the elements used to raise KeyError in the
        # cocycle or automorphism check
        data = full_relation(range(2)).to_json()
        data["compose"][0][2] = "(5, 5)"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        files = {"H": groupoid_file, "G": groupoid_file} | {dump: str(bad)}
        argv = ["twist", "--H", files["H"], "--G", files["G"], "--alpha", "identity"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad} is not a groupoid: fail" in err
        assert "composition closed" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("range", [["(0, 0)", "(0, 0)"]], "'list' object has no attribute 'items'"),
            ("elements", [[0, 0], "(0, 1)"], "element names must be strings, got [0, 0]"),
            ("units", [1], "element names must be strings, got 1"),
        ],
        ids=["range-list", "element-list", "unit-int"],
    )
    def test_malformed_dump_exit_two(self, field, value, message, tmp_path, capsys):
        data = full_relation(range(2)).to_json() | {field: value}
        path = tmp_path / "groupoid.json"
        path.write_text(json.dumps(data))
        assert main(["check-groupoid", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ([], "malformed automorphism: 'list' object has no attribute 'items'"),
            (
                {"(0, 0": "(1, 1)", "(0, 1)": "(1, 0)", "(1, 0)": "(0, 1)", "(1, 1)": "(0, 0)"},
                "automorphism mapping is not a bijection",
            ),
        ],
        ids=["map-list", "unparsable-name"],
    )
    def test_twist_alpha_file_is_checked(self, mapping, message, groupoid_file, tmp_path, capsys):
        alpha = tmp_path / "alpha.json"
        alpha.write_text(json.dumps({"map": mapping}))
        argv = ["twist", "--H", groupoid_file, "--G", groupoid_file, "--alpha", str(alpha)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_a_pair_listed_twice_exits_two(self, tmp_path, capsys):
        # the wrong product first and the right one after it: the dump is
        # refused, not checked with the later entry
        data = full_relation(range(2)).to_json()
        data["compose"].insert(0, ["(0, 1)", "(1, 0)", "(1, 1)"])
        path = tmp_path / "groupoid.json"
        path.write_text(json.dumps(data))
        assert main(["check-groupoid", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "structural error: pair ((0, 1), (1, 0)) listed twice" in captured.err

    def test_dump_name_that_revives_unhashable_stays_a_string(self, tmp_path, capsys):
        # "[0]" is the repr of a list, which cannot name an element; it is
        # kept as the string, so the axiom check runs and reports
        data = full_relation(range(2)).to_json()
        data["range"]["(0, 1)"] = "[0]"
        path = tmp_path / "groupoid.json"
        path.write_text(json.dumps(data))
        assert main(["check-groupoid", str(path)]) == 1
        assert "r,s land in units: element (0, 1)" in capsys.readouterr().out


class TestCertify:
    def test_wfc_af(self, diagram_file, tmp_path):
        out = tmp_path / "cert.json"
        assert (
            main(
                [
                    "certify", "wfc", "--input", diagram_file,
                    "--depth", "8", "--lbound", "5", "--out", str(out),
                ]
            )
            == 0
        )
        cert = json.loads(out.read_text())
        assert cert["status"] == "certificate"
        # witnesses embedded and self-checking
        table = cert["details"]["min_cycle_length_per_level"]
        for l, level in cert["details"]["witness_level_per_shift"].items():
            assert table[str(level)] > int(l)

    def test_wfc_rank2(self, rank2_file, tmp_path):
        out = tmp_path / "cert.json"
        assert (
            main(
                [
                    "certify", "wfc", "--rank2", "--input", rank2_file,
                    "--depth", "4", "--lbound", "10", "--out", str(out),
                ]
            )
            == 0
        )
        assert json.loads(out.read_text())["status"] == "certificate"

    def test_wfc_invalid_diagram_exit_two(self, bad_diagram_file, capsys):
        # the planner validates the diagram before it telescopes
        assert main(["certify", "wfc", "--input", bad_diagram_file]) == 2
        captured = capsys.readouterr()
        assert "input rejected" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, data, horizon, relation",
        [
            (["--rank2"], FIGURE.to_json(), 2, "> 24"),
            ([], ONE_STEP, 1, "> 1"),
        ],
        ids=["rank2-figure", "af-one-step"],
    )
    def test_wfc_on_data_that_ends_first_exits_one_naming_its_horizon(
        self, flags, data, horizon, relation, tmp_path, capsys
    ):
        # the horizon named is the first level with no matrix, read off the data
        source = tmp_path / "data.json"
        source.write_text(json.dumps(data))
        assert main(["certify", "wfc", *flags, "--input", str(source)]) == 1
        reason = (
            f"data horizon {horizon} reached (no repetition rule) before a level "
            f"with entries {relation} from level {horizon}"
        )
        assert json.loads(capsys.readouterr().out) == {"status": "unknown", "reason": reason}

    def test_lc(self, diagram_file, capsys):
        assert main(["certify", "lc", "--input", diagram_file]) == 0

    def test_lc_sample_is_the_first_forty_paths_of_length_at_most_two(self, tmp_path):
        # 22 such paths below vertex (0, 0), so the cut falls below (0, 1)
        d = BratteliDiagram(
            (2, 3, 3),
            (as_matrix([[1, 1, 1], [2, 1, 3]]), as_matrix([[2, 2, 1], [3, 1, 2], [2, 2, 3]])),
            repeat_from=1,
        )
        source, out = tmp_path / "diagram.json", tmp_path / "lc.json"
        source.write_text(json.dumps(d.to_json()))
        assert main(["certify", "lc", "--input", str(source), "--out", str(out)]) == 0
        # the sample the command drew before it shared the planner's: every
        # path of length 0, 1, 2 below level 0, enumerated and cut at 40
        assert json.loads(out.read_text()) == enumerated_af_lc_witness(d, 40).to_json()

    @pytest.mark.parametrize("mult", [3, 50])
    def test_lc_reads_level_one_only_when_the_sample_reaches_length_two(
        self, mult, tmp_path, capsys
    ):
        # one edge level and no repetition rule: 50 parallel edges fill the
        # sample at length 1 (exit 0), while 3 leave it short, so it reaches
        # a length-2 path and the missing level 1 is refused (exit 2)
        source = tmp_path / "diagram.json"
        edge = {"level": 0, "range": 0, "source": 0, "mult": mult}
        source.write_text(json.dumps({"levels": [{"size": 1}, {"size": 1}], "edges": [edge]}))
        code = main(["certify", "lc", "--input", str(source)])
        out, err = capsys.readouterr()
        if mult == 3:
            assert (code, out) == (2, "")
            assert "structural error: level 1 beyond horizon, no repetition rule" in err
        else:
            entries = json.loads(out)["entries"]
            assert (code, err, len(entries)) == (0, "", 40)
            assert entries[-1] == {"element": "(0, 0, 0, 38)", "l": 50}

    @pytest.mark.parametrize("target", ["af", "rank2"])
    def test_wfc_without_flags_is_the_planner_certificate(
        self, target, diagram_file, rank2_file, tmp_path
    ):
        out = tmp_path / "cert.json"
        if target == "af":
            argv = ["certify", "wfc", "--input", diagram_file]
            expected = plan_af_realization(constant_diagram(2)).wfc
        else:
            argv = ["certify", "wfc", "--rank2", "--input", rank2_file]
            expected = plan_rank2_realization(CONSTANT2).wfc
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text()) == expected.to_json()

    @pytest.mark.parametrize(
        "what, flags, named",
        [
            ("lc", ["--input", "{af}", "--depth", "9", "--rank2"], "--depth"),
            ("lc", ["--input", "{af}", "--lbound", "3"], "--lbound"),
            ("lc", ["--input", "{af}", "--rank2"], "--rank2"),
            ("contract", ["--input", "x.json", "--lbound", "3"], "--input"),
            ("contract", ["--depth", "2"], "--depth"),
            ("contract", ["--lbound", "3"], "--lbound"),
            ("contract", ["--rank2"], "--rank2"),
        ],
        ids=[
            "lc-depth", "lc-lbound", "lc-rank2",
            "contract-input", "contract-depth", "contract-lbound", "contract-rank2",
        ],
    )
    def test_an_option_the_certificate_does_not_read_exits_two(
        self, what, flags, named, diagram_file, capsys
    ):
        argv = ["certify", what, *(flag.format(af=diagram_file) for flag in flags)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"certify {what} does not read {named}" in err

    def test_contract(self, capsys):
        # the witness over the fixed window, byte for byte
        assert main(["certify", "contract"]) == 0
        out = capsys.readouterr().out
        assert '"bisection_h": "Z((e6.e0.e4.e8.e6.e0.e4.e8, e6.e0.e4.e8))"' in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d1d5a86ad4092573fe6d0918f4e9341dff7150ddf726bb07ce2d9ecf8e3b8cc9"
        )

    @pytest.mark.parametrize("rechecks", [True, False], ids=["rechecks", "fails"])
    def test_contract_rechecks_its_witness(self, rechecks, monkeypatch, capsys):
        verdicts = []

        def recheck(model, witness):
            verdicts.append(reverify_contracting_witness(model, witness))
            return rechecks

        monkeypatch.setattr(twisted_product, "reverify_contracting_witness", recheck)
        code = main(["certify", "contract"])
        out, err = capsys.readouterr()
        assert verdicts == [True]
        if rechecks:
            assert code == 0 and err == "" and '"witness"' in out
        else:
            assert code == 1 and out == ""
            assert err == "contracting witness FAILED re-verification\n"


# sha256 of each identity's stdout: both sides' canonical forms through
# ``describe()`` and the verdicts
CONVOLVE_DEMO_SHA256 = {
    "comp": "93d33e375f49c33bdad34584043715116b5284eb3c038f1764655815114d5748",
    "comp2": "ac52877b679aa2fa03b9dc375b8c275fd955a38f3cf88ba16bd2b3115f6df931",
    "right-action": "cd9ce86326c3168e3f36d17ea2baa992720461d0d74112998e73bae4b124eede",
}


class TestConvolveDemo:
    @pytest.mark.parametrize("identity", ["comp", "comp2", "right-action"])
    def test_identities_print_and_pass(self, identity, capsys):
        assert main(["convolve-demo", "--identity", identity]) == 0
        out = capsys.readouterr().out
        assert "lhs" in out and "rhs" in out and "True" in out
        assert hashlib.sha256(out.encode()).hexdigest() == CONVOLVE_DEMO_SHA256[identity]


class TestKtheory:
    def test_positive_query(self, diagram_file):
        assert main(["ktheory", diagram_file, "--corner", "0:2", "--op", "positive"]) == 0

    def test_equal_query(self, diagram_file):
        assert (
            main(
                [
                    "ktheory", diagram_file, "--class", "0:0",
                    "--op", "equal", "--other", "1:2",
                ]
            )
            == 0
        )

    def test_unequal_exit_one(self, diagram_file):
        assert (
            main(
                [
                    "ktheory", diagram_file, "--class", "0:0",
                    "--op", "equal", "--other", "0:3",
                ]
            )
            == 1
        )


    def test_equal_past_the_data_horizon_is_unknown(self, tmp_path, capsys):
        # one stored step and no repetition rule: the default horizon 12
        # runs past the data, which is unknown (exit 1), not an error
        path = tmp_path / "one_step.json"
        path.write_text(json.dumps(ONE_STEP))
        argv = ["ktheory", str(path), "--corner", "0:1", "--op", "equal", "--other", "0:3"]
        assert main(argv) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["value"] == "unknown" and verdict["level"] == 1
        assert "data horizon" in verdict["justification"]

    @pytest.mark.parametrize("horizon, value", [(0, "unknown"), (1, "unknown"), (2, "yes")])
    def test_equal_reads_the_matrices_before_the_block(self, horizon, value, tmp_path, capsys):
        # two classes merged by the stored matrix at level 1, ahead of the
        # injective repeating block: never a "no"
        path = tmp_path / "merge.json"
        path.write_text(json.dumps(MERGING))
        argv = ["ktheory", str(path), "--class", "0:0", "--op", "equal", "--other", "0:0,1"]
        assert main(argv + ["--horizon", str(horizon)]) == (0 if value == "yes" else 1)
        assert json.loads(capsys.readouterr().out)["value"] == value


class TestRank2Cli:
    @pytest.mark.parametrize("orientation", [-1, 1])
    def test_integer_orientation_is_refused(self, orientation, tmp_path, capsys):
        path = tmp_path / "int_orientation.json"
        path.write_text(json.dumps(CONSTANT2.to_json() | {"orientation": orientation}))
        assert main(["realize", "rank2", str(path)]) == 2
        assert f"orientation must be '+1' or '-1', got {orientation}" in capsys.readouterr().err

    def test_build_orders_telescope_automorphism(self, rank2_file, tmp_path):
        assert main(["rank2", "build", "--input", rank2_file]) == 0
        out = tmp_path / "orders.json"
        assert main(["rank2", "orders", "--input", rank2_file, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["m"][0] == 0
        assert main(["rank2", "telescope", "--input", rank2_file, "--levels", "5"]) == 0
        assert main(["rank2", "automorphism", "--input", rank2_file]) == 0

    @pytest.mark.parametrize(
        "action, message",
        [
            ("build", "need at least one level"),
            ("orders", "need at least one level"),
            ("telescope", "telescoping needs at least three output levels"),
            ("automorphism", "need at least one level"),
        ],
    )
    def test_zero_levels_exit_two(self, action, message, rank2_file, capsys):
        # 0 is a requested level count, not a missing one
        assert main(["rank2", action, "--input", rank2_file, "--levels", "0"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["build", "orders", "telescope", "automorphism"])
    def test_zero_horizon_hint_exits_two_as_zero_levels_do(self, action, tmp_path, capsys):
        # the file's hint is read whenever it is present, so 0 is not missing
        path = tmp_path / "zero_horizon.json"
        path.write_text(json.dumps(CONSTANT2.to_json() | {"horizon": 0}))
        assert main(["rank2", action, "--input", str(path), "--levels", "0"]) == 2
        from_option = capsys.readouterr().err
        assert main(["rank2", action, "--input", str(path)]) == 2
        assert capsys.readouterr().err == from_option

    @pytest.mark.parametrize(
        "a", [[[1, 1], [0, 0]], [[1, 0], [1, 0]]], ids=["zero-row", "zero-column"]
    )
    def test_build_rejects_an_improper_matrix(self, a, tmp_path, capsys):
        source = tmp_path / "data.json"
        source.write_text(json.dumps({"A": [a], "B": [a], "T": [[1, 1], [1, 1]]}))
        assert main(["rank2", "build", "--input", str(source), "--levels", "2"]) == 2
        assert "must be proper" in capsys.readouterr().err

    def test_negative_a_is_refused_alike(self, tmp_path, capsys):
        # compatibility holds with A = B = -2, so only the sign refuses it
        source = tmp_path / "negative.json"
        source.write_text(json.dumps(NEGATIVE_A))
        flags = ["--depth", "2", "--lbound", "3"]
        commands = [
            ["realize", "rank2", str(source), *flags],
            ["certify", "wfc", "--rank2", "--input", str(source), *flags],
            ["rank2", "build", "--input", str(source)],
        ]
        errors = []
        for argv in commands:
            assert main(argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors == ["structural error: A_0 must be nonnegative\n"] * 3

    def test_ok_report_of_negative_a_is_refused(self, capsys):
        # the ok report an earlier planner wrote for NEGATIVE_A at depth 2, lbound 3
        report = DATA / "negative_a_report.json"
        written = json.loads(report.read_text())
        assert written["status"] == "ok"
        assert written["input"] == NEGATIVE_A | {"orientation": "+1"}
        assert main(["verify-report", str(report)]) == 2
        assert "A_0 must be nonnegative" in capsys.readouterr().err


def _materialized_rank2_output(action, data, levels):
    """What the rank-2 tools print when they walk the diagram of build_rank2."""
    diagram = build_rank2(data, levels)
    if action == "build":
        return {"levels": [list(s) for s in diagram.cycle_sizes], "blue_edges": len(diagram.blue)}
    if action == "orders":
        orders = materialized_orders(diagram)
        return {
            "orders_per_level": {str(n): list(orders.orders_at(n)) for n in range(levels - 1)},
            "level_lcm": list(orders.level_lcm),
            "m": list(orders.m),
        }
    auto = materialized_automorphism(diagram)
    return {
        "m_sequence": list(auto.orders.m),
        "sample": {str(e.label): str(auto.blue_image(e.label)) for e in diagram.blue[:8]},
    }


class TestRank2CliMatchesMaterialized:
    @pytest.mark.parametrize("action", ["build", "orders", "automorphism"])
    @pytest.mark.parametrize(
        "data, levels",
        [(CONSTANT2, 6), (dataclasses.replace(CONSTANT2, orientation=-1), 6), (FIGURE, 3)],
        ids=["constant2", "constant2-reversed", "figure"],
    )
    def test_rank2_tools(self, action, data, levels, tmp_path):
        source, out = tmp_path / "data.json", tmp_path / "out.json"
        source.write_text(json.dumps(data.to_json()))
        argv = ["rank2", action, "--input", str(source), "--levels", str(levels)]
        assert main(argv + ["--out", str(out)]) == 0
        expected = _materialized_rank2_output(action, data, levels)
        assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "data, depth, lbound", [(CONSTANT2, 4, 10), (FIGURE_TAIL, 3, 5)], ids=["constant2", "figure-tail"]
    )
    def test_certify_wfc(self, data, depth, lbound, tmp_path):
        source, out = tmp_path / "data.json", tmp_path / "cert.json"
        source.write_text(json.dumps(data.to_json()))
        argv = ["certify", "wfc", "--rank2", "--input", str(source), "--depth", str(depth)]
        code = main(argv + ["--lbound", str(lbound), "--out", str(out)])
        tele = telescope_rank2(data, depth + 2)
        # the certificate computed from the orbit walk over the materialized F
        orders = materialized_orders(build_rank2(tele.telescoped, depth + 2))
        expected = check_wfc(orders, lbound)
        assert code == (0 if expected.is_certificate else 1)
        assert out.read_text() == json.dumps(expected.to_json(), indent=2, sort_keys=True) + "\n"


class TestLevelCap:
    """A command that walks to a level it is given refuses a level past
    ``matrices.LEVEL_CAP`` before any product, with exit 2 and the cap named,
    and walks to the cap itself; the inputs past it are never walked."""

    def _refused(self, argv, capsys) -> None:
        assert main(argv) == 2
        assert f"LEVEL_CAP = {matrices.LEVEL_CAP}" in capsys.readouterr().err

    def test_telescope(self, diagram_file, tmp_path, capsys):
        cap = matrices.LEVEL_CAP
        self._refused(["telescope", diagram_file, "--subsequence", f"0,{cap + 1}"], capsys)
        out = tmp_path / "cap.json"
        argv = ["telescope", diagram_file, "--subsequence", f"0,{cap}", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["edges"][0]["mult"] == 2**cap

    def test_ktheory(self, diagram_file, capsys):
        cap = matrices.LEVEL_CAP
        equal = ["ktheory", diagram_file, "--class", "0:0", "--op", "equal"]
        self._refused(equal + ["--other", f"{cap + 1}:1"], capsys)
        self._refused(equal + ["--other", "0:3", "--horizon", str(cap + 1)], capsys)
        positive = ["ktheory", diagram_file, "--corner", "0:2", "--op", "positive"]
        self._refused(positive + ["--horizon", str(cap + 1)], capsys)
        # at the cap: 2^cap against 1, and 1 against 3 pushed to the cap
        assert main(equal + ["--other", f"{cap}:1"]) == 1
        assert json.loads(capsys.readouterr().out)["level"] == cap
        assert main(equal + ["--other", "0:3", "--horizon", str(cap)]) == 1
        assert main(positive + ["--horizon", str(cap)]) == 0

    @pytest.mark.parametrize("action", ["build", "orders", "automorphism"])
    def test_rank2(self, action, rank2_file, capsys):
        # --levels N builds levels 0..N-1
        cap = matrices.LEVEL_CAP
        self._refused(["rank2", action, "--input", rank2_file, "--levels", str(cap + 2)], capsys)
        assert main(["rank2", action, "--input", rank2_file, "--levels", str(cap + 1)]) == 0

    def test_the_cap_is_read_at_each_call(self):
        d = constant_diagram(2)
        spec = dimension_group_of(d)
        one = DimGroupElement(0, (1,))
        refusal = "level 17 is past the level cap LEVEL_CAP = 16"
        with level_cap(16):
            for walk in (
                lambda level: path_count_matrix(d, 0, level),
                lambda level: dg_equal(spec, one, DimGroupElement(level, (2**level,)), 0),
                lambda level: canonical_rank2(CONSTANT2, level + 1),
            ):
                with pytest.raises(StructuralError, match=refusal):
                    walk(17)
                walk(16)


class TestCylinderCap:
    """A unit vector of more than ``pipeline.CYLINDER_CAP`` cylinder copies
    is refused before any list is built, by both planners and the report
    checker, with exit 2 and the cap named; the cap itself is planned."""

    def test_af_at_the_cap_and_one_past(self, diagram_file, tmp_path, capsys):
        cap = pipeline.CYLINDER_CAP
        out = tmp_path / "report.json"
        argv = ["realize", "af", diagram_file, "--depth", "2", "--lbound", "2", "--out", str(out)]
        for past in (cap + 1, 10**9):
            assert main(argv + ["--unit", f"0:{past}"]) == 2
            err = capsys.readouterr().err
            assert f"corner of {past} cylinders is past the cylinder cap CYLINDER_CAP = {cap}" in err
        assert not out.exists()
        assert main(argv + ["--unit", f"0:{cap}"]) == 0
        report = json.loads(out.read_text())
        assert report["corner"]["cylinders"][0]["copies"][-1] == cap
        assert main(["verify-report", str(out)]) == 0
        capsys.readouterr()
        report["corner"]["vector"] = [cap + 1]
        out.write_text(json.dumps(report))
        assert main(["verify-report", str(out)]) == 2
        assert f"CYLINDER_CAP = {cap}" in capsys.readouterr().err

    def test_both_planners_read_the_cap_at_each_call(self, monkeypatch):
        monkeypatch.setattr(pipeline, "CYLINDER_CAP", 3)
        refusal = "corner of 4 cylinders is past the cylinder cap CYLINDER_CAP = 3"
        for plan, source in (
            (plan_af_realization, constant_diagram(2)),
            (plan_rank2_realization, CONSTANT2),
        ):
            with pytest.raises(PipelineInputError, match=refusal):
                plan(source, unit_class=(0, [4]), depth=2, lbound=2)
            report = json.loads(json.dumps(plan(source, (0, [3]), depth=2, lbound=2).to_json()))
            report["corner"]["vector"] = [4]
            with pytest.raises(PipelineInputError, match=refusal):
                pipeline.first_wrong_field(report)


class TestCornerCapMutant:
    """A mutation gate for the cylinder cap: the tie mutant of
    ``pipeline._corner_spec`` refuses a corner of exactly ``CYLINDER_CAP``
    copies, which ``TestCylinderCap`` plans."""

    def cap_test(self, monkeypatch, new, diagram_file, tmp_path, capsys):
        old = "sum(vec) > CYLINDER_CAP"
        monkeypatch.setattr(pipeline, "_corner_spec", mutant(pipeline._corner_spec, old, new))
        TestCylinderCap().test_af_at_the_cap_and_one_past(diagram_file, tmp_path, capsys)

    def test_the_unmutated_source_passes(self, monkeypatch, diagram_file, tmp_path, capsys):
        self.cap_test(monkeypatch, "sum(vec) > CYLINDER_CAP", diagram_file, tmp_path, capsys)

    def test_the_tie_is_killed_at_the_cap(self, monkeypatch, diagram_file, tmp_path, capsys):
        # the corner of exactly CYLINDER_CAP copies exits 2 instead of 0
        with pytest.raises(AssertionError, match="assert 2 == 0"):
            self.cap_test(monkeypatch, "sum(vec) >= CYLINDER_CAP", diagram_file, tmp_path, capsys)


class TestRealize:
    def test_af_report(self, diagram_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "realize", "af", diagram_file, "--unit", "0:2",
                "--depth", "4", "--lbound", "5", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 2
        assert report["status"] == "ok"
        assert main(["verify-report", str(out)]) == 0

    def test_rank2_report(self, rank2_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "realize", "rank2", rank2_file,
                "--depth", "3", "--lbound", "6", "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["status"] == "ok"

    def test_rejected_input_exit_two(self, bad_diagram_file):
        assert main(["realize", "af", bad_diagram_file]) == 2

    def test_rank2_data_past_its_last_level_is_unknown(self, tmp_path, capsys):
        # three levels of data, no repetition rule: depth 3 needs five
        data = Rank2Data(A=(((2,),), ((2,),)), B=(((2,),), ((2,),)), T=((1,), (1,), (1,)))
        source, out = tmp_path / "data.json", tmp_path / "report.json"
        source.write_text(json.dumps(data.to_json()))
        assert main(["realize", "rank2", str(source), "--depth", "3", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["status"] == "unknown"
        assert "data horizon 2" in report["telescoping"]["failure"]
        assert main(["verify-report", str(out)]) == 0
        assert capsys.readouterr().out == "report re-verifies\n"

    def test_rank2_unit_class_checked_when_telescoping_stops_short(self, tmp_path, capsys):
        # FIGURE has no repetition rule and ends at level 2, short of depth 5
        source, out = tmp_path / "figure.json", tmp_path / "report.json"
        source.write_text(json.dumps(FIGURE.to_json()))
        argv = ["realize", "rank2", str(source), "--depth", "5", "--out", str(out)]
        assert main(argv + ["--unit", "0:-5"]) == 2
        assert "corner vector must be entrywise nonnegative" in capsys.readouterr().err
        # a vector that does not fit level 0, or a level past the K-theory
        # levels 0..6, is refused although the telescope stops short
        assert main(argv + ["--unit", "0:1,1"]) == 2
        assert "corner vector length must match the level size" in capsys.readouterr().err
        assert main(argv + ["--unit", "9:1"]) == 2
        assert "corner level 9 outside levels 0..6" in capsys.readouterr().err
        assert main(argv + ["--unit", "0:1"]) == 1
        report = json.loads(out.read_text())
        assert report["telescoping"]["complete"] is False
        assert report["corner"]["vector"] == [1]
        assert main(["verify-report", str(out)]) == 0

    @pytest.mark.parametrize("target", ["af", "rank2"])
    def test_without_lbound_the_planner_default_applies(
        self, target, diagram_file, rank2_file, tmp_path
    ):
        out = tmp_path / "report.json"
        source = diagram_file if target == "af" else rank2_file
        main(["realize", target, source, "--depth", "3", "--out", str(out)])
        if target == "af":
            expected = plan_af_realization(constant_diagram(2), depth=3)
        else:
            expected = plan_rank2_realization(CONSTANT2, depth=3)
        assert json.loads(out.read_text()) == expected.to_json()

    @pytest.mark.parametrize(
        "command, lbound",
        [
            (["realize", "rank2", "{rank2}"], "-2"),
            (["realize", "af", "{af}"], "0"),
            (["certify", "wfc", "--rank2", "--input", "{rank2}"], "-3"),
            (["certify", "wfc", "--input", "{af}"], "0"),
        ],
        ids=["realize-rank2", "realize-af", "certify-wfc-rank2", "certify-wfc-af"],
    )
    def test_nonpositive_lbound_exit_two(
        self, command, lbound, rank2_file, diagram_file, tmp_path, capsys
    ):
        out = tmp_path / "out.json"
        argv = [arg.format(rank2=rank2_file, af=diagram_file) for arg in command]
        assert main(argv + ["--lbound", lbound, "--out", str(out)]) == 2
        assert f"--lbound must be at least 1, got {lbound}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("depth", ["0", "-2"])
    @pytest.mark.parametrize(
        "command",
        [
            ["realize", "rank2", "{rank2}"],
            ["realize", "af", "{af}"],
            ["certify", "wfc", "--rank2", "--input", "{rank2}"],
            ["certify", "wfc", "--input", "{af}"],
        ],
        ids=["realize-rank2", "realize-af", "certify-wfc-rank2", "certify-wfc-af"],
    )
    def test_nonpositive_depth_exit_two(
        self, command, depth, rank2_file, diagram_file, tmp_path, capsys
    ):
        out = tmp_path / "out.json"
        argv = [arg.format(rank2=rank2_file, af=diagram_file) for arg in command]
        assert main(argv + ["--depth", depth, "--out", str(out)]) == 2
        assert f"error: --depth must be at least 1, got {depth}" in capsys.readouterr().err
        assert not out.exists()


# two vertices at each level, and only vertex 0 of level 0 sends edges:
# (0, 1) and (1, 1) break the receiver conditions
UNRECEIVED = {
    "levels": [{"size": 2}, {"size": 2}],
    "edges": [
        {"level": 0, "range": 0, "source": 0, "mult": 2},
        {"level": 0, "range": 0, "source": 1, "mult": 1},
    ],
    "repeat_from": 0,
}


class TestValidatingReader:
    """Every command that reads a diagram for more than its validation
    refuses one that fails validation, with the message of ``realize af``."""

    @pytest.mark.parametrize(
        "command",
        [
            ["telescope", "{file}", "--subsequence", "0,1,2"],
            ["ktheory", "{file}", "--class", "0:0", "--op", "positive"],
            ["certify", "lc", "--input", "{file}"],
        ],
        ids=["telescope", "ktheory", "certify-lc"],
    )
    def test_exit_two_as_realize_af(self, command, tmp_path, capsys):
        path = tmp_path / "unreceived.json"
        path.write_text(json.dumps(UNRECEIVED))
        assert main(["realize", "af", str(path)]) == 2
        refusal = capsys.readouterr()
        assert refusal.err.startswith("input rejected: input diagram fails validation:")
        assert "(0, 1)" in refusal.err and "(1, 1)" in refusal.err
        assert main([arg.format(file=path) for arg in command]) == 2
        assert capsys.readouterr() == refusal

    def test_the_af_plan_validates_once(self, monkeypatch):
        calls = []

        def counted(d):
            calls.append(d)
            return validate_bratteli(d)

        monkeypatch.setattr(pipeline, "validate_bratteli", counted)
        with pytest.raises(PipelineInputError, match="input diagram fails validation"):
            plan_af_realization(diagram_from_json(UNRECEIVED))
        assert plan_af_realization(constant_diagram(2), depth=2, lbound=3).ok
        assert len(calls) == 2


class TestMalformedCommandLine:
    """Run as the console script does, so an uncaught exception would show
    as a traceback on stderr."""

    @staticmethod
    def run(argv):
        src = str(Path(groupoid_forge.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "groupoid_forge.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )

    def assert_exit_two(self, argv, message):
        run = self.run(argv)
        assert run.returncode == 2
        assert message in run.stderr
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize(
        "name",
        ["1" + "+1" * 100000, "-" * 100000 + "1"],
        ids=["recursion-error", "memory-error"],
    )
    def test_overlong_name_stays_a_string(self, name, groupoid_file, tmp_path):
        # the literal parser gives up on these names with RecursionError and
        # MemoryError; they name no element, like any name that does not parse
        data = full_relation(range(2)).to_json()
        data["range"]["(0, 1)"] = name
        dump = tmp_path / "groupoid.json"
        dump.write_text(json.dumps(data))
        alpha = tmp_path / "alpha.json"
        alpha.write_text(json.dumps({"map": {name: name}}))
        twist = ["twist", "--H", groupoid_file, "--G", groupoid_file, "--alpha", str(alpha)]
        for argv in (["check-groupoid", str(dump)], twist):
            run = self.run(argv)
            assert run.returncode in (1, 2)
            assert "Traceback" not in run.stderr

    @pytest.mark.parametrize(
        "command, message",
        [
            (["ktheory", "{af}", "--op", "positive"], "needs --class"),
            (["ktheory", "{af}", "--class", "0:", "--op", "positive"], "expected level:"),
            (["certify", "wfc"], "certify wfc needs --input"),
            (["certify", "lc"], "certify lc needs --input"),
            (["certify", "lc", "--input", "{af}", "--depth", "3"], "does not read --depth"),
        ],
        ids=[
            "ktheory-no-class",
            "ktheory-empty-class",
            "certify-wfc-no-input",
            "certify-lc-no-input",
            "certify-lc-depth",
        ],
    )
    def test_exit_two_with_a_message(self, command, message, diagram_file):
        self.assert_exit_two([arg.format(af=diagram_file) for arg in command], message)

    @pytest.mark.parametrize(
        "command, field, value, message",
        [
            (["validate"], "edges", None, "edges must be a list of edge entries, got None"),
            (["realize", "af"], "edges", 3, "edges must be a list of edge entries, got 3"),
            (["validate"], "repeat_from", [0], "repeat_from must be an integer, got [0]"),
            (["realize", "af"], "repeat_from", [0], "repeat_from must be an integer, got [0]"),
            (["realize", "rank2"], "repeat_from", [0], "repeat_from must be an integer, got [0]"),
            (["verify-report"], "vector", 1, "corner.vector must be a list, got 1"),
        ],
        ids=[
            "validate-edges-null",
            "realize-af-edges-int",
            "validate-repeat-list",
            "realize-af-repeat-list",
            "realize-rank2-repeat-list",
            "verify-report-corner-vector-int",
        ],
    )
    def test_malformed_input_exit_two(self, command, field, value, message, tmp_path):
        if command[0] == "verify-report":
            data = plan_af_realization(constant_diagram(2), unit_class=(0, [2])).to_json()
            data["corner"][field] = value
        else:
            source = CONSTANT2 if command[-1] == "rank2" else constant_diagram(2)
            data = source.to_json() | {field: value}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        self.assert_exit_two([*command, str(path)], message)


class TestVerifyReport:
    @pytest.mark.parametrize("target", ["af", "rank2"])
    def test_edited_truncation_exit_one(self, target, diagram_file, rank2_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        source = diagram_file if target == "af" else rank2_file
        main(["realize", target, source, "--unit", "0:2", "--depth", "3", "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["stabilization"]["full_relation_truncation"] == 2
        report["stabilization"]["full_relation_truncation"] = 9
        out.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify-report", str(out)]) == 1
        assert capsys.readouterr().out == (
            "report FAILED re-verification at stabilization.full_relation_truncation\n"
        )

    def test_edited_witness_level_names_its_field(self, diagram_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["realize", "af", diagram_file, "--out", str(out)])
        report = json.loads(out.read_text())
        report["wfc"]["details"]["witness_level_per_shift"]["7"] += 1
        out.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify-report", str(out)]) == 1
        assert capsys.readouterr().out == (
            "report FAILED re-verification at wfc.details.witness_level_per_shift.7\n"
        )

    @pytest.mark.parametrize("depth", [0, -2])
    def test_report_with_nonpositive_depth_exit_two(self, depth, diagram_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["realize", "af", diagram_file, "--depth", "3", "--out", str(out)])
        report = json.loads(out.read_text())
        report["parameters"]["depth"] = depth
        out.write_text(json.dumps(report))
        assert main(["verify-report", str(out)]) == 2
        assert f"depth must be at least 1, got {depth}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("af", "wfc.shift_bound must be an integer, got 20.0"),
            ("rank2", "ktheory.m_sequence.0 must be an integer, got 0.0"),
        ],
    )
    def test_a_float_in_a_derived_field_exit_two(self, kind, message, tmp_path, capsys):
        # derived fields are compared by value, where 20.0 == 20 would pass
        if kind == "af":
            report = plan_af_realization(constant_diagram(2)).to_json()
            report["wfc"]["shift_bound"] = float(report["wfc"]["shift_bound"])
        else:
            report = plan_rank2_realization(CONSTANT2).to_json()
            report["ktheory"]["m_sequence"] = list(map(float, report["ktheory"]["m_sequence"]))
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert main(["verify-report", str(path)]) == 2
        assert capsys.readouterr().err == f"structural error: {message}\n"

    @pytest.mark.parametrize(
        "report, field",
        [
            ({"kind": "af"}, "input"),
            ({"kind": "graph", "input": {}}, "graph"),
            ({"kind": "rank2", "input": {}, "parameters": {"horizon": 3}}, "horizon"),
            ({"kind": "af", "input": {}, "parameters": {"depth": "3"}}, "depth"),
        ],
        ids=["missing-input", "unknown-kind", "unknown-parameter", "non-integer-parameter"],
    )
    def test_malformed_report_exit_two(self, report, field, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert main(["verify-report", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_report_of_another_schema_exit_two(self, tmp_path, capsys):
        # the untampered constant-2 report the schema-1 planner wrote at
        # depth 3, lbound 6: its input plans, but its layout is not compared
        report = DATA / "constant2_rank2_schema1_report.json"
        written = json.loads(report.read_text())
        assert (written["schema_version"], written["status"]) == (1, "ok")
        assert main(["verify-report", str(report)]) == 2
        assert capsys.readouterr().err == (
            "input rejected: report schema_version 1 is not 2, the schema this checker reads\n"
        )
        with pytest.raises(PipelineInputError, match="schema_version 1 is not 2"):
            pipeline.first_wrong_field(written)
        # the same input planned by this planner re-verifies
        fresh = plan_rank2_realization(CONSTANT2, depth=3, lbound=6).to_json()
        assert fresh["input"] == written["input"] and pipeline.first_wrong_field(fresh) is None
        for version in (3, True, None):
            path = tmp_path / "report.json"
            path.write_text(json.dumps({**fresh, "schema_version": version}))
            assert main(["verify-report", str(path)]) == 2
            assert f"schema_version {version!r} is not 2" in capsys.readouterr().err
