"""End-to-end tests of the command-line interface (in-process)."""

import contextlib
import io
import json
import multiprocessing
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import latile.cli
from latile.ball import generate_ball
from latile.cli import main
from latile.construct import golay11_tiling
from latile.tiling import TilingHomomorphism, verify_tiling

from helpers import map_documents


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstructVerify:
    def test_construct_writes_valid_map(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        code, stdout, _ = run(capsys, "construct", "golay11", "-o", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 11
        assert payload["group"] == {"invariant_factors": [3, 3, 3, 3, 3]}
        assert len(payload["images"]) == 11

    def test_construct_then_verify_via_file(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        assert run(capsys, "construct", "golay11", "-o", str(out))[0] == 0
        code, stdout, _ = run(capsys, "verify", str(out))
        assert code == 0
        report = json.loads(stdout)
        assert report["bijective"] is True
        assert report["collision_count"] == 0

    def test_verify_reads_stdin_with_dash(self, capsys, tmp_path, monkeypatch):
        code, stdout, _ = run(capsys, "construct", "golay11")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(stdout))
        code, stdout, _ = run(capsys, "verify", "-")
        assert code == 0
        assert json.loads(stdout)["bijective"] is True

    def test_corrupted_map_fails_verification_with_exit_1(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        run(capsys, "construct", "golay11", "-o", str(out))
        payload = json.loads(out.read_text())
        payload["images"][0] = [1, 1, 0, 0, 0]
        out.write_text(json.dumps(payload))
        code, stdout, _ = run(capsys, "verify", str(out))
        assert code == 1
        report = json.loads(stdout)
        assert report["bijective"] is False
        assert report["collision_count"] > 0

    def test_verify_with_explicit_ball_parameters(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        run(capsys, "construct", "golay11", "-o", str(out))
        code, stdout, _ = run(capsys, "verify", str(out), "--ball", "11,2,1,1")
        assert code == 0

    def test_missing_file_is_an_internal_error(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 3
        assert "latile: error" in stderr

    def test_size_mismatch_report_is_the_verifiers(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        run(capsys, "construct", "golay11", "-o", str(out))
        code, stdout, _ = run(capsys, "verify", str(out), "--ball", "11,1,1,1")
        assert code == 1
        report = verify_tiling(golay11_tiling(), generate_ball(11, 1, 1, 1))
        assert stdout == json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        assert report.reason == "group order 243 != ball size 23"

    @pytest.mark.parametrize(
        "document, ball, reason",
        [
            (None, ["--ball", "11,2,1000000,0"], "group order 243 != ball size 55000011000001"),
            (
                {"n": 2000, "group": {"invariant_factors": [3]}, "images": [[1]] * 2000},
                [],
                "group order 3 != ball size 8000001",
            ),
        ],
        ids=["ball-option", "default-ball"],
    )
    def test_ball_size_is_checked_before_the_ball_is_built(
        self, capsys, tmp_path, monkeypatch, document, ball, reason
    ):
        out = tmp_path / "map.json"
        if document is None:
            run(capsys, "construct", "golay11", "-o", str(out))
        else:
            out.write_text(json.dumps(document))

        def no_ball(*args):
            raise AssertionError(f"generate_ball{args} was called")

        monkeypatch.setattr(latile.cli, "generate_ball", no_ball)
        code, stdout, _ = run(capsys, "verify", str(out), *ball)
        assert code == 1
        assert json.loads(stdout)["reason"] == reason


class TestSearchCommand:
    def test_n3_json_payload(self, capsys):
        code, stdout, _ = run(capsys, "search", "-n", "3", "--no-reduce")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["n"] == 3
        assert payload["candidates_tested"] == [84]
        assert payload["solutions"] == []
        assert payload["reduced"] is False

    def test_output_deterministic_up_to_timing(self, capsys):
        _, first, _ = run(capsys, "search", "-n", "3")
        _, second, _ = run(capsys, "search", "-n", "3")
        a, b = json.loads(first), json.loads(second)
        a.pop("meta")
        b.pop("meta")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_budget_exhaustion_maps_to_internal_error(self, capsys):
        code, _, stderr = run(capsys, "search", "-n", "11")
        assert code == 3
        assert "budget" in stderr.lower()

    @pytest.mark.parametrize("n", ["1222", "2000"])
    def test_budget_refusal_of_a_count_too_long_to_print(self, capsys, n):
        # from n = 1222 on, C(n^2, n) has more digits than Python prints
        code, stdout, stderr = run(capsys, "search", "-n", n)
        assert code == 3
        assert stdout == ""
        assert "budget" in stderr.lower()

    def test_writes_to_file(self, capsys, tmp_path):
        out = tmp_path / "search.json"
        code, _, _ = run(capsys, "search", "-n", "3", "-o", str(out))
        assert code == 0
        assert json.loads(out.read_text())["candidates_tested"] == [84]

    def test_thread_env_override(self, capsys, monkeypatch):
        monkeypatch.setattr(latile.cli.os, "cpu_count", lambda: 4)
        monkeypatch.setenv("LATILE_THREADS", "2")
        code, stdout, _ = run(capsys, "search", "-n", "4")
        assert code == 0
        assert json.loads(stdout)["candidates_tested"] == [1820]

    def test_search_is_serial_unless_asked(self, capsys, monkeypatch):
        # Unset LATILE_THREADS: serial at every n, even where workers pay
        # (n = 9); a set value always wins.
        seen = []
        real_search = latile.cli.search_tilings

        def spy(n, **kwargs):
            seen.append((n, kwargs["threads"]))
            return real_search(3, **{**kwargs, "threads": 1})

        monkeypatch.setattr(latile.cli, "search_tilings", spy)
        monkeypatch.setattr(latile.cli.os, "cpu_count", lambda: 4)
        monkeypatch.delenv("LATILE_THREADS", raising=False)
        for n in ("3", "7", "9"):
            assert run(capsys, "search", "-n", n)[0] == 0
        monkeypatch.setenv("LATILE_THREADS", "2")
        assert run(capsys, "search", "-n", "3")[0] == 0
        assert seen == [(3, 1), (7, 1), (9, 1), (3, 2)]


class TestCertifyCommand:
    def test_nonexistence_case(self, capsys):
        code, stdout, _ = run(capsys, "certify", "-n", "3")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["conclusion"] == "NONEXISTENCE"
        assert payload["p"] == 19
        assert payload["a"] == "infinite"

    def test_inapplicable_case_still_exits_zero(self, capsys):
        code, stdout, _ = run(capsys, "certify", "-n", "11")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["conclusion"] == "INAPPLICABLE"
        assert payload["admissible_primes"] == []
        assert payload["order"] == 243

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code, _, _ = run(capsys, "certify", "-n", "5", "-o", str(out))
        assert code == 0
        assert json.loads(out.read_text())["p"] == 17


class TestAnalyzeCommand:
    def test_full_report_on_valid_map(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        run(capsys, "construct", "golay11", "-o", str(out))
        code, stdout, _ = run(capsys, "analyze", str(out))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["tiling_conditions"]["passed"] is True
        assert payload["spectrum"]["partition"] == {"2": 220, "3": 22, "23": 1}
        assert payload["cube_multiplicity"]["matches"] is True
        assert payload["congruences"]["cubic"]["holds"] is True
        assert payload["congruences"]["quartic"]["holds"] is True
        assert payload["partial_difference_set"]["passed"] is True

    def test_analyze_collision_map_reports_instead_of_crashing(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        run(capsys, "construct", "golay11", "-o", str(out))
        payload = json.loads(out.read_text())
        payload["images"][1] = payload["images"][0]
        out.write_text(json.dumps(payload))
        code, stdout, _ = run(capsys, "analyze", str(out))
        assert code == 0
        report = json.loads(stdout)
        assert "code_set_error" in report

    def test_exception_without_a_message_is_named(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "map.json"
        run(capsys, "construct", "golay11", "-o", str(out))

        def out_of_memory(phi):
            raise MemoryError()

        monkeypatch.setattr(latile.cli, "induced_code_set", out_of_memory)
        code, stdout, stderr = run(capsys, "analyze", str(out))
        assert code == 3
        assert stdout == ""
        assert stderr == "latile: error: MemoryError\n"

    def test_group_order_is_checked_before_the_code_set_is_built(self, capsys, tmp_path):
        # Z_(10^15) is not of order 2*3^2+1; the dense code set, one
        # coefficient per element, would not fit in memory.
        out = tmp_path / "map.json"
        out.write_text(
            json.dumps({"n": 3, "group": {"invariant_factors": [10**15]}, "images": [[1], [2], [4]]})
        )
        code, stdout, stderr = run(capsys, "analyze", str(out))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("latile: error: ")
        assert "2*3^2+1 = 19" in stderr


class TestBallCommand:
    def test_small_ball(self, capsys):
        code, stdout, _ = run(capsys, "ball", "-n", "3", "-t", "2", "--kplus", "1", "--kminus", "1")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["n"] == 3
        assert len(payload["vectors"]) == 19

    def test_invalid_parameters_are_a_usage_error(self, capsys):
        code, _, stderr = run(capsys, "ball", "-n", "2", "-t", "3", "--kplus", "1", "--kminus", "1")
        assert code == 2
        assert "latile: error: ball: need n >= t >= 0, got n=2, t=3" in stderr


class TestBadInput:
    GOLAY = {"n": 11, "group": {"invariant_factors": [3, 3, 3, 3, 3]}, "images": [[0] * 5] * 11}

    def run_verify(self, capsys, tmp_path, text):
        path = tmp_path / "map.json"
        path.write_text(text)
        return run(capsys, "verify", str(path))

    def test_invalid_json_is_a_usage_error(self, capsys, tmp_path):
        code, _, stderr = self.run_verify(capsys, tmp_path, '{"n": 11,')
        assert code == 2
        assert "not valid JSON" in stderr

    def test_undecodable_bytes_are_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        path.write_bytes(b"\xff\xfe{}")
        code, _, stderr = run(capsys, "verify", str(path))
        assert code == 2
        assert "not valid JSON" in stderr

    @pytest.mark.parametrize("key", ["group", "images", "n"])
    def test_missing_key_is_named(self, capsys, tmp_path, key):
        payload = dict(self.GOLAY)
        del payload[key]
        code, _, stderr = self.run_verify(capsys, tmp_path, json.dumps(payload))
        assert code == 2
        assert f"missing '{key}'" in stderr

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", "eleven"),
            ("n", 11.5),
            ("n", True),
            ("group", 5),
            ("group", {"invariant_factors": "3,3"}),
            ("images", "x"),
            ("images", [[0, 0, 0, 0, "0"]]),
        ],
    )
    def test_wrong_type_is_named(self, capsys, tmp_path, key, value):
        payload = dict(self.GOLAY, **{key: value})
        code, _, stderr = self.run_verify(capsys, tmp_path, json.dumps(payload))
        assert code == 2
        assert f"'{key}' must" in stderr

    def test_not_an_object(self, capsys, tmp_path):
        code, _, stderr = self.run_verify(capsys, tmp_path, "[1, 2]")
        assert code == 2
        assert "expected a JSON object" in stderr

    def test_inconsistent_map_is_a_usage_error(self, capsys, tmp_path):
        payload = dict(self.GOLAY, images=[[0, 0, 0]] * 11)
        code, _, stderr = self.run_verify(capsys, tmp_path, json.dumps(payload))
        assert code == 2
        assert "residues" in stderr

    def test_analyze_and_stdin_share_the_loader(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "map.json"
        path.write_text("{}")
        assert run(capsys, "analyze", str(path))[0] == 2
        monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
        code, _, stderr = run(capsys, "verify", "-")
        assert code == 2
        assert "standard input is not valid JSON" in stderr

    @settings(max_examples=300, deadline=None)
    @given(map_documents)
    def test_verify_on_arbitrary_json_loads_or_exits_2(self, document):
        """A document the loader accepts is verified (exit 0 or 1, or 2 for a
        dimension with no default ball); any other exits 2 with a message.
        Never exit 3, whatever the JSON holds."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(json.dumps(document))):
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["verify", "-"])
        try:
            phi = TilingHomomorphism.from_dict(document)
        except ValueError:
            phi = None
        if phi is None or phi.n < 2:
            assert code == 2
            assert stdout.getvalue() == ""
            assert stderr.getvalue().startswith("latile: error: ")
        else:
            assert code in (0, 1)
            assert json.loads(stdout.getvalue())["bijective"] is (code == 0)

    @settings(max_examples=300, deadline=None)
    @given(map_documents)
    def test_analyze_on_arbitrary_json_reports_or_exits_2(self, document):
        """A document the loader accepts, over a group of order 2n^2+1, gets
        a report (exit 0); any other exits 2 with a message.  The order is
        checked first, so factors of any size are safe.  Never exit 3."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(json.dumps(document))):
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["analyze", "-"])
        try:
            phi = TilingHomomorphism.from_dict(document)
        except ValueError:
            phi = None
        if phi is not None and phi.spec.order == 2 * phi.n**2 + 1:
            assert code == 0
            assert json.loads(stdout.getvalue())["n"] == phi.n
        else:
            assert code == 2
            assert stdout.getvalue() == ""
            assert stderr.getvalue().startswith("latile: error: ")

    @settings(max_examples=300, deadline=None)
    @given(
        st.text()
        | st.lists(
            st.integers(min_value=0, max_value=11) | st.integers(), min_size=1, max_size=6
        ).map(lambda parts: ",".join(map(str, parts)))
        | st.lists(st.integers(), min_size=3, max_size=3).map(
            lambda parts: ",".join(map(str, [11, *parts]))
        )
    )
    def test_verify_with_arbitrary_ball_text_never_exits_3(self, text):
        """latile verify <golay map> --ball <text> gives a report (exit 0 or
        1) or exits 2 with a message.  The ball's closed-form size is checked
        against the group order first, so integers of any size are safe."""
        stdout, stderr = io.StringIO(), io.StringIO()
        golay = json.dumps(golay11_tiling().as_dict())
        with mock.patch("sys.stdin", io.StringIO(golay)):
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["verify", "-", f"--ball={text}"])
        if code == 2:
            assert stdout.getvalue() == ""
            assert stderr.getvalue().startswith("latile: error: ")
        else:
            assert code in (0, 1)
            assert json.loads(stdout.getvalue())["bijective"] is (code == 0)

    @pytest.mark.parametrize("value", ["x", "0", "-1", "1.5", "²"])
    def test_bad_thread_count_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("LATILE_THREADS", value)
        code, stdout, stderr = run(capsys, "search", "-n", "3")
        assert code == 2
        assert stdout == ""
        assert "LATILE_THREADS must be a positive integer" in stderr

    @pytest.mark.parametrize("cores, value, named", [(4, "5", 4), (4, "100000", 4), (None, "2", 1)])
    def test_thread_count_above_the_cores_is_a_usage_error(
        self, capsys, monkeypatch, cores, value, named
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        monkeypatch.setattr(latile.cli.os, "cpu_count", lambda: cores)
        monkeypatch.setenv("LATILE_THREADS", value)
        code, stdout, stderr = run(capsys, "search", "-n", "3")
        assert code == 2
        assert stdout == ""
        assert f"LATILE_THREADS={value} exceeds the core count, {named}" in stderr


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["search", "-n", "2"], "argument -n: expected an integer >= 3, got '2'"),
            (["certify", "-n", "2"], "argument -n: expected an integer >= 3, got '2'"),
            (["search", "-n", "x"], "argument -n: expected an integer >= 3, got 'x'"),
            (["search", "-n", "3", "--budget", "0"], "argument --budget: expected an integer >= 1"),
        ],
    )
    def test_out_of_range_flags_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_ball_spec_on_verify(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        run(capsys, "construct", "golay11", "-o", str(out))
        code, _, stderr = run(capsys, "verify", str(out), "--ball", "11,2,1")
        assert code == 2
        assert "--ball expects four comma-separated integers" in stderr

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("", "four comma-separated integers"),
            ("11,2,1,1,1", "four comma-separated integers"),
            ("11,two,1,1", "four comma-separated integers"),
            ("11,2,1.5,1", "four comma-separated integers"),
            ("11,12,1,1", "need n >= t >= 0"),
            ("11,2,1,2", "need k_plus >= k_minus >= 0"),
            ("3,2,1,1", "--ball dimension 3 != map dimension 11"),
        ],
    )
    def test_ball_faults_are_named(self, capsys, tmp_path, spec, message):
        out = tmp_path / "map.json"
        run(capsys, "construct", "golay11", "-o", str(out))
        code, stdout, stderr = run(capsys, "verify", str(out), "--ball", spec)
        assert code == 2
        assert stdout == ""
        assert message in stderr

    def test_map_of_dimension_one_needs_a_ball(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        out.write_text(json.dumps({"n": 1, "group": {"invariant_factors": [3]}, "images": [[1]]}))
        code, stdout, stderr = run(capsys, "verify", str(out))
        assert code == 2
        assert stdout == ""
        assert "map dimension 1 has no default ball (need n >= t >= 0" in stderr
        assert "use --ball" in stderr
        code, stdout, _ = run(capsys, "verify", str(out), "--ball", "1,1,1,1")
        assert code == 0
        assert json.loads(stdout)["bijective"] is True


def test_console_json_round_trips_through_schema(capsys, tmp_path):
    from latile.tiling import TilingHomomorphism

    code, stdout, _ = run(capsys, "construct", "golay11")
    assert code == 0
    phi = TilingHomomorphism.from_dict(json.loads(stdout))
    assert phi.as_dict() == json.loads(stdout)
