"""CLI tests for `repro lint` and the removed --no-static-prune flag."""

from pathlib import Path

import pytest

from repro.cli import EXIT_FAILURE, EXIT_INPUT, EXIT_OK, EXIT_USAGE, build_parser, main

FIXTURE = Path(__file__).parent / "fixtures" / "lint_demo.als"

CLEAN = """
sig Node { next: set Node }
pred hasNext { some n: Node | some n.next }
run hasNext for 3
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.als"
    path.write_text(CLEAN)
    return str(path)


class TestLintCommand:
    def test_fixture_reports_required_rules_with_positions(self, capsys):
        assert main(["lint", str(FIXTURE)]) == EXIT_FAILURE
        out = capsys.readouterr().out
        # The acceptance triple: disjoint-join, vacuous-quantifier, unused-decl.
        assert "A201" in out and "A203" in out and "A401" in out
        for line in out.splitlines():
            if line.startswith("A"):
                code, _severity, pos = line.split()[:3]
                line_no, column = pos.split(":")
                assert int(line_no) > 0 and int(column) > 0

    def test_clean_file_exits_zero(self, clean_file, capsys):
        assert main(["lint", clean_file]) == EXIT_OK
        assert "no findings" in capsys.readouterr().out

    def test_fail_on_threshold(self, capsys):
        # The fixture has errors, so even the laxest threshold fails ...
        assert main(["lint", str(FIXTURE), "--fail-on", "error"]) == EXIT_FAILURE
        capsys.readouterr()
        # ... and a spec with only INFO findings passes at `error`.

    def test_info_findings_pass_default_threshold(self, tmp_path, capsys):
        path = tmp_path / "hygiene.als"
        path.write_text(
            "sig A {}\nsig Orphan {}\npred p { some A }\nrun p for 3"
        )
        assert main(["lint", str(path)]) == EXIT_OK
        assert main(["lint", str(path), "--fail-on", "info"]) == EXIT_FAILURE
        capsys.readouterr()

    def test_registered_model_by_name(self, capsys):
        from repro.benchmarks.models.registry import all_models

        name = all_models()[0].name
        code = main(["lint", name])
        assert code in (EXIT_OK, EXIT_FAILURE)
        assert f"== {name}" in capsys.readouterr().out

    def test_all_models_lints_whole_corpus(self, capsys):
        from repro.benchmarks.models.registry import all_models

        # classroom_a's pinned disjoint-join finding (see test_corpus_lint)
        # makes the default error threshold fail; info obviously fails too.
        assert main(["lint", "--all-models"]) == EXIT_FAILURE
        out = capsys.readouterr().out
        assert out.count("== ") == len(all_models())

    def test_unknown_target(self, capsys):
        assert main(["lint", "definitely-not-a-model"]) == EXIT_INPUT

    def test_no_targets_is_usage_error(self, capsys):
        assert main(["lint"]) == EXIT_USAGE


class TestNoStaticPruneFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--no-static-prune"],
            ["table1", "--no-canon"],
            ["repair", "x.als", "--no-incremental"],
            ["serve", "--no-static-prune"],
        ],
    )
    def test_removed_evaluation_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_lint_parser_defaults(self):
        args = build_parser().parse_args(["lint", "x.als"])
        assert args.fail_on == "error" and not args.all_models
