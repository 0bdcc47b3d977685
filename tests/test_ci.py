"""The files CI reads: the list of CLI runs it compares, and its numerical gate."""

import subprocess
import sys
from pathlib import Path

import pytest

from splineforms import cli, harness
from splineforms.harness import CASES, CavityResult

GITHUB = Path(__file__).resolve().parents[1] / ".github"


def listed_runs():
    """(name, args) of each line of ``cli-runs.txt``, its ``#`` reason cut off."""
    lines = (GITHUB / "cli-runs.txt").read_text().splitlines()
    return [(words[0], words[1:]) for words in (line.partition("#")[0].split() for line in lines)
            if words]


RUNS = dict(listed_runs())


def test_every_listed_run_parses(monkeypatch):
    monkeypatch.chdir(GITHUB.parent)  # a --config path is relative to the checkout
    runs = listed_runs()
    assert len(RUNS) == len(runs), "run names repeat"
    for name, args in runs:
        assert "--out" not in args, name  # CI gives each run its own directory
        argv = ["run", *args, "--out", "unused"]
        config = cli._make_config(cli._build_parser()[0].parse_args(argv), argv)
        assert config.case == args[0], name


# the solve of each level: (precision, whether the band fell back, K's half-bandwidth)
BAND, FLOAT64 = "float32", "float64"
SOLVE_PATHS = {
    "c3-56": [(BAND, False, 481)],
    "tc2-4": [(BAND, False, 79), (BAND, False, 127), (BAND, False, 223), (BAND, False, 415)],
    "c6-6": [(FLOAT64, False, None)],  # nodal degree 7: no band attempt
    "tc3-3": [(BAND, False, 121), (BAND, False, 185), (FLOAT64, True, None)],
}


@pytest.mark.parametrize("name", SOLVE_PATHS)
def test_listed_run_takes_its_solve_path(name):
    # c6-6 and tc3-3 are the only runs on the float64 path that CI compares
    # with the base commit; a band rule that moved them off it fails here
    argv = ["run", *RUNS[name]]
    config = cli._make_config(cli._build_parser()[0].parse_args(argv), argv)
    result = getattr(harness, CASES[config.case].runner)(config)  # writes no file
    levels = [result] if isinstance(result, CavityResult) else result[0]
    got = [(r.stats["precision"], "float32_fallback_s" in r.stats,
            r.stats["factors"]["K"].get("half_bandwidth")) for r in levels]
    assert got == SOLVE_PATHS[name]


def close_outputs(tmp_path, head, base):
    """Exit code and output of ``close_outputs.py`` on run directories holding these files."""
    for side, files in (("head", head), ("base", base)):
        (tmp_path / side).mkdir()
        for file, text in files.items():
            (tmp_path / side / file).write_text(text)
    proc = subprocess.run([sys.executable, GITHUB / "close_outputs.py", tmp_path / "head",
                           tmp_path / "base"], capture_output=True, text=True)
    return proc.returncode, proc.stdout


META = "# splineforms 0.1.0 git {rev}\ncase=cavity\nout_dir={out}\nresidual=2.5 scale={scale}\n"
CSV = "level,h_max,err_w,err_u,err_p\n0,0.5,{err_w},0.25,{err_p}\n"


class TestCloseOutputs:
    def test_equal_files_pass(self, tmp_path):
        files = {"run_metadata.txt": META.format(rev="a", out="x", scale=1000),
                 "convergence.csv": CSV.format(err_w=0.125, err_p=0.5)}
        assert close_outputs(tmp_path, files, files)[0] == 0

    @pytest.mark.parametrize("move, code", [("2.5000000001", 0), ("2.50000001", 1)])
    def test_bound_is_relative_to_the_largest_value(self, tmp_path, move, code):
        # the file's largest value is 1000: 1e-10 is 1e-13 of it, 1e-8 is 1e-11
        base = {"run_metadata.txt": META.format(rev="a", out="x", scale=1000)}
        head = {"run_metadata.txt": base["run_metadata.txt"].replace("2.5 ", f"{move} ")}
        assert close_outputs(tmp_path, head, base)[0] == code

    @pytest.mark.parametrize("column", ["err_w", "err_p"])
    @pytest.mark.parametrize("move, code", [("1e-11", 0), ("2e-11", 1)])
    def test_noise_columns_move_by_an_absolute_bound(self, tmp_path, column, move, code):
        # the largest value is 0.5, so 1e-12 of it would not allow 1e-11
        base = {"convergence.csv": CSV.format(err_w=0, err_p=0)}
        head = {"convergence.csv": CSV.format(**{"err_w": 0, "err_p": 0, column: move})}
        assert close_outputs(tmp_path, head, base)[0] == code

    def test_other_columns_keep_the_relative_bound(self, tmp_path):
        # err_u moves by 5e-12, 1e-11 of the largest value: inside the noise
        # columns' absolute bound, outside the relative one
        base = {"convergence.csv": CSV.format(err_w=0, err_p=0)}
        head = {"convergence.csv": base["convergence.csv"].replace("0.25", "0.250000000005")}
        assert close_outputs(tmp_path, head, base)[0] == 1

    def test_missing_head_file_is_flagged(self, tmp_path):
        files = {"run_metadata.txt": META.format(rev="a", out="x", scale=1000)}
        code, out = close_outputs(tmp_path, {}, files)
        assert code == 1 and "missing" in out

    def test_changed_field_count_is_flagged(self, tmp_path):
        base = {"run_metadata.txt": META.format(rev="a", out="x", scale=1000)}
        head = {"run_metadata.txt": base["run_metadata.txt"] + "extra=1\n"}
        code, out = close_outputs(tmp_path, head, base)
        assert code == 1 and "other fields" in out

    def test_stamp_out_dir_and_stats_are_ignored(self, tmp_path):
        head = {"run_metadata.txt": META.format(rev="abc", out="head/run", scale=1000),
                "stats.json": "{}"}
        base = {"run_metadata.txt": META.format(rev="def 2", out="base", scale=1000)}
        assert close_outputs(tmp_path, head, base)[0] == 0
