import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import maup
from maup.cli import _config_from_args, build_parser, main, parse_sweep_config
from maup.phantom import Phantom, PhantomSpec, generate_phantom
from maup.simmaps import write_pgm
from maup.tensors import BitMask, load_tensor, save_tensor


GOLDEN = Path(__file__).parent / "golden"


def make_episode_files(tmp_path, seed=0):
    out = tmp_path / "ph"
    rc = main(["phantom", "--family", "disk", "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return out


def run_args(ph_dir, out_dir, *extra):
    return [
        "run",
        "--support-feat", str(ph_dir / "support_features.maup"),
        "--support-mask", str(ph_dir / "support_mask.maup"),
        "--query-feat", str(ph_dir / "query_features.maup"),
        "--out", str(out_dir),
        *extra,
    ]


def run_python_process(*argv):
    """Run a fresh interpreter that imports this checkout's maup."""
    src = str(Path(maup.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def run_cli_process(args):
    """Run the CLI as a fresh process, so a traceback would reach stderr."""
    return run_python_process("-m", "maup.cli", *args)


class TestRunCommand:
    def test_happy_path(self, tmp_path, capsys):
        ph = make_episode_files(tmp_path)
        rc = main(run_args(ph, tmp_path / "out", "--seed", "4", "--scale", "1"))
        assert rc == 0
        assert (tmp_path / "out" / "prompts.json").exists()
        assert "k_used=" in capsys.readouterr().out

    def test_k_used_is_the_adaptive_k_beyond_the_distinct_candidates(self, tmp_path):
        # gamma 1e6 drives the adaptive k to n_max; K-means keeps one prompt per distinct
        # candidate, so the mean-centroid prompts number the candidates while k_used stays k
        ph = make_episode_files(tmp_path, seed=7)
        rc = main(run_args(ph, tmp_path / "out", "--nmax", "100000", "--gamma", "1e6", "--scale", "1"))
        assert rc == 0
        record = json.loads((tmp_path / "out" / "prompts.json").read_text())
        assert record["k_used"] == 100000
        cfg = maup.PromptConfig(n_max=100000, gamma=1e6, scale=1)
        support = maup.prepare_support(
            load_tensor(ph / "support_features.maup"), load_tensor(ph / "support_mask.maup"), cfg
        )
        mean, _, _ = maup.query_maps(support, load_tensor(ph / "query_features.maup"), cfg)
        candidates = np.count_nonzero(mean.values >= record["tau_mean"])
        sources = [p["source"] for p in record["positives"]]
        assert sources.count("mean-centroid") == candidates < 100000

    def test_gt_evaluation_line(self, tmp_path, capsys):
        ph = make_episode_files(tmp_path)
        rc = main(
            run_args(ph, tmp_path / "out", "--scale", "1", "--query-gt", str(ph / "query_gt.maup"))
        )
        assert rc == 0
        assert "surrogate dice" in capsys.readouterr().out

    def test_gt_is_loaded_once(self, tmp_path, monkeypatch, capsys):
        ph = make_episode_files(tmp_path)
        loaded = []
        original = maup.tensors.load_tensor

        def counting(path, *args, **kwargs):
            loaded.append(Path(path).name)
            return original(path, *args, **kwargs)

        for module in [m for name, m in sys.modules.items() if name.startswith("maup")]:
            if getattr(module, "load_tensor", None) is original:
                monkeypatch.setattr(module, "load_tensor", counting)
        rc = main(run_args(ph, tmp_path / "out", "--query-gt", str(ph / "query_gt.maup")))
        assert rc == 0
        assert "surrogate dice vs ground truth: 1.0000" in capsys.readouterr().out
        assert sorted(loaded) == [
            "query_features.maup", "query_gt.maup", "support_features.maup", "support_mask.maup"
        ]

    @pytest.mark.parametrize("scale", [10**18, 10**20])
    def test_huge_scale_writes_exact_in_frame_coordinates(self, tmp_path, scale):
        # int64 arithmetic wrapped 10**18 to negative coordinates and overflowed on 10**20
        ph = make_episode_files(tmp_path)
        assert main(run_args(ph, tmp_path / "unit", "--scale", "1")) == 0
        proc = run_cli_process(run_args(ph, tmp_path / "out", "--scale", str(scale)))
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
        unit = json.loads((tmp_path / "unit" / "prompts.json").read_text())
        got = json.loads((tmp_path / "out" / "prompts.json").read_text())
        assert got["scale"] == scale and got["positives"]
        for side in ("positives", "negatives"):
            assert len(got[side]) == len(unit[side])
            for p, q in zip(got[side], unit[side]):
                assert (p["x"], p["y"]) == (q["x"] * scale + scale // 2, q["y"] * scale + scale // 2)
                assert 0 <= p["x"] < 32 * scale and 0 <= p["y"] < 32 * scale

    def test_no_np_flag(self, tmp_path):
        ph = make_episode_files(tmp_path)
        rc = main(run_args(ph, tmp_path / "out", "--no-np"))
        assert rc == 0
        data = json.loads((tmp_path / "out" / "prompts.json").read_text())
        assert data["negatives"] == []

    def test_heatmaps_flag(self, tmp_path):
        ph = make_episode_files(tmp_path)
        rc = main(run_args(ph, tmp_path / "out", "--heatmaps"))
        assert rc == 0
        assert (tmp_path / "out" / "mean.pgm").exists()

    @pytest.mark.parametrize("np_flag", [(), ("--no-np",)], ids=["np", "no-np"])
    def test_heatmaps_equal_the_episode_maps(self, tmp_path, np_flag):
        ph = make_episode_files(tmp_path)
        assert main(run_args(ph, tmp_path / "out", "--heatmaps", *np_flag)) == 0
        names = ("support_features", "support_mask", "query_features")
        tensors = [load_tensor(ph / f"{name}.maup") for name in names]
        cfg = _config_from_args(build_parser().parse_args(run_args(ph, tmp_path / "out", *np_flag)))
        res = maup.execute_episode(*tensors, cfg)
        maps = {"mean": res.mean, "uncertainty": res.uncertainty, "negative": res.negative}
        assert (maps["negative"] is None) == bool(np_flag)
        for name, values in maps.items():
            got = tmp_path / "out" / f"{name}.pgm"
            if values is None:
                assert not got.exists()
                continue
            write_pgm(values, tmp_path / f"{name}.pgm")
            assert got.read_bytes() == (tmp_path / f"{name}.pgm").read_bytes()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(
            [
                "run",
                "--support-feat", str(tmp_path / "missing.maup"),
                "--support-mask", str(tmp_path / "missing.maup"),
                "--query-feat", str(tmp_path / "missing.maup"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_empty_support_mask_exits_two_with_stage(self, tmp_path, capsys):
        ph = make_episode_files(tmp_path)
        empty = BitMask(np.zeros((32, 32), dtype=np.uint8))
        save_tensor(empty, ph / "support_mask.maup")
        rc = main(run_args(ph, tmp_path / "out"))
        assert rc == 2
        assert "RPG: empty foreground" in capsys.readouterr().err

    def test_full_frame_mask_prints_periphery_flag(self, tmp_path, capsys):
        ph = make_episode_files(tmp_path)
        full = BitMask(np.ones((32, 32), dtype=np.uint8))
        save_tensor(full, ph / "support_mask.maup")
        rc = main(run_args(ph, tmp_path / "out", "--scale", "1"))
        assert rc == 0
        assert "np-disabled-empty-periphery" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "slot, wrong_file",
        [("--support-feat", "support_mask.maup"), ("--query-gt", "query_features.maup")],
    )
    def test_swapped_tensor_type_exits_two_without_traceback(self, tmp_path, slot, wrong_file):
        ph = make_episode_files(tmp_path)
        args = run_args(ph, tmp_path / "out", "--query-gt", str(ph / "query_gt.maup"))
        args[args.index(slot) + 1] = str(ph / wrong_file)
        proc = run_cli_process(args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "caller requested" in proc.stderr

    @pytest.mark.parametrize(
        "flags", [("--nmin", "0", "--gamma", "0.01"), ("--nmin", "0", "--nmax", "0")]
    )
    def test_nmin_below_one_exits_two_without_traceback(self, tmp_path, flags):
        ph = make_episode_files(tmp_path)
        proc = run_cli_process(run_args(ph, tmp_path / "out", "--scale", "1", *flags))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "n_min" in proc.stderr

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus"])
        assert exc.value.code == 1

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


class TestPhantomCommand:
    def test_writes_all_tensors(self, tmp_path, capsys):
        out = tmp_path / "ph"
        rc = main(["phantom", "--family", "annulus", "--seed", "3", "--out", str(out)])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "support_features.maup",
            "support_mask.maup",
            "query_features.maup",
            "query_gt.maup",
            "query_intensity.maup",
        }
        ph = generate_phantom(PhantomSpec("annulus", seed=3))
        order = [f.name for f in fields(Phantom)]
        for name in order:
            want = getattr(ph, name)
            got = load_tensor(out / f"{name}.maup")
            assert type(got) is type(want)
            (want_arr,), (got_arr,) = (tuple(vars(t).values()) for t in (want, got))
            assert (got_arr.dtype, got_arr.shape) == (want_arr.dtype, want_arr.shape)
            assert got_arr.tobytes() == want_arr.tobytes()
        assert capsys.readouterr().out == "".join(f"wrote {name}: {out / name}.maup\n" for name in order)

    def test_unknown_family_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["phantom", "--family", "cube", "--out", "/tmp/x"])
        assert exc.value.code == 1


class TestAblateCommand:
    def write_config(self, tmp_path, text):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        return cfg

    def test_sweep_rows(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            """
            # two toggle rows, two region counts, three seeds
            families = disk
            toggles = mmp+ump | mmp+ump+np
            nf = 5, 30
            seeds = 3
            """,
        )
        out = tmp_path / "report.csv"
        rc = main(["ablate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 1 * 2 * 2 * 3
        assert "mean dice" in capsys.readouterr().out

    def test_overflowing_noise_fails_every_cell_under_warnings_as_errors(self, tmp_path):
        # the phantom's noise overflows to inf: every cell keeps its row with the one failure note
        cfg = self.write_config(tmp_path, "families = disk, annulus\nnf = 1, 5\nseeds = 2\nnoise = 1e300\n")
        out = tmp_path / "report.csv"
        args = ["ablate", "--config", str(cfg), "--out", str(out)]
        proc = run_python_process("-W", "error", "-m", "maup.cli", *args)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        rows = [row.split(",", 7) for row in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 * 2 * 2
        assert {(dice, status) for *_, dice, status in rows} == {
            ("", "failed: feature map contains non-finite values")
        }

    def test_seed_list_syntax(self, tmp_path):
        cfg = self.write_config(tmp_path, "families = disk\nseeds = 1, 3, 5\n")
        out = tmp_path / "report.csv"
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert {l.split(",")[5] for l in lines[1:]} == {"1", "3", "5"}

    def test_seed_range_syntax(self, tmp_path):
        cfg = self.write_config(tmp_path, "families = disk\nseeds = 5..7\n")
        out = tmp_path / "report.csv"
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        assert {l.split(",")[5] for l in lines[1:]} == {"5", "6", "7"}

    def test_bad_toggle_exits_two(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "toggles = np\n")
        rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "positive paths" in capsys.readouterr().err

    def test_unknown_toggle_name_exits_two(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "toggles = mmp+xyz\n")
        rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "xyz" in capsys.readouterr().err

    def test_workers_flag_is_a_usage_error(self, tmp_path):
        cfg = self.write_config(tmp_path, "families = disk\n")
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "r.csv"), "--workers", "2"])
        assert exc.value.code == 1

    def test_bad_config_line(self, tmp_path):
        cfg = self.write_config(tmp_path, "families disk\n")
        rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert rc == 2

    def test_parse_sweep_config_roundtrip(self, tmp_path):
        cfg = self.write_config(tmp_path, "a = 1\nb = two  # comment\n\n# full comment\n")
        assert parse_sweep_config(cfg) == {"a": "1", "b": "two"}

    def test_unknown_family_in_config(self, tmp_path):
        cfg = self.write_config(tmp_path, "families = blob\n")
        rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert rc == 2

    def test_nmin_below_one_exits_two_without_traceback(self, tmp_path):
        cfg = self.write_config(tmp_path, "families = disk\nnmin = 0\nnmax = 0\n")
        proc = run_cli_process(["ablate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "n_min" in proc.stderr

    @pytest.mark.parametrize("line", ["families = ,", "toggles = |"])
    def test_empty_family_or_toggle_list_exits_two_without_traceback(self, tmp_path, line):
        cfg = self.write_config(tmp_path, line + "\n")
        proc = run_cli_process(["ablate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "at least one family and one toggle row" in proc.stderr

    @pytest.mark.parametrize("line", ["gamma = abc", "seeds = x..y", "nf = 1, two"])
    def test_bad_numeric_values_exit_two(self, tmp_path, line, capsys):
        cfg = self.write_config(tmp_path, line + "\n")
        rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestBadValuesExitTwo:
    """Values that pass argparse but no dataclass check give one error line, never a traceback."""

    def assert_one_line_error(self, proc, command, *words):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"maup {command}: error:")
        for word in words:
            assert word in lines[0]

    @pytest.mark.parametrize(
        "flags, word",
        [(("--seed", "-1"), "seed"), (("--gamma", "inf"), "gamma"), (("--gamma", "nan"), "gamma")],
        ids=["negative-seed", "inf-gamma", "nan-gamma"],
    )
    def test_run(self, tmp_path, flags, word):
        ph = make_episode_files(tmp_path)
        proc = run_cli_process(run_args(ph, tmp_path / "out", *flags))
        self.assert_one_line_error(proc, "run", word)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, word",
        [
            (("--seed", "-1"), "seed"),
            (("--size", "1" + "0" * 30), "size"),  # past numpy's array index limit
            (("--channels", "1" + "0" * 30), "channels"),
            (("--channels", "1" + "0" * 14), "out of memory"),  # petabytes: numpy fails before allocating
        ],
        ids=["negative-seed", "unindexable-size", "unindexable-channels", "unallocatable-channels"],
    )
    def test_phantom(self, tmp_path, flags, word):
        proc = run_cli_process(["phantom", "--family", "disk", *flags, "--out", str(tmp_path / "ph")])
        self.assert_one_line_error(proc, "phantom", word)
        assert not (tmp_path / "ph").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_phantom_non_finite_noise(self, tmp_path, noise):
        out = tmp_path / "ph"
        proc = run_cli_process(["phantom", "--family", "disk", "--noise", noise, "--out", str(out)])
        self.assert_one_line_error(proc, "phantom", "noise")
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["1e300", "1e308"])
    def test_phantom_overflowing_noise_under_warnings_as_errors(self, tmp_path, noise):
        # the noise overflows float32 (or float64) to inf: the one error line, not a RuntimeWarning
        out = tmp_path / "ph"
        args = ["phantom", "--family", "disk", "--noise", noise, "--out", str(out)]
        proc = run_python_process("-W", "error", "-m", "maup.cli", *args)
        self.assert_one_line_error(proc, "phantom", "non-finite")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, words",
        [
            ("families = disk\nseeds = -2..-1\n", ("seed",)),
            ("families = disk\ngamma = inf\n", ("gamma",)),
            ("families = disk\ngama = 7\n", ("unknown key", "gama")),
            ("families = disk\nscale = 14\n", ("unknown key", "scale")),
            ("families = disk\nseeds = 1\nthreshold = nan\n", ("threshold",)),
            ("families = disk\nseeds = 1\nthreshold = inf\n", ("threshold",)),
            ("families = disk\nseeds = 1\nnoise = nan\n", ("noise",)),
            ("families = disk\nseeds = 0\n", ("seed",)),
            ("families = disk\nseeds = 3..1\n", ("seed",)),
            ("families = disk\nchannels = 100000000000000\n", ("out of memory", "PiB")),
            ("families = disk\nseeds = 0..1000000000000000\n", ("out of memory",)),
            (b"families = disk\nseeds = 1  # \xff\n", ("sweep.cfg", "not UTF-8")),
            ("families = disk\nnf = 1, 5\nnf = 30\n", ("sweep.cfg:3", "key 'nf' is set twice")),
            ("families = disk\nseeds = 100000000000000000000\n", ("bad sweep list",)),  # past ssize_t
            ("families = disk\nseeds = 0..100000000000000000000\n", ("bad sweep list",)),
        ],
        ids=["negative-seeds", "inf-gamma", "misspelt-key", "per-cell-key", "nan-threshold",
             "inf-threshold", "nan-noise", "zero-seeds", "empty-seed-range", "unallocatable-channels",
             "unallocatable-seed-list", "non-utf8-bytes", "repeated-key", "huge-seed-count",
             "huge-seed-range"],
    )
    def test_ablate(self, tmp_path, text, words):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        proc = run_cli_process(["ablate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        self.assert_one_line_error(proc, "ablate", *words)
        assert not (tmp_path / "r.csv").exists()


def test_flags_take_their_defaults_from_the_dataclasses():
    run = build_parser().parse_args(run_args(Path("ph"), Path("out")))
    assert _config_from_args(run) == maup.PromptConfig()
    phantom = build_parser().parse_args(["phantom", "--family", "disk", "--out", "d"])
    spec = maup.PhantomSpec("disk")
    assert (phantom.seed, phantom.size, phantom.channels, phantom.contrast, phantom.noise) == (
        spec.seed, spec.size, spec.channels, spec.contrast, spec.noise
    )


def test_import_loads_no_scipy():
    proc = run_python_process(
        "-c",
        "import sys, maup, maup.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestReadmeSweep:
    """The README's sweep config, run as ``maup ablate`` in a fresh process."""

    def test_config_is_the_readme_example(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        assert (GOLDEN / "ablation_readme.cfg").read_text() in readme

    def test_csv_bytes_equal_the_golden_file(self, tmp_path):
        out = tmp_path / "report.csv"
        proc = run_cli_process(["ablate", "--config", str(GOLDEN / "ablation_readme.cfg"), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert "wrote 600 rows (0 failed)" in proc.stdout
        assert out.read_bytes() == (GOLDEN / "ablation_readme.csv").read_bytes()


class TestFourFamilySweep:
    """Every phantom family at the ``sweep-toy`` shape, run as ``maup ablate`` in a fresh process.

    The golden CSV was written before sweep cells shared their query side
    (one float64 query, one component labelling and one map epilogue per
    sibling pair), and that sharing must leave it byte for byte.
    """

    def test_csv_bytes_equal_the_golden_file(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = GOLDEN / "ablation_four_families.cfg"
        proc = run_cli_process(["ablate", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert "wrote 300 rows (0 failed)" in proc.stdout
        assert out.read_bytes() == (GOLDEN / "ablation_four_families.csv").read_bytes()
