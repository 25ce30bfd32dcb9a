"""The three workloads: what each generates, times and checks.

Every workload is a closed loop with one caller in one process: the caller
waits for an operation's output before it starts the next, as a caller that
prompts a segmenter waits for its prompts. Inputs come from the workload
seed only. The timed operation calls maup's public entry points as a user
would; everything else (generating inputs, checking outputs, Dice) happens
outside the timed region.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

import maup
from maup import FAMILIES, PhantomSpec, PromptConfig

import tracing
from tracing import span

THRESHOLD = 0.5  # surrogate segmenter threshold, as in ablation_run and the CLI
TOY_SIZE = 32  # grid side of cli-run's toy episodes (16 at smoke size)
TOGGLES = [(False, True, False), (True, True, False), (True, True, True)]  # ump | mmp+ump | mmp+ump+np
WARMUP_INDEX = 10**6  # op index of warm-up inputs, far from the timed ones
CLI_MAIN = "import sys; from maup.cli import main; sys.exit(main())"  # what the `maup` script runs
EPISODE_FILES = ("support_features", "support_mask", "query_features", "query_gt")


class Episode(NamedTuple):
    support_features: object
    support_mask: object
    query_features: object
    query_intensity: object
    query_gt: object
    cfg: PromptConfig


class Outcome(NamedTuple):
    """What checking one timed operation found."""

    units: int  # operations it counts for (sweep cells for a sweep call)
    failed: int
    dices: list
    output: bytes  # the bytes that enter the default-seed digest
    problems: list


def phantom_episode(ph, cfg: PromptConfig) -> Episode:
    return Episode(
        ph.support_features, ph.support_mask, ph.query_features,
        ph.query_intensity, ph.query_gt, cfg,
    )


def op_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def prompt(ep: Episode):
    """One support/query pair to prompts: the operation a user waits for."""
    r = maup.execute_episode(ep.support_features, ep.support_mask, ep.query_features, ep.cfg)
    export = maup.build_export(
        r.prompts, r.n_regions, ep.query_features.height, ep.query_features.width
    )
    return export, export.canonical_json()


def prompt_problems(text: str, height: int, width: int, cfg: PromptConfig) -> list[str]:
    """Contract violations in one prompts JSON document."""
    d = json.loads(text)
    scale = d["scale"]
    pos = [(p["x"], p["y"]) for p in d["positives"]]
    neg = [(p["x"], p["y"]) for p in d["negatives"]]
    problems = [
        f"prompt {xy} outside the {width * scale}x{height * scale} frame"
        for xy in pos + neg
        if not (0 <= xy[0] < width * scale and 0 <= xy[1] < height * scale)
    ]
    if set(pos) & set(neg):
        problems.append("positive and negative prompts overlap")
    if any(p["label"] != 1 for p in d["positives"]) or any(p["label"] != 0 for p in d["negatives"]):
        problems.append("prompt labels are not 1 for positives and 0 for negatives")
    if cfg.mmp and not cfg.n_min <= d["k_used"] <= cfg.n_max:
        problems.append(f"k_used {d['k_used']} outside [{cfg.n_min}, {cfg.n_max}]")
    return problems


def mb(nbytes: int) -> str:
    return f"{nbytes / 1e6:.1f} MB"


class Workload:
    """One workload: inputs from a seed, a timed operation, its checks and its trace."""

    name = ""
    units_per_op = 1
    unit = "operation"  # what latency is per: units_per_op of them make one timed call
    quality_ops = 4  # mean_dice covers the first operations, which every run does whatever its speed

    def __init__(self, seed: int, small: bool, work: Path):
        self.seed, self.work = seed, work

    def setup(self, rep: int, tracer) -> None:
        """Build what the timed operations share, and warm up with one operation."""
        self.run(self.make(WARMUP_INDEX + rep, tracer))

    def make(self, i: int, tracer):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out, tracer) -> Outcome:
        raise NotImplementedError

    def trace(self, i: int, inp, out, tracer, stages) -> list[tuple[str, str]]:
        """Compose stage by stage; return (composed, reference) output pairs."""
        raise NotImplementedError

    def working_set(self) -> dict[str, str]:
        raise NotImplementedError


def compare(i: int, ep: Episode, tracer, stages):
    """Composed and reference (execute_episode) prompts for one episode.

    The order alternates with ``i`` so that neither side always runs on
    caches the other warmed.
    """
    def reference():
        with tracer.span("reference"):
            return prompt(ep)

    if i % 2:
        ref = reference()
        comp = tracing.compose(tracer, stages, ep)
    else:
        comp = tracing.compose(tracer, stages, ep)
        ref = reference()
    return comp, ref


class EpisodeVit(Workload):
    """Independent ViT-S/14-like support/query pairs at nf=30.

    448 px at scale 14 is a 32x32 grid of 384 channels (DINOv2 ViT-S/14).
    At this size the query's float64 copy (3.1 MB) stays under numpy's
    4 MB huge-page threshold and OpenBLAS runs the per-prototype products
    on one thread, so a run measures maup rather than the host's huge-page
    supply and the scheduling of a second BLAS thread on a shared machine.

    One timed operation is a turn of the family rotation: four fresh
    episodes, one per family, called one after the other. Episodes of the
    disk and two-lobe families take two to three times as long as the
    others, so the median of single episodes would fall in the gap between
    the two groups; the time of a turn divided by four has one mode.
    """

    name = "episode-vit"
    units_per_op = len(FAMILIES)
    unit = "episodes"
    quality_ops = 4  # four turns: 16 episodes

    def __init__(self, seed, small, work):
        super().__init__(seed, small, work)
        self.size, self.channels = (16, 32) if small else (32, 384)

    def make(self, i, tracer):
        episodes = []
        for j, family in enumerate(FAMILIES):
            spec = PhantomSpec(
                family,
                size=self.size,
                channels=self.channels,
                contrast=0.5,
                noise=0.1,
                seed=op_seed(self.seed, i * len(FAMILIES) + j),
            )
            with span(tracer, "phantom.generate"):
                ph = maup.generate_phantom(spec)
            episodes.append(phantom_episode(ph, PromptConfig(n_regions=30, seed=spec.seed)))
        return episodes

    def run(self, episodes):
        return [prompt(ep) for ep in episodes]

    def check(self, episodes, outs, tracer) -> Outcome:
        failed, dices, problems = 0, [], []
        for ep, (export, text) in zip(episodes, outs):
            bad = prompt_problems(text, self.size, self.size, ep.cfg)
            dices.append(
                maup.dice(maup.surrogate_segment(export, ep.query_intensity, THRESHOLD), ep.query_gt)
            )
            failed += bool(bad)
            problems += bad
        output = b"".join(text.encode() for _, text in outs)
        return Outcome(self.units_per_op, failed, dices, output, problems)

    def trace(self, i, episodes, outs, tracer, stages):
        pairs = []
        for j, (ep, (_, text)) in enumerate(zip(episodes, outs)):
            tracer.begin((i, j))
            (export, composed), (_, reference) = compare(j, ep, tracer, stages)
            with tracer.span("pipeline.surrogate"):
                maup.dice(maup.surrogate_segment(export, ep.query_intensity, THRESHOLD), ep.query_gt)
            pairs += [(composed, reference), (composed, text)]
        return pairs

    def working_set(self):
        n = self.channels * self.size * self.size
        return {"query_f32": mb(4 * n), "query_f64": mb(8 * n), "support_f32": mb(4 * n)}


class SweepToy(Workload):
    """ablation_run over 4 families x 3 toggle rows x 5 region counts, one seed per call.

    The 15 cells of one (family, seed) share their phantom, and each toggle
    row shares its (family, nf, seed) maps with two sibling rows.
    """

    name = "sweep-toy"
    unit = "cells"
    quality_ops = 16  # every cell of a call is in the Dice; each call is another seed

    def __init__(self, seed, small, work):
        super().__init__(seed, small, work)
        self.size = 16 if small else 32
        self.nfs = [1, 5] if small else [1, 5, 15, 30, 60]
        self.units_per_op = len(FAMILIES) * len(TOGGLES) * len(self.nfs)
        self.csv = work / "sweep.csv"

    def make(self, i, tracer):
        families = [PhantomSpec(f, size=self.size, contrast=0.4, noise=0.1) for f in FAMILIES]
        return families, op_seed(self.seed, i)

    def run(self, inp):
        families, seed = inp
        return maup.ablation_run(families, TOGGLES, nf_values=self.nfs, seeds=[seed])

    def cell_episodes(self, inp, rows, tracer=None):
        """Each row's cell as an episode, with the config ablation_run derives by default."""
        families, seed = inp
        phantoms = {}
        for fam in families:
            with span(tracer, "phantom.generate"):
                phantoms[fam.family] = maup.generate_phantom(replace(fam, seed=seed))
        for row in rows:
            cfg = PromptConfig(
                mmp=row.mmp, ump=row.ump, np=row.np, n_regions=row.n_f, seed=seed, scale=1
            )
            yield row, phantom_episode(phantoms[row.family], cfg)

    def check(self, inp, report, tracer) -> Outcome:
        problems, failed, dices = [], max(0, self.units_per_op - len(report.rows)), []
        if len(report.rows) != self.units_per_op:
            problems.append(f"{len(report.rows)} rows for {self.units_per_op} cells")
        for row, ep in self.cell_episodes(inp, report.rows):
            cell = f"{row.family}/{row.mmp:d}{row.ump:d}{row.np:d}/nf={row.n_f}/seed={row.seed}"
            if row.status != "ok" or row.dice is None:
                failed += 1
                problems.append(f"{cell}: {row.status}")
                continue
            export, text = prompt(ep)
            bad = prompt_problems(text, self.size, self.size, ep.cfg)
            d = maup.dice(maup.surrogate_segment(export, ep.query_intensity, THRESHOLD), ep.query_gt)
            if d != row.dice:
                bad.append(f"dice {row.dice} differs from the episode's {d}")
            failed += bool(bad)
            problems += [f"{cell}: {b}" for b in bad]
            dices.append(row.dice)
        report.write_csv(self.csv)
        return Outcome(self.units_per_op, failed, dices, self.csv.read_bytes(), problems)

    def trace(self, i, inp, report, tracer, stages):
        pairs = []
        for j, (row, ep) in enumerate(self.cell_episodes(inp, report.rows, tracer)):
            tracer.begin((i, j))
            (export, composed), (_, reference) = compare(j, ep, tracer, stages)
            with tracer.span("pipeline.surrogate"):
                d = maup.dice(maup.surrogate_segment(export, ep.query_intensity, THRESHOLD), ep.query_gt)
            pairs.append((composed, reference))
            pairs.append((repr(d), repr(row.dice)))
        return pairs

    def working_set(self):
        return {"query_f32": mb(4 * 16 * self.size * self.size)}


class CliRun(Workload):
    """`maup run --query-gt ... --scale 1` as a fresh process on toy episode files."""

    name = "cli-run"
    EPISODES = 8
    quality_ops = EPISODES
    DICE_LINE = re.compile(r"surrogate dice vs ground truth: ([0-9.]+)")

    def __init__(self, seed, small, work):
        super().__init__(seed, small, work)
        self.size = 16 if small else TOY_SIZE
        self.out = work / "out"

    def setup(self, rep, tracer):
        for j in range(self.EPISODES):
            if tracer:
                tracer.begin(("setup", rep, j))
            spec = toy_spec(FAMILIES[j % len(FAMILIES)], self.size, op_seed(self.seed, j))
            with span(tracer, "phantom.generate"):
                ph = maup.generate_phantom(spec)
            save_episode(ph, self.work / f"episode{j}")
        super().setup(rep, tracer)

    def make(self, i, tracer):
        (self.out / "prompts.json").unlink(missing_ok=True)  # so a stale file cannot pass the check
        return self.work / f"episode{i % self.EPISODES}", i

    def run(self, inp):
        d, i = inp
        files = {name: str(d / f"{name}.maup") for name in EPISODE_FILES}
        argv = [
            "run",
            "--support-feat", files["support_features"],
            "--support-mask", files["support_mask"],
            "--query-feat", files["query_features"],
            "--query-gt", files["query_gt"],
            "--out", str(self.out),
            "--seed", str(i),
            "--scale", "1",
        ]
        return child([sys.executable, "-c", CLI_MAIN, *argv])

    def check(self, inp, proc, tracer) -> Outcome:
        if proc.returncode != 0:
            return Outcome(1, 1, [], b"", [f"exit code {proc.returncode}: {proc.stderr.strip()}"])
        found = self.DICE_LINE.search(proc.stdout)
        text = (self.out / "prompts.json").read_text()
        problems = prompt_problems(text, self.size, self.size, self.config(inp))
        if found is None:
            problems.append("no Dice line in the CLI output")
        dices = [float(found.group(1))] if found else []
        return Outcome(1, int(bool(problems)), dices, text.encode(), problems)

    def config(self, inp) -> PromptConfig:
        return PromptConfig(seed=inp[1], scale=1)  # the CLI defaults with --seed and --scale

    def trace(self, i, inp, proc, tracer, stages):
        t = {name: maup.load_tensor(inp[0] / f"{name}.maup") for name in EPISODE_FILES}
        ep = Episode(
            t["support_features"], t["support_mask"], t["query_features"],
            maup.ScalarMap(t["query_gt"].bits.astype(np.float32)), t["query_gt"], self.config(inp),
        )
        (export, composed), (_, reference) = compare(i, ep, tracer, stages)
        with tracer.span("pipeline.surrogate"):
            maup.dice(maup.surrogate_segment(export, ep.query_intensity, THRESHOLD), ep.query_gt)
        cli_text = (self.out / "prompts.json").read_text()
        return [(composed, reference), (composed, cli_text)]

    def working_set(self):
        return {"query_f32": mb(4 * 16 * self.size * self.size)}


def child_env() -> dict:
    """The environment of child processes: this one's, with the checkout's src importable."""
    src = str(Path(maup.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run one child process to completion (killed and reaped after 60 s)."""
    return subprocess.run(argv, capture_output=True, text=True, timeout=60, env=child_env())


def import_seconds() -> float:
    """Time `import maup` inside a fresh interpreter, as a user's first call pays it."""
    code = "import time; t = time.perf_counter(); import maup; print(time.perf_counter() - t)"
    proc = child([sys.executable, "-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"import maup failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def toy_spec(family: str, size: int, seed: int) -> PhantomSpec:
    return PhantomSpec(family, size=size, contrast=0.4, noise=0.1, seed=seed)


def save_episode(ph, d: Path) -> None:
    """Write the four tensors `maup run --query-gt` reads into directory ``d``."""
    d.mkdir(exist_ok=True)
    for name in EPISODE_FILES:
        maup.save_tensor(getattr(ph, name), d / f"{name}.maup")


def measure_cli(tracer, work: Path, small: bool, reps: int = 5) -> None:
    """Time what only a fresh `maup run` process pays, whatever the workload.

    That is loading a toy episode's four tensors (cli-run's shape) in this
    process, and a bare interpreter and `import maup` as fresh processes.
    """
    d = work / "cli-layers"
    save_episode(maup.generate_phantom(toy_spec(FAMILIES[0], 16 if small else TOY_SIZE, 0)), d)
    for rep in range(reps):
        tracer.begin(("cli", rep))
        with tracer.span("tensors.load"):
            for name in EPISODE_FILES:
                maup.load_tensor(d / f"{name}.maup")
        for name, code in (("cli.interpreter", "pass"), ("cli.import", "import maup")):
            with tracer.span(name):
                proc = child([sys.executable, "-c", code])
            if proc.returncode != 0:
                raise RuntimeError(f"python -c {code!r} failed: {proc.stderr.strip()}")


WORKLOADS = {w.name: w for w in (EpisodeVit, SweepToy, CliRun)}
