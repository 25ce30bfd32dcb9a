"""Command-line entry points: run, phantom, ablate.

Exit codes: 0 success, 1 usage error, 2 data/processing error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import MaupError
from .phantom import FAMILIES, PhantomSpec
from .pipeline import EpisodeSpec, ablation_run, run_episode, save_phantom
from .prompting import PromptConfig
from .surrogate import dice, surrogate_segment
from .tensors import BitMask, ScalarMap, load_tensor


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _add_prompt_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nf", type=int, default=30, help="foreground region count")
    p.add_argument("--gamma", type=float, default=5.0)
    p.add_argument("--nmin", type=int, default=3)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--nneg", type=int, default=3)
    p.add_argument("--radius", type=int, default=5, help="periphery dilation radius")
    p.add_argument("--pct", type=float, default=95.0, help="candidate percentile")
    p.add_argument("--scale", type=int, default=14, help="grid-to-image pixel factor")
    p.add_argument("--no-mmp", action="store_true", help="disable mean-map prompts")
    p.add_argument("--no-ump", action="store_true", help="disable uncertainty prompts")
    p.add_argument("--no-np", action="store_true", help="disable negative prompts")


def _config_from_args(args) -> PromptConfig:
    return PromptConfig(
        mmp=not args.no_mmp,
        ump=not args.no_ump,
        np=not args.no_np,
        gamma=args.gamma,
        n_min=args.nmin,
        n_max=args.nmax,
        n_neg=args.nneg,
        radius=args.radius,
        n_regions=args.nf,
        percentile=args.pct,
        seed=args.seed,
        scale=args.scale,
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="maup", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="prompt one support/query episode from tensor files")
    run.add_argument("--support-feat", required=True)
    run.add_argument("--support-mask", required=True)
    run.add_argument("--query-feat", required=True)
    run.add_argument("--query-gt", default=None)
    run.add_argument("--out", required=True)
    run.add_argument("--heatmaps", action="store_true", help="also write PGM heatmaps")
    _add_prompt_flags(run)

    ph = sub.add_parser("phantom", help="generate a synthetic episode's tensor files")
    ph.add_argument("--family", required=True, choices=FAMILIES)
    ph.add_argument("--seed", type=int, default=0)
    ph.add_argument("--out", required=True)
    ph.add_argument("--size", type=int, default=32)
    ph.add_argument("--channels", type=int, default=16)
    ph.add_argument("--contrast", type=float, default=1.0)
    ph.add_argument("--noise", type=float, default=0.0)

    ab = sub.add_parser("ablate", help="run a toggle/region-count sweep over phantoms")
    ab.add_argument("--config", required=True, help="key=value sweep file")
    ab.add_argument("--out", required=True, help="CSV report path")
    return parser


def _cmd_run(args) -> int:
    spec = EpisodeSpec(
        support_feature_path=args.support_feat,
        support_mask_path=args.support_mask,
        query_feature_path=args.query_feat,
        query_gt_mask_path=args.query_gt,
        output_dir=args.out,
        config=_config_from_args(args),
        heatmaps=args.heatmaps,
    )
    export = run_episode(spec)
    print(f"k_used={export.k_used} positives={len(export.positives)} negatives={len(export.negatives)}")
    for flag in export.flags:
        print(f"flag: {flag}")
    print(f"wrote {Path(args.out) / 'prompts.json'}")
    if args.query_gt is not None:
        gt = load_tensor(args.query_gt, expect=BitMask)
        pred = surrogate_segment(export, ScalarMap(gt.bits.astype("float32")), 0.5)
        print(f"surrogate dice vs ground truth: {dice(pred, gt):.4f}")
    return 0


def _cmd_phantom(args) -> int:
    spec = PhantomSpec(
        family=args.family,
        size=args.size,
        channels=args.channels,
        contrast=args.contrast,
        noise=args.noise,
        seed=args.seed,
    )
    paths = save_phantom(spec, args.out)
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


def parse_sweep_config(path) -> dict:
    """Parse the flat key=value sweep file (comments start with '#')."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MaupError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _parse_toggle_row(token: str) -> tuple[bool, bool, bool]:
    parts = {p.strip() for p in token.split("+") if p.strip()}
    unknown = parts - {"mmp", "ump", "np"}
    if unknown:
        raise MaupError(f"unknown toggle name(s) {sorted(unknown)} in {token!r}")
    if not parts & {"mmp", "ump"}:
        raise MaupError(f"toggle row {token!r} disables both positive paths")
    return "mmp" in parts, "ump" in parts, "np" in parts


def _parse_seeds(token: str) -> list[int]:
    if ".." in token:
        lo, hi = token.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    if "," in token:
        return [int(t) for t in token.split(",") if t.strip()]
    return list(range(int(token)))  # a bare count means seeds 0..count-1


def _cmd_ablate(args) -> int:
    raw = parse_sweep_config(args.config)

    def get(key, default, cast):
        try:
            return cast(raw[key]) if key in raw else default
        except ValueError as e:
            raise MaupError(f"{args.config}: bad value for {key!r}: {e}") from e

    family_names = [t.strip() for t in raw.get("families", "disk").split(",") if t.strip()]
    for name in family_names:
        if name not in FAMILIES:
            raise MaupError(f"unknown phantom family {name!r}")
    families = [
        PhantomSpec(
            family=name,
            size=get("size", 32, int),
            channels=get("channels", 16, int),
            contrast=get("contrast", 1.0, float),
            noise=get("noise", 0.0, float),
        )
        for name in family_names
    ]
    toggles = [
        _parse_toggle_row(t) for t in raw.get("toggles", "mmp+ump+np").split("|") if t.strip()
    ]
    try:
        nf_values = [int(t) for t in raw.get("nf", "30").split(",") if t.strip()]
        seeds = _parse_seeds(raw.get("seeds", "1"))
    except ValueError as e:
        raise MaupError(f"{args.config}: bad sweep list: {e}") from e
    base = PromptConfig(
        gamma=get("gamma", 5.0, float),
        n_min=get("nmin", 3, int),
        n_max=get("nmax", 10, int),
        n_neg=get("nneg", 3, int),
        radius=get("radius", 5, int),
        percentile=get("pct", 95.0, float),
        scale=1,
    )
    report = ablation_run(
        families,
        toggles,
        nf_values=nf_values,
        seeds=seeds,
        base_config=base,
        threshold=get("threshold", 0.5, float),
    )
    report.write_csv(args.out)
    failed = sum(1 for r in report.rows if r.dice is None)
    print(report.format_summary())
    print(f"wrote {len(report.rows)} rows ({failed} failed) to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "phantom": _cmd_phantom, "ablate": _cmd_ablate}
    try:
        return handlers[args.command](args)
    except (MaupError, OSError) as e:
        sys.stderr.write(f"maup {args.command}: error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
