"""Command-line entry points: run, phantom, ablate.

Exit codes: 0 success, 1 usage error, 2 data/processing error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .errors import MaupError, ShapeError
from .phantom import FAMILIES, Phantom, PhantomSpec, generate_phantom
from .pipeline import ablation_run, execute_episode
from .prompting import PromptConfig
from .simmaps import write_pgm
from .surrogate import build_export, dice, surrogate_segment
from .tensors import BitMask, FeatureMap, ScalarMap, load_tensor, save_tensor


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


# flag of `maup run` / `maup phantom`, and key of a sweep file -> dataclass field;
# the defaults and types come from the dataclass
PROMPT_FLAGS = {
    "seed": "seed", "nf": "n_regions", "gamma": "gamma", "nmin": "n_min", "nmax": "n_max",
    "nneg": "n_neg", "radius": "radius", "pct": "percentile", "scale": "scale",
}
PHANTOM_FLAGS = {name: name for name in ("seed", "size", "channels", "contrast", "noise")}
HELP = {
    "nf": "foreground region count",
    "radius": "periphery dilation radius",
    "pct": "candidate percentile",
    "scale": "grid-to-image pixel factor",
}
PER_CELL = {"seed", "nf", "scale"}  # a sweep sets these per cell: no sweep key sets their default
SWEEP_KEYS = {"families", "toggles", "nf", "seeds"} | (
    PROMPT_FLAGS.keys() | PHANTOM_FLAGS.keys()
) - PER_CELL


def _add_flags(p: argparse.ArgumentParser, cls, table: dict) -> None:
    """One ``--flag`` per table entry, with its dataclass field's default and type."""
    defaults = {f.name: f.default for f in fields(cls)}
    for flag, name in table.items():
        default = defaults[name]
        p.add_argument(f"--{flag}", type=type(default), default=default, help=HELP.get(flag))


def _field_values(cls, table: dict, given: dict, source: str = "") -> dict:
    """Field name -> value for every table key in ``given``, cast to the field default's type."""
    kinds, out = {f.name: type(f.default) for f in fields(cls)}, {}
    for key, name in table.items():
        if key in given:
            try:
                out[name] = kinds[name](given[key])
            except ValueError as e:
                raise MaupError(f"{source}: bad value for {key!r}: {e}") from e
    return out


def _config_from_args(args) -> PromptConfig:
    return PromptConfig(
        mmp=not args.no_mmp,
        ump=not args.no_ump,
        np=not args.no_np,
        **_field_values(PromptConfig, PROMPT_FLAGS, vars(args)),
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
    _add_flags(run, PromptConfig, PROMPT_FLAGS)
    run.add_argument("--no-mmp", action="store_true", help="disable mean-map prompts")
    run.add_argument("--no-ump", action="store_true", help="disable uncertainty prompts")
    run.add_argument("--no-np", action="store_true", help="disable negative prompts")

    ph = sub.add_parser("phantom", help="generate a synthetic episode's tensor files")
    ph.add_argument("--family", required=True, choices=FAMILIES)
    ph.add_argument("--out", required=True)
    _add_flags(ph, PhantomSpec, PHANTOM_FLAGS)

    ab = sub.add_parser("ablate", help="run a toggle/region-count sweep over phantoms")
    ab.add_argument("--config", required=True, help="key=value sweep file")
    ab.add_argument("--out", required=True, help="CSV report path")
    return parser


def _load(path, expect, stage: str):
    try:
        return load_tensor(path, expect=expect)
    except MaupError as e:
        raise type(e)(f"{stage}: {e}") from e


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    support_f = _load(args.support_feat, FeatureMap, "support features")
    support_m = _load(args.support_mask, BitMask, "support mask")
    query_f = _load(args.query_feat, FeatureMap, "query features")
    gt = None
    if args.query_gt is not None:
        gt = _load(args.query_gt, BitMask, "query ground truth")
        if (gt.height, gt.width) != (query_f.height, query_f.width):
            raise ShapeError("query ground truth: H x W does not match query features")

    result = execute_episode(support_f, support_m, query_f, cfg)
    prompts = build_export(result.prompts, result.n_regions, query_f.height, query_f.width)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "prompts.json").write_text(prompts.canonical_json())
    if args.heatmaps:
        write_pgm(result.mean, out_dir / "mean.pgm")
        write_pgm(result.uncertainty, out_dir / "uncertainty.pgm")
        if result.negative is not None:
            write_pgm(result.negative, out_dir / "negative.pgm")
    print(f"k_used={prompts.k_used} positives={len(prompts.positives)} negatives={len(prompts.negatives)}")
    for flag in prompts.flags:
        print(f"flag: {flag}")
    print(f"wrote {out_dir / 'prompts.json'}")
    if gt is not None:
        pred = surrogate_segment(prompts, ScalarMap(gt.bits.astype("float32")), 0.5)
        print(f"surrogate dice vs ground truth: {dice(pred, gt):.4f}")
    return 0


def _cmd_phantom(args) -> int:
    ph = generate_phantom(PhantomSpec(args.family, **_field_values(PhantomSpec, PHANTOM_FLAGS, vars(args))))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for f in fields(Phantom):
        path = out / f"{f.name}.maup"
        save_tensor(getattr(ph, f.name), path)
        print(f"wrote {f.name}: {path}")
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
    if raw.keys() - SWEEP_KEYS:
        raise MaupError(f"{args.config}: unknown key(s) {sorted(raw.keys() - SWEEP_KEYS)}")
    given = {key: val for key, val in raw.items() if key not in PER_CELL}
    spec = _field_values(PhantomSpec, PHANTOM_FLAGS, given, args.config)
    families = [PhantomSpec(t.strip(), **spec) for t in raw.get("families", "disk").split(",") if t.strip()]
    toggles = [
        _parse_toggle_row(t) for t in raw.get("toggles", "mmp+ump+np").split("|") if t.strip()
    ]
    try:
        nf_values = [int(t) for t in raw.get("nf", "").split(",") if t.strip()]
        seeds = _parse_seeds(raw.get("seeds", "1"))
    except ValueError as e:
        raise MaupError(f"{args.config}: bad sweep list: {e}") from e
    base = PromptConfig(**_field_values(PromptConfig, PROMPT_FLAGS, given, args.config))
    report = ablation_run(families, toggles, nf_values=nf_values, seeds=seeds, base_config=base)
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
