"""Acceptance gate: every criterion runs at its stated tolerance and prints
one [PASS]/[FAIL] line (visible with ``pytest tests/test_acceptance.py -s``).
"""

import time
from concurrent.futures import ThreadPoolExecutor
import numpy as np

from maup.cli import main
from maup.phantom import PhantomSpec, generate_phantom
from maup.pipeline import ablation_run, build_export, execute_episode
from maup.prompting import (
    MEAN_TAG,
    PromptConfig,
    adaptive_k,
    lloyd_cluster,
)
from maup.prototypes import regional_prototypes
from maup.regions import (
    StructuringElement,
    dilate,
    farthest_point_seeds,
    voronoi_partition,
)
from maup.simmaps import (
    cosine_map,
    mean_map,
    percentile_threshold,
    uncertainty_map,
)
from maup.surrogate import dice, surrogate_segment
from maup.tensors import BitMask, FeatureMap, ScalarMap

from oracles import (
    cosine_oracle,
    dilate_oracle,
    disk_offsets,
    mean_oracle,
    percentile_oracle,
    pool_oracle,
    two_means_oracle_fast,
    variance_oracle,
    voronoi_oracle,
)

RTOL = 1e-6
ATOL = 1e-9


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def random_instance(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 17))
    h = int(rng.integers(2, 33))
    w = int(rng.integers(2, 33))
    data = rng.standard_normal((c, h, w)).astype(np.float32)
    bits = (rng.random((h, w)) < 0.3).astype(np.uint8)
    if bits.sum() == 0:
        bits[int(rng.integers(h)), int(rng.integers(w))] = 1
    return rng, FeatureMap(data), BitMask(bits)


def test_oracle_equivalence():
    start = time.perf_counter()
    n = 200
    for seed in range(n):
        rng, f, m = random_instance(seed)

        pooled = regional_prototypes(f, m.bits.astype(np.int64) - 1)[0]  # the mask as label 0
        assert np.allclose(pooled, pool_oracle(f.data, m.bits), rtol=RTOL, atol=ATOL)

        proto = rng.standard_normal(f.channels)
        cos = cosine_map(f, proto).values
        assert np.allclose(cos, cosine_oracle(f.data, proto), rtol=RTOL, atol=ATOL)

        stack = np.stack(
            [
                rng.uniform(-1, 1, (f.height, f.width)).astype(np.float32)
                for _ in range(int(rng.integers(2, 7)))
            ]
        )
        mu = mean_map(stack)
        arrs = list(stack)
        assert np.allclose(mu.values, mean_oracle(arrs), rtol=RTOL, atol=ATOL)
        u = uncertainty_map(stack, mu)
        assert np.allclose(u.values, variance_oracle(arrs), rtol=RTOL, atol=ATOL)

        se = StructuringElement.disk(int(rng.integers(1, 4)))
        grown = dilate(m, se).bits
        want = dilate_oracle(m.bits, disk_offsets(se.radius))
        assert np.array_equal(grown, np.array(want, dtype=np.uint8))

        n_seeds = min(int(rng.integers(1, 7)), m.foreground_count)
        seeds = farthest_point_seeds(m, n_seeds, seed)
        labels = voronoi_partition(m, seeds)
        expected = voronoi_oracle(m.bits, seeds.tolist())
        assert {(int(y), int(x)): int(labels[y, x]) for y, x in np.argwhere(labels >= 0)} == expected

        pct = float(rng.uniform(1.0, 99.0))
        smap = ScalarMap(rng.standard_normal((f.height, f.width)).astype(np.float32))
        got = percentile_threshold(smap, pct)
        want = percentile_oracle(smap.values.ravel(), pct)
        assert abs(got - want) <= RTOL * max(1.0, abs(want))

    elapsed = time.perf_counter() - start
    report(
        "oracle equivalence",
        elapsed < 30.0,
        f"{n} instances x 7 operations, {elapsed:.1f}s (< 30s)",
    )


def test_variance_identity():
    worst_gap, worst_min = 0.0, 0.0
    for seed in range(200):
        rng = np.random.default_rng(1_000 + seed)
        h, w = int(rng.integers(2, 33)), int(rng.integers(2, 33))
        stack = np.stack(
            [rng.uniform(-1, 1, (h, w)).astype(np.float32) for _ in range(int(rng.integers(2, 9)))]
        )
        mu = mean_map(stack)
        u = uncertainty_map(stack, mu)
        arr = stack.astype(np.float64)
        identity = (arr * arr).mean(axis=0) - mu.values.astype(np.float64) ** 2
        worst_gap = max(worst_gap, float(np.abs(u.values - identity).max()))
        worst_min = min(worst_min, float(u.values.min()))
    report(
        "variance identity",
        worst_gap <= 1e-6 and worst_min >= -1e-9,
        f"max |U - (E[S^2] - mean^2)| = {worst_gap:.2e}, min U = {worst_min:.2e}",
    )


def test_adaptive_k_clamp():
    cases = [
        (1.0, 0.0, 3),
        (1.0, 0.4, 3),
        (1.0, 7.6, 7),
        (10.0, 0.76, 7),
        (1.0, 99.0, 10),
        (5.0, 0.6, 3),
        (5.0, 2.0, 10),
    ]
    seen = set()
    ok = True
    for gamma, c, expected in cases:
        k = adaptive_k(c, PromptConfig(gamma=gamma, n_min=3, n_max=10))
        ok &= k == expected == max(3, min(10, int(np.floor(gamma * c))))
        seen.add(k)
    ok &= {3, 10} <= seen
    report("adaptive prompt-count clamp", ok, f"gamma*c sweep -> k in {sorted(seen)}")


def test_containment_suite():
    families = ("disk", "ellipse", "two-lobe", "annulus")
    checked = 0
    for seed in range(100):
        family = families[seed % len(families)]
        contrast = 1.0 if seed % 2 == 0 else 0.5
        noise = 0.0 if seed % 3 == 0 else 0.1
        ph = generate_phantom(
            PhantomSpec(family=family, contrast=contrast, noise=noise, seed=seed)
        )
        scale = 1 if seed % 2 == 0 else 3
        cfg = PromptConfig(seed=seed, scale=scale)
        res = execute_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
        export = build_export(res.prompts, res.n_regions, ph.query_features.height,
                              ph.query_features.width)

        # candidate-set membership, via the exported grid points
        mean64 = res.mean.values.astype(np.float64)
        unc64 = res.uncertainty.values.astype(np.float64)
        pos_points = set()
        for (r, c), source in zip(export.positives.tolist(), export.sources):
            pos_points.add((r, c))
            if source == MEAN_TAG:
                assert mean64[r, c] >= res.prompts.tau_mean
            else:
                assert unc64[r, c] >= res.prompts.tau_uncert
        neg_points = set()
        for r, c in export.negatives.tolist():
            neg_points.add((r, c))
            assert res.negative.values.astype(np.float64)[r, c] >= res.prompts.tau_neg
        assert not pos_points & neg_points

        # partition label map: -1 exactly off the foreground, every region non-empty
        labels = res.partition
        assert np.array_equal(labels >= 0, ph.support_mask.bits == 1)
        assert np.array_equal(np.unique(labels[labels >= 0]), np.arange(res.n_regions))
        checked += 1
    report("containment suite", checked == 100, f"{checked} phantom episodes")


def test_determinism():
    # same episode, two runs, byte-identical prompts.json
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ph_dir = tmp / "ph"
        assert main(["phantom", "--family", "two-lobe", "--contrast", "0.5", "--noise", "0.1",
                     "--seed", "13", "--out", str(ph_dir)]) == 0
        blobs = []
        for run_dir in ("a", "b"):
            assert main([
                "run",
                "--support-feat", str(ph_dir / "support_features.maup"),
                "--support-mask", str(ph_dir / "support_mask.maup"),
                "--query-feat", str(ph_dir / "query_features.maup"),
                "--out", str(tmp / run_dir),
                "--seed", "13",
            ]) == 0
            blobs.append((tmp / run_dir / "prompts.json").read_bytes())
    same_run = blobs[0] == blobs[1]

    # the same episode computed serially and inside a thread pool
    ph = generate_phantom(PhantomSpec(family="disk", noise=0.1, seed=21))
    cfg = PromptConfig(seed=21, scale=1)

    def one_episode(_):
        res = execute_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
        return build_export(res.prompts, res.n_regions, 32, 32).canonical_json()

    serial = one_episode(0)
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(one_episode, range(4)))
    same_threads = all(t == serial for t in threaded)

    # a whole sweep, run twice
    fams = [PhantomSpec(family="disk", noise=0.1)]
    toggles = [(True, True, True)]
    r1 = ablation_run(fams, toggles, nf_values=[5, 30], seeds=list(range(4)))
    r2 = ablation_run(fams, toggles, nf_values=[5, 30], seeds=list(range(4)))
    same_sweep = r1 == r2

    report(
        "determinism",
        same_run and same_threads and same_sweep,
        "episode re-run, thread pool, and repeated sweep all byte-identical",
    )


def phantom_dice(spec: PhantomSpec, cfg: PromptConfig, threshold: float = 0.5) -> float:
    """Generate a phantom, prompt it, segment it with the surrogate, and score it."""
    ph = generate_phantom(spec)
    res = execute_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
    export = build_export(res.prompts, res.n_regions, ph.query_features.height, ph.query_features.width)
    return dice(surrogate_segment(export, ph.query_intensity, threshold), ph.query_gt)


def test_surrogate_end_to_end():
    disk_scores = []
    for seed in range(20):
        d = phantom_dice(
            PhantomSpec(family="disk", contrast=1.0, noise=0.0, seed=seed),
            PromptConfig(seed=seed, scale=1),
        )
        disk_scores.append(d)
    disk_mean = sum(disk_scores) / len(disk_scores)

    def two_lobe_mean(mmp, ump, np_):
        scores = []
        for seed in range(20):
            d = phantom_dice(
                PhantomSpec(family="two-lobe", contrast=0.4, noise=0.1, seed=seed),
                PromptConfig(mmp=mmp, ump=ump, np=np_, seed=seed, scale=1),
            )
            scores.append(d)
        return sum(scores) / len(scores)

    ump_only = two_lobe_mean(False, True, False)
    partial = two_lobe_mean(True, True, False)
    full = two_lobe_mean(True, True, True)
    monotone = ump_only <= partial <= full
    ok = disk_mean >= 0.90 and full >= ump_only and monotone
    report(
        "surrogate end-to-end",
        ok,
        f"disk mean dice {disk_mean:.3f} (>= 0.90); "
        f"two-lobe ump-only {ump_only:.3f} <= +mmp {partial:.3f} <= +np {full:.3f}",
    )


def test_nf_sweep_harness(tmp_path):
    from maup.cli import main

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "families = disk\n"
        "toggles = mmp+ump | mmp+ump+np\n"
        "nf = 1, 5, 15, 30, 60\n"
        "seeds = 4\n"
        "noise = 0.1\n"
    )
    out = tmp_path / "report.csv"
    start = time.perf_counter()
    rc = main(["ablate", "--config", str(cfg), "--out", str(out)])
    elapsed = time.perf_counter() - start
    lines = out.read_text().strip().splitlines()
    expected_rows = 1 * 2 * 5 * 4
    ok = (
        rc == 0
        and elapsed < 60.0
        and lines[0] == "family,mmp,ump,np,n_f,seed,dice,status"
        and len(lines) == 1 + expected_rows
        and all(len(line.split(",")) == 8 for line in lines)
    )
    report(
        "region-count sweep harness",
        ok,
        f"{expected_rows} rows over n_f {{1,5,15,30,60}} in {elapsed:.1f}s (< 60s)",
    )


def test_kmeans_descent_and_two_means_optimality():
    descent_ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        coords = np.unique(rng.integers(0, 24, (int(rng.integers(4, 40)), 2)), axis=0).astype(
            np.float64
        )
        k = int(rng.integers(1, min(8, len(coords)) + 1))
        _, _, _, w0, w1 = lloyd_cluster(coords, k, seed)
        descent_ok &= w1 <= w0 + 1e-9

    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(50_000 + trial)
        cy1, cx1 = rng.integers(2, 8, 2)
        cy2, cx2 = rng.integers(14, 20, 2)
        pts = []
        for cy, cx in ((cy1, cx1), (cy2, cx2)):
            jitter = rng.integers(-2, 3, (int(rng.integers(5, 11)), 2))
            pts.extend((int(cy + dy), int(cx + dx)) for dy, dx in jitter)
        pts = list(dict.fromkeys(pts))[:20]
        *_, wcss = lloyd_cluster(np.asarray(pts, dtype=np.float64), 2, trial)
        if wcss <= two_means_oracle_fast(pts) + 1e-9:
            hits += 1

    report(
        "k-means descent and 2-means optimality",
        descent_ok and hits >= 95,
        f"descent on 100 runs; exhaustive optimum matched in {hits}/100 trials (>= 95)",
    )
