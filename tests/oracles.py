"""Independent brute-force reference implementations used by the tests.

Everything here is written as plain Python loops over pixels (or exhaustive
enumeration), deliberately avoiding the vectorized code paths under test.
"""

from __future__ import annotations

import math
from collections import deque


def pool_oracle(data, bits):
    """Masked mean per channel by explicit pixel accumulation."""
    c, h, w = data.shape
    out = []
    for ch in range(c):
        total, count = 0.0, 0
        for y in range(h):
            for x in range(w):
                if bits[y, x]:
                    total += float(data[ch, y, x])
                    count += 1
        out.append(total / count)
    return out


def pool_reference(data, labels):
    """Regional prototypes as first written: one boolean-mask gather and sum per label.

    Row k is the float64 mean of the C x H x W ``data`` over the pixels
    labelled k, for k in [0, max label]. Its summation order is the one the
    library promises, so results compare by their bytes.
    """
    import numpy as np

    flat = data.reshape(data.shape[0], -1)
    rows = []
    for k in range(max(int(labels.max()), 0) + 1):
        sel = (labels == k).reshape(-1)
        rows.append(flat[:, sel].sum(axis=1, dtype=np.float64) / int(sel.sum()))
    return np.stack(rows)


def cosine_oracle(data, proto):
    """Per-pixel cosine similarity with scalar loops over channels."""
    c, h, w = data.shape
    out = [[0.0] * w for _ in range(h)]
    p_norm = math.sqrt(sum(float(v) * float(v) for v in proto))
    for y in range(h):
        for x in range(w):
            dot = 0.0
            sq = 0.0
            for ch in range(c):
                v = float(data[ch, y, x])
                dot += v * float(proto[ch])
                sq += v * v
            denom = math.sqrt(sq) * p_norm
            out[y][x] = dot / denom if denom > 0.0 else 0.0
    return out


def mean_oracle(maps):
    """Pixelwise arithmetic mean of a list of 2-D arrays."""
    h, w = maps[0].shape
    out = [[0.0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            out[y][x] = sum(float(m[y, x]) for m in maps) / len(maps)
    return out


def variance_oracle(maps):
    """Pixelwise population variance of a list of 2-D arrays."""
    h, w = maps[0].shape
    mu = mean_oracle(maps)
    out = [[0.0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            out[y][x] = sum((float(m[y, x]) - mu[y][x]) ** 2 for m in maps) / len(maps)
    return out


def cosine_rows_reference(scores, protos, pix_norm):
    """P x HW float32 cosines from a raw product as the float32 epilogue first computed them.

    Divides into a float64 denominator buffer (plainly when every denominator
    is positive and finite, else masked with 0 where it is not), clips to
    [-1, 1] and casts to float32. ``scores`` is read, never written.
    """
    import numpy as np

    norms = np.linalg.norm(np.asarray(protos, dtype=np.float64), axis=1)
    sims = norms[:, None] * pix_norm
    lo = norms.min(initial=np.inf) * pix_norm.min(initial=np.inf)
    hi = norms.max(initial=0.0) * pix_norm.max(initial=0.0)
    if 0.0 < lo and hi < np.inf:
        np.divide(scores, sims, out=sims)
    else:
        nonzero = sims > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(scores, sims, out=sims, where=nonzero)
        sims[~nonzero] = 0.0
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims.astype(np.float32)


def disk_offsets(radius):
    """Every offset (dy, dx) of the discrete disk: dy^2 + dx^2 <= radius^2."""
    span = range(-radius, radius + 1)
    return tuple((dy, dx) for dy in span for dx in span if dy * dy + dx * dx <= radius**2)


def dilate_oracle(bits, offsets):
    """Dilation by checking every offset at every output pixel."""
    h, w = bits.shape
    out = [[0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            for dy, dx in offsets:
                sy, sx = y - dy, x - dx
                if 0 <= sy < h and 0 <= sx < w and bits[sy, sx]:
                    out[y][x] = 1
                    break
    return out


def voronoi_oracle(bits, seeds):
    """Nearest-seed index per foreground pixel; ties to the lowest index."""
    h, w = bits.shape
    assign = {}
    for y in range(h):
        for x in range(w):
            if not bits[y, x]:
                continue
            best, best_d = None, None
            for i, (sy, sx) in enumerate(seeds):
                d = (y - sy) ** 2 + (x - sx) ** 2
                if best_d is None or d < best_d:
                    best, best_d = i, d
            assign[(y, x)] = best
    return assign


def percentile_oracle(values, pct):
    """Sort-and-linearly-interpolate percentile."""
    vals = sorted(float(v) for v in values)
    if len(vals) == 1:
        return vals[0]
    pos = (pct / 100.0) * (len(vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(vals) - 1)
    frac = pos - lo
    return vals[lo] + frac * (vals[hi] - vals[lo])


def candidates_oracle(values, tau):
    """Row-major (row, col) pixels whose value, taken as a float64, reaches tau."""
    h, w = values.shape
    return [(y, x) for y in range(h) for x in range(w) if float(values[y, x]) >= tau]


def area_and_perimeter(m):
    """Count a BitMask's set pixels and exposed 4-neighbor edges with whole-array sums.

    An edge is exposed when a set pixel borders an unset pixel or the frame
    boundary, so a lone pixel contributes 4 and a solid k x k square 4k.
    """
    bits = m.bits
    area = int(bits.sum())
    h_pairs = int((bits[:, 1:] & bits[:, :-1]).sum())
    v_pairs = int((bits[1:, :] & bits[:-1, :]).sum())
    return area, 4 * area - 2 * (h_pairs + v_pairs)


def perimeter_oracle(bits):
    """Count exposed 4-neighbor edges pixel by pixel."""
    h, w = bits.shape
    per = 0
    for y in range(h):
        for x in range(w):
            if not bits[y, x]:
                continue
            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ny, nx = y + dy, x + dx
                if not (0 <= ny < h and 0 <= nx < w) or not bits[ny, nx]:
                    per += 1
    return per


def flood_oracle(above, positives, negatives):
    """BFS flood fill from positives with whole-component negative removal."""
    h, w = above.shape

    def component(start):
        seen = {start}
        queue = deque([start])
        while queue:
            y, x = queue.popleft()
            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and above[ny, nx] and (ny, nx) not in seen:
                    seen.add((ny, nx))
                    queue.append((ny, nx))
        return seen

    grown = set()
    for p in positives:
        if above[p[0], p[1]]:
            grown |= component((p[0], p[1]))
    for q in negatives:
        if (q[0], q[1]) in grown:
            grown -= component((q[0], q[1]))
    out = [[0] * w for _ in range(h)]
    for y, x in grown:
        out[y][x] = 1
    return out


def two_means_oracle(points):
    """Optimal 2-means WCSS by exhaustive enumeration of all 2-partitions."""
    n = len(points)
    best = None
    for mask in range(1, 2 ** (n - 1)):  # fix point 0 in group A to halve the space
        a = [points[i] for i in range(n) if not (mask >> i) & 1]
        b = [points[i] for i in range(n) if (mask >> i) & 1]
        total = 0.0
        for group in (a, b):
            if not group:
                continue
            cy = sum(p[0] for p in group) / len(group)
            cx = sum(p[1] for p in group) / len(group)
            total += sum((p[0] - cy) ** 2 + (p[1] - cx) ** 2 for p in group)
        if best is None or total < best:
            best = total
    return best


def two_means_oracle_fast(points):
    """Same exhaustive 2-means optimum, via the WCSS sum-of-squares identity.

    WCSS(S) = sum(|p|^2 for p in S) - |sum(S)|^2 / |S|, enumerated over all
    2^(n-1) splits with numpy. Cross-checked against two_means_oracle.
    """
    import numpy as np

    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    masks = np.arange(1, 2 ** (n - 1), dtype=np.uint32)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    total_sq = float((pts * pts).sum())
    sums_a = member @ pts
    counts_a = member.sum(axis=1)
    sums_b = pts.sum(axis=0) - sums_a
    counts_b = n - counts_a
    explained = (sums_a * sums_a).sum(axis=1) / counts_a + (sums_b * sums_b).sum(
        axis=1
    ) / counts_b
    return total_sq - float(explained.max())


# The per-point prompt export that the array export replaced: one record per
# prompt, each mapped and checked on its own.


def to_image_xy_reference(row, col, scale):
    """Grid pixel -> image pixel, center-of-patch convention."""
    return col * scale + scale // 2, row * scale + scale // 2


def to_grid_point_reference(x, y, scale):
    """Inverse of ``to_image_xy_reference`` for coordinates it produced, as (row, col)."""
    return (y - scale // 2) // scale, (x - scale // 2) // scale


def build_export_reference(ps, n_regions, height, width):
    """``build_export`` as a loop over prompt records; returns the export's dict.

    ``ps`` carries (row, col) point arrays; a point outside the scaled frame
    raises the ShapeError the export raises.
    """
    from maup.errors import ShapeError

    positives = []
    for (row, col), source in zip(ps.positives.tolist(), ps.sources):
        x, y = to_image_xy_reference(row, col, ps.scale)
        positives.append({"x": x, "y": y, "label": 1, "source": source})
    negatives = []
    for row, col in ps.negatives.tolist():
        x, y = to_image_xy_reference(row, col, ps.scale)
        negatives.append({"x": x, "y": y, "label": 0, "source": "negative"})
    for pt in positives + negatives:
        if not (0 <= pt["x"] < width * ps.scale and 0 <= pt["y"] < height * ps.scale):
            raise ShapeError(f"exported prompt (x={pt['x']}, y={pt['y']}) escapes the scaled frame")
    return {
        "positives": positives,
        "negatives": negatives,
        "k_used": ps.k_used,
        "tau_mean": ps.tau_mean,
        "tau_uncert": ps.tau_uncert,
        "tau_neg": ps.tau_neg,
        "n_regions": n_regions,
        "seed": ps.seed,
        "scale": ps.scale,
        "flags": list(ps.flags),
    }


def surrogate_reference(export, above):
    """``surrogate_segment`` on an export's dict: map each prompt back, check it, flood.

    ``above`` is the thresholded H x W map; a prompt off the grid raises the
    ShapeError the surrogate raises, positives first.
    """
    from maup.errors import ShapeError

    h, w = above.shape
    grid = {"positives": [], "negatives": []}
    for kind, points in grid.items():
        for pt in export[kind]:
            row, col = to_grid_point_reference(pt["x"], pt["y"], export["scale"])
            if not (0 <= row < h and 0 <= col < w):
                raise ShapeError(f"prompt (x={pt['x']}, y={pt['y']}) is out of bounds for a {h}x{w} map")
            points.append((row, col))
    return flood_oracle(above, grid["positives"], grid["negatives"])


def generate_phantom_reference(spec):
    """``generate_phantom`` as first written: every draw inline, in one generator, per spec.

    Reuses maup's scene geometry and painting; only the draws are its own.
    """
    import numpy as np

    from maup.phantom import _BAND_RADIUS, _FEATURE_NORM, Phantom, _orthonormal_triple, _scene_masks
    from maup.regions import StructuringElement, periphery_mask
    from maup.tensors import BitMask, FeatureMap, ScalarMap

    rng = np.random.default_rng(spec.seed)
    size = spec.size
    q = _orthonormal_triple(rng, spec.channels)
    theta = spec.contrast * math.pi / 2.0
    basis = (
        _FEATURE_NORM * q[:, 0],
        _FEATURE_NORM * (math.cos(theta) * q[:, 0] + math.sin(theta) * q[:, 1]),
        _FEATURE_NORM * q[:, 2],
    )
    cy = size / 2.0 + rng.uniform(-size / 16.0, size / 16.0)
    cx = size / 2.0 + rng.uniform(-size / 16.0, size / 16.0)
    base = 0.16 * size if spec.family == "two-lobe" else 0.2 * size
    radius = base * rng.uniform(0.85, 1.15)
    lobe_dx = 0.21 * size
    shift_y, shift_x = (int(v) for v in rng.integers(-size // 10, size // 10 + 1, size=2))
    scale = rng.uniform(0.9, 1.1)
    s_organ, s_decoy = _scene_masks(spec, cy, cx, radius, lobe_dx)
    q_organ, q_decoy = _scene_masks(spec, cy + shift_y, cx + shift_x, radius * scale, lobe_dx * scale)
    support_mask, query_gt = BitMask(s_organ.astype(np.uint8)), BitMask(q_organ.astype(np.uint8))
    se = StructuringElement.disk(_BAND_RADIUS)

    def paint(organ, decoy, band):
        canvas = np.empty((spec.channels, size, size), dtype=np.float64)
        canvas[:] = basis[2][:, None, None]
        canvas[:, band] = basis[1][:, None]
        canvas[:, decoy] = basis[1][:, None]
        canvas[:, organ] = basis[0][:, None]
        if spec.noise > 0.0:
            canvas = canvas + spec.noise * rng.standard_normal(canvas.shape)
        return FeatureMap(canvas.astype(np.float32))

    support = paint(s_organ, s_decoy, periphery_mask(support_mask, se).bits == 1)
    query = paint(q_organ, q_decoy, periphery_mask(query_gt, se).bits == 1)
    return Phantom(support, support_mask, query, query_gt, ScalarMap((q_organ | q_decoy).astype(np.float32)))


def flood_dice_oracle(above, positives, negatives, gt):
    """Dice of :func:`flood_oracle`'s mask against ``gt``, counted pixel by pixel."""
    pred = flood_oracle(above, positives, negatives)
    a = b = inter = 0
    for y, row in enumerate(pred):
        for x, p in enumerate(row):
            a += bool(p)
            b += bool(gt[y][x])
            inter += bool(p) and bool(gt[y][x])
    return 1.0 if a == 0 and b == 0 else 2.0 * inter / (a + b)
