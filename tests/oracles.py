"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately scalar pure-Python math (no vectorization)
so it shares no code path with the package implementations it checks.
The one exception is `classify_palette`, a vectorized test helper rather
than an oracle: it reads class ids back from renders using only
`synth.PALETTE`, and no package function computes the same thing.
"""
from __future__ import annotations

import math

import numpy as np

from scenecast.fusion import SceneRange
from scenecast.geom import CameraIntrinsics, FrameBundle, Se3Pose, relative_pose
from scenecast.synth import PALETTE


def visibility_bruteforce(
    rng: SceneRange,
    frame: FrameBundle,
    current_pose: Se3Pose,
    k: CameraIntrinsics,
    theta_d: float,
):
    """Scalar per-voxel visibility enumeration mirroring the band test.

    A scene point (sx, sy, sz) is the point (sx, -sz, sy) of the current
    camera (x right, y down, z forward), which the relative pose carries
    into the frame's camera. Each product is summed in scene-axis order
    (sx, then sy, then sz term) to match the vectorized sum bit for bit.
    """
    rel = relative_pose(current_pose, frame.pose)
    r = [[float(v) for v in row] for row in rel.rotation]
    t = [float(v) for v in rel.translation]
    depth = frame.depth.tolist()
    nx, ny, nz = rng.dims
    ox, oy, oz = (float(v) for v in rng.origin)
    vs = float(rng.voxel_size)
    fx, fy, cx, cy = k.fx, k.fy, k.cx, k.cy
    w, h = k.width, k.height

    vis = np.zeros((nx, ny, nz), dtype=bool)
    proj = np.zeros((nx, ny, nz, 3))
    for i in range(nx):
        sx = ox + (i + 0.5) * vs
        for j in range(ny):
            sy = oy + (j + 0.5) * vs
            for kk in range(nz):
                sz = oz + (kk + 0.5) * vs
                # current-camera coordinates of the scene point
                px, py, pz = sx, -sz, sy
                x = r[0][0] * px + r[0][2] * pz + r[0][1] * py + t[0]
                y = r[1][0] * px + r[1][2] * pz + r[1][1] * py + t[1]
                z = r[2][0] * px + r[2][2] * pz + r[2][1] * py + t[2]
                if z <= 1e-6:
                    continue
                u = fx * x / z + cx
                v = fy * y / z + cy
                ui = math.floor(u + 0.5)
                vi = math.floor(v + 0.5)
                if ui < 0 or ui > w - 1 or vi < 0 or vi > h - 1:
                    continue
                d_map = depth[vi][ui]
                if d_map > 0.0 and abs(z - d_map) <= theta_d:
                    vis[i, j, kk] = True
                    proj[i, j, kk] = (u, v, z)
    return vis, proj


def reprojection_bruteforce(src: FrameBundle, dst_pose: Se3Pose, k: CameraIntrinsics):
    """Scalar per-pixel reprojection of a source frame into a destination view.

    Pixel (u, v) with depth d lifts to ((u - cx) d / fx, (v - cy) d / fy, d),
    moves through the relative pose (products summed in x, y, z order) and
    projects; it is kept when d > 0, the moved depth exceeds 1e-6 and the
    nearest pixel floor(u' + 0.5), floor(v' + 0.5) is inside the image. A
    point whose arithmetic overflows is dropped: a NaN moved depth as
    behind, a non-finite u' or v' as off the image.
    Returns (idx, pix, uvd, drops): the row-major indices of the kept source
    pixels, their nearest destination pixels, their (n, 3) rows of
    (u', v', d'), and a dict counting the dropped pixels by reason.
    """
    rel = relative_pose(src.pose, dst_pose)
    r = [[float(v) for v in row] for row in rel.rotation]
    t = [float(v) for v in rel.translation]
    depth = src.depth.tolist()
    fx, fy, cx, cy = k.fx, k.fy, k.cx, k.cy
    w, h = k.width, k.height

    idx, pix, uvd = [], [], []
    drops = {"zero_depth": 0, "behind": 0, "off_image": 0}
    for v in range(h):
        for u in range(w):
            d = depth[v][u]
            if not d > 0.0:
                drops["zero_depth"] += 1
                continue
            x = (u - cx) * d / fx
            y = (v - cy) * d / fy
            xp = r[0][0] * x + r[0][1] * y + r[0][2] * d + t[0]
            yp = r[1][0] * x + r[1][1] * y + r[1][2] * d + t[1]
            zp = r[2][0] * x + r[2][1] * y + r[2][2] * d + t[2]
            if not zp > 1e-6:  # a NaN moved depth is not in front either
                drops["behind"] += 1
                continue
            up = fx * xp / zp + cx
            vp = fy * yp / zp + cy
            if not (math.isfinite(up) and math.isfinite(vp)):
                drops["off_image"] += 1
                continue
            ui = math.floor(up + 0.5)
            vi = math.floor(vp + 0.5)
            if ui < 0 or ui > w - 1 or vi < 0 or vi > h - 1:
                drops["off_image"] += 1
                continue
            idx.append(v * w + u)
            pix.append(vi * w + ui)
            uvd.append((up, vp, zp))
    return (
        np.array(idx, dtype=np.int64),
        np.array(pix, dtype=np.int64),
        np.array(uvd, dtype=np.float64).reshape(-1, 3),
        drops,
    )


def splat_bruteforce(sources, dst_pose: Se3Pose, k: CameraIntrinsics, dst_frame_index: int):
    """Scalar z-buffer over `reprojection_bruteforce`.

    Every kept source pixel bids for its nearest destination pixel with the
    tuple (round(d' / 1e-9), |frame index - dst_frame_index|, source pixel,
    slot), and the least bid wins: the depth bucket, then proximity, then the
    source pixel, then the slot. Python's round, like numpy's, rounds half
    to even, and a Python int holds any finite bucket exactly. Returns
    (image, depth, source_index), the image the winners' uint8 pixels: zeros
    and -1 where no bid landed.
    """
    h, w = k.height, k.width
    channels = sources[0].pixels.shape[2]
    best = {}
    for slot, src in enumerate(sources):
        idx, pix, uvd, _ = reprojection_bruteforce(src, dst_pose, k)
        proximity = abs(src.frame_index - dst_frame_index)
        for i, p, (_, _, d) in zip(idx.tolist(), pix.tolist(), uvd.tolist()):
            bucket = d / 1e-9
            bid = (round(bucket) if math.isfinite(bucket) else bucket, proximity, i, slot)
            if p not in best or bid < best[p][0]:
                best[p] = (bid, d, src.pixels[i // w, i % w])
    image = np.zeros((h, w, channels), dtype=np.uint8)
    depth = np.zeros((h, w))
    source_index = np.full((h, w), -1, dtype=np.int64)
    for p, (bid, d, color) in best.items():
        image[p // w, p % w] = color
        depth[p // w, p % w] = d
        source_index[p // w, p % w] = bid[3]
    return image, depth, source_index


def confusion_bruteforce(pred, gt, num_classes=None):
    """Scalar confusion counts of two label grids, one voxel pair at a time.

    Rows index ground truth and columns prediction; a voxel whose ground
    truth is 255 is skipped. C, when not given, is the largest class id of
    a counted voxel plus 1, or 1 when none counts. Raises the messages of
    `metrics.confusion`, in its order: dims, prediction id, ground-truth id.
    """
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"grid dims differ: {pred.shape} vs {gt.shape}")
    pairs = [
        (g, p) for g, p in zip(gt.reshape(-1).tolist(), pred.reshape(-1).tolist())
        if g != 255
    ]
    if num_classes is None:
        num_classes = max((max(g, p) for g, p in pairs), default=0) + 1
    if any(p >= num_classes for _, p in pairs):
        raise ValueError(f"prediction contains class id >= C={num_classes}")
    if any(g >= num_classes for g, _ in pairs):
        raise ValueError(f"ground truth contains class id >= C={num_classes}")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for g, p in pairs:
        counts[g, p] += 1
    return counts


def nearest_hit_bruteforce(hit):
    """Scalar nearest-hit map of a boolean mask with at least one hit.

    Each pixel takes the hit pixel at the least squared pixel distance; ties
    go to the smallest column, then the smallest row. Returns (rows, cols),
    two int arrays shaped like `hit`.
    """
    h, w = hit.shape
    hits = [(r, c) for r in range(h) for c in range(w) if hit[r, c]]
    rows = np.zeros((h, w), dtype=np.int64)
    cols = np.zeros((h, w), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            _, cols[r, c], rows[r, c] = min(
                ((hr - r) ** 2 + (hc - c) ** 2, hc, hr) for hr, hc in hits
            )
    return rows, cols


def resample_bruteforce(world, rng: SceneRange, pose: Se3Pose):
    """Scalar relabelling of a world grid onto a camera-anchored range.

    Each range centre origin + (i + 0.5) * vs, read in the level axes as the
    camera point (sx, -sz, sy), is moved through the world-from-camera pose
    (products summed in scene-axis order), floored to a world voxel and
    looked up; centres outside the world grid stay empty (0).
    """
    r = [[float(v) for v in row] for row in pose.rotation]
    t = [float(v) for v in pose.translation]
    wo = [float(v) for v in world.range.origin]
    wvs = float(world.range.voxel_size)
    wdims = world.range.dims
    world_labels = world.labels.tolist()
    nx, ny, nz = rng.dims
    ox, oy, oz = (float(v) for v in rng.origin)
    vs = float(rng.voxel_size)

    out = np.zeros((nx, ny, nz), dtype=np.uint8)
    for i in range(nx):
        sx = ox + (i + 0.5) * vs
        for j in range(ny):
            sy = oy + (j + 0.5) * vs
            for kk in range(nz):
                sz = oz + (kk + 0.5) * vs
                px, py, pz = sx, -sz, sy
                cell = []
                for a in range(3):
                    w = r[a][0] * px + r[a][2] * pz + r[a][1] * py + t[a]
                    cell.append(math.floor((w - wo[a]) / wvs))
                if all(0 <= cell[a] < wdims[a] for a in range(3)):
                    out[i, j, kk] = world_labels[cell[0]][cell[1]][cell[2]]
    return out


def downsample_bruteforce(visible, proj, edge: int = 4):
    """Scalar block reduction: OR of member visibility, projection mean over
    the visible members, each block's members summed in voxel C order."""
    visible = np.asarray(visible, dtype=bool)
    proj = np.asarray(proj, dtype=np.float64)
    if visible.ndim == 3:
        visible = visible[None]
        proj = proj[None]
    nf, nx, ny, nz = visible.shape
    vis_l = visible.tolist()
    proj_l = proj.tolist()
    bx, by, bz = nx // edge, ny // edge, nz // edge
    block_vis = np.zeros((nf, bx, by, bz), dtype=bool)
    block_proj = np.zeros((nf, bx, by, bz, 3))
    for f in range(nf):
        for bi in range(bx):
            for bj in range(by):
                for bk in range(bz):
                    n = 0
                    s = [0.0, 0.0, 0.0]
                    for i in range(bi * edge, (bi + 1) * edge):
                        for j in range(bj * edge, (bj + 1) * edge):
                            for kk in range(bk * edge, (bk + 1) * edge):
                                if vis_l[f][i][j][kk]:
                                    n += 1
                                    p = proj_l[f][i][j][kk]
                                    s = [s[0] + p[0], s[1] + p[1], s[2] + p[2]]
                    if n:
                        block_vis[f, bi, bj, bk] = True
                        block_proj[f, bi, bj, bk] = (s[0] / n, s[1] / n, s[2] / n)
    return block_vis, block_proj


def extract_features_bruteforce(pixels):
    """Scalar per-block transcription of the stride-4 feature stand-in.

    Each uint8 value p of `pixels` reads as p / 255. Gray is (r + g + b) / 3
    per pixel. The Sobel responses correlate gray with [-1, 0, 1] along the
    derivative axis and [1, 2, 1] across it, reflecting at the border
    (index -1 reads 0, index n reads n - 1). Each 4x4 block gives the means
    of R, G, B, gray, |Sobel x| and |Sobel y| (16 values summed in row-major
    order) and the min and max of gray.
    """
    rows = [[[c / 255.0 for c in px] for px in row] for row in np.asarray(pixels).tolist()]
    h, w = len(rows), len(rows[0])
    gray = [[(px[0] + px[1] + px[2]) / 3.0 for px in row] for row in rows]
    # gray with a reflected 1-pixel border: p[i + 1][j + 1] is gray[i][j]
    p = [[row[0]] + row + [row[-1]] for row in [gray[0]] + gray + [gray[-1]]]

    def sobel_x(i, j):
        return (
            (p[i][j + 2] - p[i][j])
            + 2.0 * (p[i + 1][j + 2] - p[i + 1][j])
            + (p[i + 2][j + 2] - p[i + 2][j])
        )

    def sobel_y(i, j):
        return (
            (p[i + 2][j] - p[i][j])
            + 2.0 * (p[i + 2][j + 1] - p[i][j + 1])
            + (p[i + 2][j + 2] - p[i][j + 2])
        )

    out = np.zeros((h // 4, w // 4, 8))
    for bi in range(h // 4):
        for bj in range(w // 4):
            cells = [(4 * bi + a, 4 * bj + b) for a in range(4) for b in range(4)]
            for c in range(3):
                out[bi, bj, c] = sum(rows[i][j][c] for i, j in cells) / 16.0
            out[bi, bj, 3] = sum(gray[i][j] for i, j in cells) / 16.0
            out[bi, bj, 4] = sum(abs(sobel_x(i, j)) for i, j in cells) / 16.0
            out[bi, bj, 5] = sum(abs(sobel_y(i, j)) for i, j in cells) / 16.0
            out[bi, bj, 6] = min(gray[i][j] for i, j in cells)
            out[bi, bj, 7] = max(gray[i][j] for i, j in cells)
    return out


# scalar forms of np.add, np.minimum, np.maximum and np.fmax: minimum and
# maximum propagate NaN, fmax returns the other operand of a NaN
_SCALAR_OPS = {
    "add": lambda x, y: x + y,
    "minimum": lambda x, y: x if x != x or x <= y else y,
    "maximum": lambda x, y: x if x != x or x >= y else y,
    "fmax": lambda x, y: y if x != x else x if y != y or x >= y else y,
}


def tile_fold_bruteforce(name: str, a, s: int):
    """Scalar fold of the numpy op `name` over each s x s tile of a 2-D array.

    Each tile row is folded from left to right, then the row results from
    top to bottom, one Python float at a time.
    """
    op = _SCALAR_OPS[name]
    rows = np.asarray(a, dtype=np.float64).tolist()
    h, w = len(rows), len(rows[0])
    out = np.zeros((h // s, w // s))
    for ti in range(h // s):
        for tj in range(w // s):
            acc = None
            for i in range(ti * s, ti * s + s):
                row = rows[i][tj * s]
                for j in range(tj * s + 1, tj * s + s):
                    row = op(row, rows[i][j])
                acc = row if acc is None else op(acc, row)
            out[ti, tj] = acc
    return out


def mat3_bruteforce(a, b):
    """Scalar product of a 3x3 `a` and a 3x3 or 3-vector `b`, each entry
    summed (a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j in Python floats; a list of
    rows, or one list for a vector `b`."""
    a = np.asarray(a, dtype=np.float64).tolist()
    b = np.asarray(b, dtype=np.float64).tolist()
    if not isinstance(b[0], list):
        return [(a[i][0] * b[0] + a[i][1] * b[1]) + a[i][2] * b[2] for i in range(3)]
    return [
        [(a[i][0] * b[0][j] + a[i][1] * b[1][j]) + a[i][2] * b[2][j] for j in range(3)]
        for i in range(3)
    ]


def box_footprint_bruteforce(r, t, x, y, z, k: CameraIntrinsics, eps):
    """Scalar `box_footprint`: (kept, f, u0, u1, v0, v1, zmin, zmax) as lists.

    x, y, z broadcast to (2, 2, 2, n): the 8 corners of n boxes. Each corner
    is moved in Python floats, summed left to right. A box with a corner
    that is not finite, or one that straddles the near plane z = 1e-6
    (widened by the box's eps), is kept. A box with every corner in front
    has the rectangle floor(min u - 0.5) .. floor(max u + 1.5) (and the
    same in v), clipped to the image, where u = fx x / z + cx; it is listed
    in f with that rectangle and the min and max corner depth when the
    clipped rectangle is not empty.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.asarray(r, dtype=np.float64).tolist()
    t0, t1, t2 = np.asarray(t, dtype=np.float64).tolist()
    x, y, z = (c.reshape(8, -1).T.tolist() for c in np.broadcast_arrays(x, y, z))
    n = len(x)
    eps = np.broadcast_to(np.asarray(eps, dtype=np.float64), (n,)).tolist()
    out = [[] for _ in range(8)]
    for i in range(n):
        corners = [
            (
                r00 * a + r01 * b + r02 * c + t0,
                r10 * a + r11 * b + r12 * c + t1,
                r20 * a + r21 * b + r22 * c + t2,
            )
            for a, b, c in zip(x[i], y[i], z[i])
        ]
        finite = all(math.isfinite(v) for corner in corners for v in corner)
        depths = [c for _, _, c in corners]
        front = finite and min(depths) > 1e-6 + eps[i]
        out[0].append(not finite or (not front and max(depths) > 1e-6 - eps[i]))
        if not front:
            continue
        us = [a * k.fx / c + k.cx for a, _, c in corners]
        vs = [b * k.fy / c + k.cy for _, b, c in corners]
        u0 = max(math.floor(min(us) - 0.5), 0)
        u1 = min(math.floor(max(us) + 1.5), k.width - 1)
        v0 = max(math.floor(min(vs) - 0.5), 0)
        v1 = min(math.floor(max(vs) + 1.5), k.height - 1)
        if u0 <= u1 and v0 <= v1:
            for column, value in zip(out[1:], (i, u0, u1, v0, v1, min(depths), max(depths))):
                column.append(value)
    return tuple(out)


def bilinear_bruteforce(field, u: float, v: float):
    """Scalar bilinear sample as a tent-filter sum over every pixel.

    Pixel (i, j) weighs max(0, 1 - |u - j|) * max(0, 1 - |v - i|), which is
    bilinear interpolation between the pixel centers around (u, v). Returns
    the channel values as a list (one entry for a 2-D field), or None when
    (u, v) lies outside the hull of pixel centers.
    """
    rows = np.asarray(field, dtype=np.float64).tolist()
    h, w = len(rows), len(rows[0])
    u, v = float(u), float(v)
    if not (0.0 <= u <= w - 1 and 0.0 <= v <= h - 1):
        return None
    out = None
    for i in range(h):
        wv = max(0.0, 1.0 - abs(v - i))
        for j in range(w):
            weight = wv * max(0.0, 1.0 - abs(u - j))
            px = rows[i][j] if isinstance(rows[i][j], list) else [rows[i][j]]
            if out is None:
                out = [0.0] * len(px)
            out = [o + weight * p for o, p in zip(out, px)]
    return out


def scal_bruteforce(probs, labels, clamp: float = 1e-8) -> float:
    """Scalar transcription of the class-wise log precision/recall/specificity loss."""
    probs = [list(map(float, row)) for row in probs]
    labels = [int(v) for v in labels]
    n = len(probs)
    c_count = len(probs[0]) if n else 0

    def slog(x: float) -> float:
        return math.log(x if x > clamp else clamp)

    total = 0.0
    terms = 0
    for c in range(c_count):
        num_p = sum(probs[i][c] for i in range(n) if labels[i] == c)
        den_p = sum(probs[i][c] for i in range(n))
        den_r = sum(1 for i in range(n) if labels[i] == c)
        num_s = sum(1.0 - probs[i][c] for i in range(n) if labels[i] != c)
        den_s = sum(1 for i in range(n) if labels[i] != c)
        if den_p == 0.0 and den_r == 0:
            continue
        pc = slog(num_p) - slog(den_p)
        rc = slog(num_p) - slog(den_r)
        sc = slog(num_s) - slog(den_s)
        total -= pc + rc + sc
        terms += 1
    return total / terms if terms else 0.0


def scal_geo_bruteforce(probs, labels, clamp: float = 1e-8) -> float:
    """Binary occupied/empty reduction fed through the scalar affinity loss."""
    p2 = [[float(row[0]), 1.0 - float(row[0])] for row in probs]
    l2 = [0 if int(v) == 0 else 1 for v in labels]
    return scal_bruteforce(p2, l2, clamp)


def weighted_ce_bruteforce(probs, labels, weights, clamp: float = 1e-8) -> float:
    total = 0.0
    n = len(labels)
    for i in range(n):
        li = int(labels[i])
        p = float(probs[i][li])
        total += -float(weights[li]) * math.log(p if p > clamp else clamp)
    return total / n


def ssim_bruteforce(a, b) -> float:
    """1 - SSIM in plain Python floats: an explicit 11x11 Gaussian window
    (sigma 1.5, weights normalized to sum to 1), C1 = 0.01^2 and
    C2 = 0.03^2, averaged over every valid window position of each channel,
    then over the channels."""
    size, sigma = 11, 1.5
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    half = (size - 1) / 2.0
    raw = [
        [math.exp(-((i - half) ** 2 + (j - half) ** 2) / (2.0 * sigma * sigma)) for j in range(size)]
        for i in range(size)
    ]
    total = sum(sum(row) for row in raw)
    win = [[v / total for v in row] for row in raw]
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim == 2:
        a, b = a[:, :, None], b[:, :, None]
    h, w, channels = a.shape
    a, b = a.tolist(), b.tolist()
    means = []
    for c in range(channels):
        vals = []
        for y in range(h - size + 1):
            for x in range(w - size + 1):
                mu_a = mu_b = m_aa = m_bb = m_ab = 0.0
                for i in range(size):
                    for j in range(size):
                        p, q, wt = a[y + i][x + j][c], b[y + i][x + j][c], win[i][j]
                        mu_a += wt * p
                        mu_b += wt * q
                        m_aa += wt * p * p
                        m_bb += wt * q * q
                        m_ab += wt * p * q
                var_a, var_b = m_aa - mu_a * mu_a, m_bb - mu_b * mu_b
                cov = m_ab - mu_a * mu_b
                num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
                den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
                vals.append(num / den)
        means.append(sum(vals) / len(vals))
    return 1.0 - sum(means) / channels


def _ray_box(o, d, lo, hi):
    """Entry/exit parameters of a ray against one axis-aligned box."""
    t_enter, t_exit = -math.inf, math.inf
    for a in range(3):
        if d[a] == 0.0:
            if o[a] < lo[a] or o[a] > hi[a]:
                return None
            continue
        t1 = (lo[a] - o[a]) / d[a]
        t2 = (hi[a] - o[a]) / d[a]
        if t1 > t2:
            t1, t2 = t2, t1
        t_enter = max(t_enter, t1)
        t_exit = min(t_exit, t2)
    if t_exit < t_enter:
        return None
    return t_enter, t_exit


def raycast_bruteforce(grid, pose: Se3Pose, k: CameraIntrinsics, d_max: float):
    """First-hit depth/label per pixel by testing every occupied voxel box."""
    vs = float(grid.range.voxel_size)
    gmin = [float(v) for v in grid.range.origin]
    occ = []
    labels = grid.labels
    for idx in np.argwhere(labels > 0):
        lo = [gmin[a] + idx[a] * vs for a in range(3)]
        hi = [lo[a] + vs for a in range(3)]
        occ.append((lo, hi, int(labels[idx[0], idx[1], idx[2]])))

    r = pose.rotation.tolist()
    o = [float(v) for v in pose.translation]
    depth = np.zeros((k.height, k.width))
    cls = np.zeros((k.height, k.width), dtype=np.uint8)
    for v in range(k.height):
        for u in range(k.width):
            dc = ((u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0)
            dw = [
                r[a][0] * dc[0] + r[a][1] * dc[1] + r[a][2] * dc[2] for a in range(3)
            ]
            best_t, best_label = math.inf, 0
            for lo, hi, lab in occ:
                hitrange = _ray_box(o, dw, lo, hi)
                if hitrange is None:
                    continue
                t_enter = max(hitrange[0], 1e-9)
                if hitrange[1] < t_enter:
                    continue
                if t_enter < best_t and t_enter <= d_max:
                    best_t, best_label = t_enter, lab
            if best_label:
                depth[v, u] = best_t
                cls[v, u] = best_label
    return depth, cls


def classify_palette(image) -> np.ndarray:
    """Recover class ids from a (possibly shaded) render by color direction.

    Shading only scales colors, so the nearest palette direction under the
    cosine measure identifies the class; near-black pixels map to 0.
    """
    img = np.asarray(image, dtype=np.float64)
    norms = np.linalg.norm(img, axis=-1)
    dirs = PALETTE[1:] / np.linalg.norm(PALETTE[1:], axis=1, keepdims=True)
    scores = img @ dirs.T
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = scores / np.maximum(norms[..., None], 1e-12)
    cls = np.argmax(scores, axis=-1).astype(np.uint8) + 1
    cls[norms < 1e-6] = 0
    return cls
