"""Acceptance gate: the headline properties the package must deliver.

Each test checks one criterion, records a single PASS/FAIL line (printed in
the terminal summary), and asserts. Thresholds are pinned here. Criteria 1-4
read the session-scoped five-scene benchmark run; 5-8 are self-contained,
with all oracles reimplemented from their defining formulas in this file.
"""

import math
from pathlib import Path

import numpy as np

from mvdesc.bench import quick_benchmark_config, run_benchmark
from mvdesc.geometry import PinholeCamera, Pose, rot_z
from mvdesc.hog import DescriptorParams, normalize_densities, patch_densities
from mvdesc.image import (AffineContrast, GrayImage, apply_contrast,
                          compute_gradient)
from mvdesc.matching import METRICS, DescriptorDatabase, nn_query
from mvdesc.multiview import MultiViewAccumulator
from mvdesc.scene import (build_scene, generate_dataset,
                          ground_truth_correspondence, render_view, VISIBLE)
from mvdesc.tracking import extract_patch
from mvdesc.viewsynth import (LocalSurface, aggregate_descriptor,
                              patch_density, synthesize_patch)

from conftest import small_spec


def _check(acceptance_log, criterion: int, ok: bool, detail: str) -> None:
    acceptance_log(criterion, ok, detail)
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1-4: benchmark-backed criteria


def test_criterion_1_directional_ranking(full_bench, acceptance_log):
    """Pooled recognition: running-average beats single-view by >= 5 points
    and trails keep-all by at most 3, for both patch sizes, under 10 min."""
    rep = full_bench["report"]
    pooled = rep["pooled"]
    ok = True
    parts = []
    for size in rep["config"]["patch_sizes"]:
        s = str(size)
        sv = 100.0 * pooled["sv"][s]
        mv = 100.0 * pooled["mv"][s]
        keep = 100.0 * pooled["keepall"][s]
        ok = ok and (mv >= sv + 5.0) and (keep >= mv - 3.0)
        parts.append(f"size {size}: sv {sv:.1f} mv {mv:.1f} keepall {keep:.1f}")
    elapsed = full_bench["elapsed"]
    ok = ok and elapsed < 600.0
    _check(acceptance_log, 1, ok,
           "; ".join(parts) + f"; runtime {elapsed:.0f}s < 600s")


def test_criterion_2_reconstruction_upper_bound(full_bench, acceptance_log):
    """Reconstruction-based matching lands within 5 points of keep-all (it
    may exceed it) and never falls below single-view, for both patch sizes."""
    rep = full_bench["report"]
    pooled = rep["pooled"]
    ok = True
    parts = []
    for size in rep["config"]["patch_sizes"]:
        s = str(size)
        sv = 100.0 * pooled["sv"][s]
        keep = 100.0 * pooled["keepall"][s]
        rh = 100.0 * pooled["rhog"][s]
        ok = ok and (rh >= keep - 5.0) and (rh >= sv)
        parts.append(f"size {size}: rhog {rh:.1f} keepall {keep:.1f} sv {sv:.1f}")
    _check(acceptance_log, 2, ok, "; ".join(parts))


def test_criterion_3_sufficient_excitation(full_bench, acceptance_log):
    """Mean excitation tracks mean accuracy over window sizes k (Spearman)."""
    exc = full_bench["report"]["excitation"]
    rho = exc["spearman"]
    ok = rho > 0.7
    pairs = ", ".join(f"k={k}: exc {e:.2f} rate {r:.2f}"
                      for k, e, r in zip(exc["ks"], exc["mean_excitation"],
                                         exc["mean_rate"]))
    _check(acceptance_log, 3, ok, f"spearman {rho:.3f} > 0.7; {pairs}")


def test_criterion_4_complexity(full_bench, acceptance_log):
    """Constant-memory storage and O(1) updates versus keep-all growth."""
    rep = full_bench["report"]
    ratio = rep["memory"]["slope_ratio"]
    flat = rep["timing"]["flatness"]
    ok = ratio > 10.0 and flat <= 1.2
    _check(acceptance_log, 4, ok,
           f"memory slope ratio {ratio:.0f}x > 10x; "
           f"update flatness {flat:.3f} <= 1.2")


# ---------------------------------------------------------------------------
# 5: oracle equivalence


def _density_oracle(grad, params, centers):
    """Brute-force density of a patch-sized gradient: explicit sum over
    pixels, bins vectorized."""
    bins = params.bins
    bc = (np.arange(bins) + 0.5) * (2.0 * math.pi / bins)
    p = params.patch_size
    out = np.zeros((len(centers), bins))
    for ci, (cx, cy) in enumerate(centers):
        acc = np.zeros(bins)
        for y in range(p):
            for x in range(p):
                r2 = (x - cx) ** 2 + (y - cy) ** 2
                if r2 > (3.0 * params.sigma) ** 2:
                    continue
                s = math.exp(-r2 / (2.0 * params.sigma ** 2))
                d = np.abs(grad.angle[y, x] - bc) % (2.0 * math.pi)
                d = np.minimum(d, 2.0 * math.pi - d)
                k = np.maximum(0.0, 1.0 - d / params.eps)
                acc += s * grad.magnitude[y, x] * k
        out[ci] = acc
    return out


def _metric_oracle(q, r, metric, bins):
    """Each metric restated from its defining formula, one pair at a time."""
    q = np.asarray(q, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if metric == "l1":
        return float(np.sum(np.abs(q - r)))
    if metric == "l2":
        return math.sqrt(float(np.sum((q - r) ** 2)))
    if metric == "neg-correlation":
        qc, rc = q - q.mean(), r - r.mean()
        nq, nr = float(np.linalg.norm(qc)), float(np.linalg.norm(rc))
        if nq < 1e-300 and nr < 1e-300:
            same = math.isclose(q[0], r[0], rel_tol=1e-9, abs_tol=1e-12)
            return 0.0 if same else 1.0
        if nq < 1e-300 or nr < 1e-300:
            return 1.0
        return 1.0 - float(qc @ rc) / (nq * nr)
    if metric == "chi2":
        total = 0.0
        for a, b in zip(q, r):
            if a + b > 0.0:
                total += (a - b) ** 2 / (a + b)
        return 0.5 * total
    if metric == "bhattacharyya":
        total = 0.0
        for c in range(q.size // bins):
            qa, ra = q[c * bins:(c + 1) * bins], r[c * bins:(c + 1) * bins]
            bc = min(float(np.sum(np.sqrt(qa * ra))), 1.0)
            total += math.inf if bc == 0.0 else -math.log(bc)
        return total
    if metric == "kl":
        total = 0.0
        for c in range(q.size // bins):
            qa = (q[c * bins:(c + 1) * bins] + 1e-8) / (1.0 + bins * 1e-8)
            ra = (r[c * bins:(c + 1) * bins] + 1e-8) / (1.0 + bins * 1e-8)
            total += float(np.sum(qa * (np.log(qa) - np.log(ra))))
        return total
    raise ValueError(metric)


def _cell_distributions(rng, n, cells, bins):
    v = rng.random((n, cells * cells, bins)) + 1e-3
    v /= v.sum(axis=2, keepdims=True)
    return v.reshape(n, -1)


def test_criterion_5_oracle_equivalence(acceptance_log):
    # densities against the brute-force evaluation, 50 random patches
    rng = np.random.default_rng(55501)
    worst_dens = 0.0
    for _ in range(50):
        size = int(rng.integers(8, 25))
        params = DescriptorParams(patch_size=size,
                                  bins=int(rng.choice([8, 16])),
                                  cells=int(rng.choice([2, 4])))
        img = GrayImage(rng.random((size, size)))
        grad = compute_gradient(img)
        got = patch_densities(img.data[None], params)[0].reshape(-1, params.bins)
        want = _density_oracle(grad, params, params.cell_centers())
        worst_dens = max(worst_dens, float(np.max(np.abs(got - want))))

    # nearest neighbors against a linear scan, 100 random databases
    rng = np.random.default_rng(55502)
    worst_nn = 0.0
    ids_ok = True
    for trial in range(100):
        bins = int(rng.choice([4, 8]))
        cells = int(rng.choice([1, 2]))
        params = DescriptorParams(patch_size=8, bins=bins, cells=cells)
        n = int(rng.integers(1, 41))
        ids = rng.integers(0, 15, size=n)
        rows = _cell_distributions(rng, n, cells, bins)
        metric = METRICS[trial % len(METRICS)]

        db = DescriptorDatabase("sv", params, ids, rows)
        query = _cell_distributions(rng, 1, cells, bins)[0]

        got_id, got_dist = nn_query(db, query, metric)
        dists = [_metric_oracle(query, row, metric, bins) for row in rows]
        want_dist, want_id = min(zip(dists, (int(t) for t in ids)))
        ids_ok &= (got_id == want_id)
        worst_nn = max(worst_nn, abs(got_dist - want_dist))

    ok = worst_dens <= 1e-9 and ids_ok and worst_nn <= 1e-9
    _check(acceptance_log, 5, ok,
           f"density |diff| {worst_dens:.1e} on 50 patches; nn ids exact "
           f"{ids_ok}, |dist diff| {worst_nn:.1e} on 100 databases")


# ---------------------------------------------------------------------------
# 6: invariance suite


def test_criterion_6_invariances(acceptance_log, plane_ds):
    rng = np.random.default_rng(66601)
    params = DescriptorParams(patch_size=16, bins=16, cells=4)

    # contrast invariance of the normalized density, homogeneity before it
    worst_inv, worst_hom = 0.0, 0.0
    for _ in range(20):
        img = GrayImage(rng.random((16, 16)))
        a = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(-0.2, 0.3))
        warped = apply_contrast(img, AffineContrast(a, b))
        base, scaled = patch_densities([img.data, warped.data], params)
        worst_hom = max(worst_hom, float(np.max(np.abs(scaled - a * base))))
        rows = normalize_densities([base, scaled], params)[0]
        worst_inv = max(worst_inv, float(np.max(np.abs(rows[1] - rows[0]))))

    # one-frame running average is bitwise the single-view density
    dens = patch_densities(GrayImage(rng.random((16, 16))).data[None], params)[0]
    acc = MultiViewAccumulator(params)
    acc.update(dens)
    t1_exact = np.array_equal(acc.finalize(),
                              normalize_densities(dens, params)[0][0])

    # reconstruction restricted to the identity view equals single-view
    view = plane_ds.frames[0]
    p11 = DescriptorParams(patch_size=11, bins=16, cells=4)
    anchor = (view.camera.width // 2, view.camera.height // 2)
    surf = LocalSurface.from_frame(view.depth, view.camera, anchor, 11)
    rh = aggregate_descriptor(
        synthesize_patch(surf, view.image, np.eye(3))[None], p11)
    sv = normalize_densities(patch_density(extract_patch(view.image, anchor, 11),
                                           p11), p11)[0][0]
    rh_diff = float(np.max(np.abs(rh - sv)))

    # normalization: every cell sums to one, including zero-evidence cells
    sums_ok = True
    for _ in range(10):
        d = patch_densities(GrayImage(rng.random((16, 16))).data[None], params)
        row = normalize_densities(d, params)[0]
        sums_ok &= bool(np.all(np.abs(row.reshape(-1, params.bins).sum(axis=1)
                                      - 1.0) <= 1e-6))
    flat, zero = normalize_densities(patch_densities(
        GrayImage(np.full((16, 16), 0.5)).data[None], params), params)
    sums_ok &= bool(np.all(np.abs(flat.reshape(-1, params.bins).sum(axis=1)
                                  - 1.0) <= 1e-6))
    sums_ok &= bool(np.all(zero))

    ok = (worst_inv <= 1e-9 and worst_hom <= 1e-9 and t1_exact
          and rh_diff <= 1e-9 and sums_ok)
    _check(acceptance_log, 6, ok,
           f"contrast inv {worst_inv:.1e}, homogeneity {worst_hom:.1e}, "
           f"T=1 bitwise {t1_exact}, identity-view diff {rh_diff:.1e}, "
           f"cell sums 1±1e-6 {sums_ok}")


# ---------------------------------------------------------------------------
# 7: geometry suite


def _plane_homography(src, dst):
    """Pixel map between two views of the plane z=0, built from first
    principles: lift to the plane in source camera coordinates, transfer."""
    k_src, k_dst = src.camera, dst.camera
    rel_r = dst.pose.r @ src.pose.r.T
    rel_t = dst.pose.t - rel_r @ src.pose.t
    n_src = src.pose.r @ np.array([0.0, 0.0, 1.0])
    d_src = float(n_src @ src.pose.transform(np.zeros(3)))

    def warp(xy):
        ray = np.array([(xy[0] - k_src.cx) / k_src.focal,
                        (xy[1] - k_src.cy) / k_src.focal, 1.0])
        depth_z = d_src / float(n_src @ ray)
        p_dst = rel_r @ (ray * depth_z) + rel_t
        return np.array([k_dst.focal * p_dst[0] / p_dst[2] + k_dst.cx,
                         k_dst.focal * p_dst[1] / p_dst[2] + k_dst.cy])
    return warp


def _roundtrip_error(ds, step=17):
    """Largest frame->test->frame position error over a pixel grid."""
    src = ds.frames[0]
    worst = 0.0
    for dst in ds.tests[:3]:
        for y in range(10, src.camera.height - 10, step):
            for x in range(10, src.camera.width - 10, step):
                fwd = ground_truth_correspondence(src, dst, (x, y))
                if fwd.status != VISIBLE:
                    continue
                back = ground_truth_correspondence(dst, src, fwd.xy)
                if back.status != VISIBLE:
                    continue
                err = math.hypot(back.xy[0] - x, back.xy[1] - y)
                worst = max(worst, err)
    return worst


def test_criterion_7_geometry(acceptance_log, plane_ds, relief_ds, tmp_path):
    # analytic ray-plane depth against the rendered raster
    view = plane_ds.frames[0]
    cam, pose = view.camera, view.pose
    eye = pose.center
    dirs = cam.ray_directions(cam.pixel_grid()) @ pose.r
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(dirs[..., 2] < 0.0, -eye[2] / dirs[..., 2], np.inf)
    finite = np.isfinite(view.depth)
    depth_err = float(np.max(np.abs(view.depth[finite] - t[finite])
                             / t[finite]))

    # correspondence round trips on both surface kinds
    rt_plane = _roundtrip_error(plane_ds)
    rt_relief = _roundtrip_error(relief_ds)

    # plane correspondences against the homography built from the poses
    src, dst = plane_ds.frames[0], plane_ds.tests[0]
    warp = _plane_homography(src, dst)
    homo_err = 0.0
    for y in range(12, src.camera.height - 12, 13):
        for x in range(12, src.camera.width - 12, 13):
            c = ground_truth_correspondence(src, dst, (x, y))
            if c.status != VISIBLE:
                continue
            expect = warp((float(x), float(y)))
            homo_err = max(homo_err, float(np.hypot(*(c.xy - expect))))

    # identity synthesis reproduces direct patch extraction
    anchor = (view.camera.width // 2, view.camera.height // 2)
    surf = LocalSurface.from_frame(view.depth, view.camera, anchor, 15)
    ident = synthesize_patch(surf, view.image, np.eye(3))
    direct = extract_patch(view.image, anchor, 15)
    ident_err = float(np.max(np.abs(ident - direct)))

    # quarter-turn synthesis on a fronto-parallel view equals array rotation
    spec = small_spec("overhead", "plane", 77)
    scene = build_scene(spec)
    k = PinholeCamera(170.0, 79.5, 59.5, 160, 120)
    overhead = Pose(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, 2.0]))
    flat = render_view(scene, k, overhead,
                       {"a": 1.0, "b": 0.0, "noise_sigma": 0.0})
    fsurf = LocalSurface.from_frame(flat.depth, k, (80, 60), 15)
    turned = synthesize_patch(fsurf, flat.image, rot_z(math.pi / 2.0))
    expect = np.rot90(extract_patch(flat.image, (80, 60), 15), 1)
    turn_err = float(np.mean(np.abs(turned - expect)))

    ok = (depth_err <= 1e-9 and rt_plane <= 0.05 and rt_relief <= 0.05
          and homo_err <= 0.1 and ident_err <= 1e-6 and turn_err <= 2e-2)
    _check(acceptance_log, 7, ok,
           f"plane depth rel {depth_err:.1e}, round trip {rt_plane:.3f}/"
           f"{rt_relief:.3f} px, homography {homo_err:.3f} px, identity "
           f"synth {ident_err:.1e}, quarter-turn {turn_err:.1e}")


# ---------------------------------------------------------------------------
# 8: determinism


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_8_determinism(acceptance_log, tmp_path):
    # datasets: same spec, two directories, identical bytes throughout
    data_ok = True
    for kind, seed in (("plane", 41), ("heightfield", 42)):
        spec = small_spec("twice", kind, seed)
        generate_dataset(spec, tmp_path / f"{kind}_a")
        generate_dataset(spec, tmp_path / f"{kind}_b")
        a = _tree_bytes(tmp_path / f"{kind}_a")
        b = _tree_bytes(tmp_path / f"{kind}_b")
        data_ok &= (a == b)

    # benchmark reports: identical seeds, identical report bytes; timing.csv
    # holds wall-clock measurements and is exempt by design
    cfg = quick_benchmark_config()
    run_benchmark(cfg, tmp_path / "bench_a")
    run_benchmark(cfg, tmp_path / "bench_b")
    rep_ok = True
    for name in ("report.csv", "report.json", "excitation.csv"):
        rep_ok &= ((tmp_path / "bench_a" / name).read_bytes()
                   == (tmp_path / "bench_b" / name).read_bytes())

    ok = data_ok and rep_ok
    _check(acceptance_log, 8, ok,
           f"dataset trees identical {data_ok}, report bytes identical {rep_ok}")
