"""Dataset generation, lifting, normalization, and file-format contracts."""

import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from neuralbayes import data as D
from neuralbayes.errors import DatasetError, FormatError, ShapeError


def two_clouds(d: int, seed: int) -> D.ManifoldDataset:
    """Two Gaussian clouds of 150 and 130 points in d dimensions, the second
    shifted by 3 in every coordinate."""
    rng = np.random.default_rng(seed)
    points = np.vstack([rng.standard_normal((150, d)), 3.0 + rng.standard_normal((130, d))])
    return D.ManifoldDataset(points, np.repeat([0, 1], [150, 130]))


class TestGenerators:
    def test_moons_deterministic_and_labeled(self):
        a = D.make_two_moons(50, seed=3)
        b = D.make_two_moons(50, seed=3)
        assert np.array_equal(a.points, b.points)
        assert sorted(np.unique(a.components)) == [0, 1]
        assert a.size == 100 and a.dim == 2

    def test_different_seeds_differ(self):
        a = D.make_two_moons(30, seed=1)
        b = D.make_two_moons(30, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_disjointness_postcheck_fires(self):
        with pytest.raises(DatasetError, match="not well separated"):
            D.make_two_moons(200, gap=0.0, noise=0.4, seed=0)

    @pytest.mark.parametrize("make", [D.make_two_moons, D.make_circles,
                                      lambda n, noise: D.make_blobs(3, n, noise=noise)])
    @pytest.mark.parametrize("noise", [np.nan, np.inf, -np.inf, -0.1])
    def test_noise_must_be_finite_and_nonnegative(self, make, noise):
        with pytest.raises(DatasetError, match=f"noise must be finite and >= 0, got {noise}"):
            make(20, noise=noise)

    @pytest.mark.parametrize("gap", [np.nan, np.inf, -np.inf])
    def test_moons_gap_must_be_finite(self, gap):
        with pytest.raises(DatasetError, match=f"gap must be finite, got {gap}"):
            D.make_two_moons(20, gap=gap)

    def test_disjointness_postcheck_fails_on_nan_distance(self):
        # a NaN coordinate makes a NaN distance, which is no separation
        points = np.array([[0.0, 0.0], [np.nan, 3.0]])
        with pytest.raises(DatasetError, match="not well separated"):
            D._check_disjoint(points, np.array([0, 1]), 0.06, "circles")

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 0.0])
    def test_circles_reject_a_bad_radius(self, radius):
        with pytest.raises(DatasetError, match=re.escape(
                f"need at least two positive finite radii, got [1.0, {radius}]")):
            D.make_circles(20, radii=(1.0, radius), seed=0)

    def test_empty_component_rejected(self):
        with pytest.raises(DatasetError):
            D.make_two_moons(0, seed=0)
        with pytest.raises(DatasetError):
            D.make_blobs(3, 0, seed=0)

    def test_blob_separation_example(self):
        ds = D.make_blobs(2, 100, noise=0.1, seed=4)
        assert D.min_inter_component_distance(ds.points, ds.components) > 4.0

    @pytest.mark.parametrize("make", [lambda: D.make_two_moons(300, seed=3),
                                      lambda: D.make_circles(250, noise=0.05, seed=5),
                                      lambda: D.make_blobs(3, 200, noise=0.3, seed=4),
                                      lambda: two_clouds(3, seed=15),
                                      lambda: two_clouds(7, seed=16)])
    def test_blocked_distance_is_the_full_formula(self, make, monkeypatch):
        ds = make()
        ids = np.unique(ds.components)
        full = min(float(np.sqrt(((ds.points[ds.components == a][:, None, :]
                                   - ds.points[ds.components == b][None, :, :]) ** 2)
                                 .sum(axis=2).min()))
                   for i, a in enumerate(ids) for b in ids[i + 1:])
        for block_bytes in (1, 16 * 8 * 300, D.DISTANCE_BLOCK_BYTES):
            monkeypatch.setattr(D, "DISTANCE_BLOCK_BYTES", block_bytes)
            assert D.min_inter_component_distance(ds.points, ds.components) == full

    def test_distance_is_the_in_order_sum_over_coordinates(self):
        # from 8 coordinates on numpy's sum over the last axis is pairwise, so
        # the full-array formula is not the reference there: on this cloud it
        # gives another minimum in the last bits
        ds = two_clouds(9, seed=25)
        pa, pb = ds.points[ds.components == 0], ds.points[ds.components == 1]
        d2 = 0.0
        for k in range(9):
            d2 = d2 + (pa[:, None, k] - pb[None, :, k]) ** 2
        assert D.min_inter_component_distance(ds.points, ds.components) == float(np.sqrt(d2.min()))

    def test_distance_memory_is_bounded(self):
        # the full difference array of 3000 points per moon is 206 MiB
        ds = D.make_two_moons(3000, seed=3)
        tracemalloc.start()
        try:
            D.min_inter_component_distance(ds.points, ds.components)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * D.DISTANCE_BLOCK_BYTES, peak

    def test_circles_components(self):
        ds = D.make_circles(80, radii=(1.0, 2.0), noise=0.05, seed=5)
        assert ds.num_components == 2
        radius = np.linalg.norm(ds.points, axis=1)
        assert radius[ds.components == 0].mean() < radius[ds.components == 1].mean()

    def test_metadata_records_parameters(self):
        ds = D.make_two_moons(40, gap=0.3, noise=0.05, seed=6)
        assert ds.meta["gap"] == 0.3 and ds.meta["noise"] == 0.05
        assert ds.meta["min_inter_component_distance"] > 0.2


# sha256 of 2,000 moons lifted to 400-D and unlifted
UNLIFT_HASH = """
import hashlib
from neuralbayes import data as D
lifted = D.lift_and_rotate(D.make_two_moons(2000, seed=1), 400, seed=2)
print(hashlib.sha256(D.unlift_points(lifted.points, lifted.meta["lift"]).tobytes()).hexdigest())
"""


class TestLift:
    def test_requires_growth(self):
        ds = D.make_two_moons(20, seed=0)
        with pytest.raises(ShapeError):
            D.lift_and_rotate(ds, 1, seed=0)

    def test_isometry(self):
        ds = D.make_two_moons(60, seed=7)
        lifted = D.lift_and_rotate(ds, 512, seed=8)
        d0 = np.linalg.norm(ds.points[:, None] - ds.points[None, :], axis=2)
        d1 = np.linalg.norm(lifted.points[:, None] - lifted.points[None, :], axis=2)
        np.testing.assert_allclose(d0, d1, atol=1e-9)
        assert np.array_equal(lifted.components, ds.components)

    def test_rotation_is_orthogonal(self):
        from neuralbayes.nn import orthogonal_init
        r = orthogonal_init(64, 64, 9)
        np.testing.assert_allclose(r.T @ r, np.eye(64), atol=1e-9)

    def test_round_trip_through_lift(self):
        ds = D.make_two_moons(30, seed=10)
        lifted = D.lift_and_rotate(ds, 16, seed=11)
        back = D.unlift_points(lifted.points, lifted.meta["lift"])
        np.testing.assert_allclose(back, ds.points, atol=1e-9)
        again = D.lift_points(ds.points, lifted.meta["lift"])
        np.testing.assert_allclose(again, lifted.points, atol=1e-9)

    @pytest.mark.parametrize("dim", [16, 512])
    @pytest.mark.parametrize("n", [1, 5, 500, 2000])
    def test_lift_is_the_padded_full_rotation_product(self, dim, n):
        from neuralbayes.nn import orthogonal_init
        meta = {"dim": dim, "seed": 23, "base_dim": 2}
        points = np.random.default_rng(n).standard_normal((n, 2))
        rotation = orthogonal_init(dim, dim, 23)
        lifted = np.hstack([points, np.zeros((n, dim - 2))]) @ rotation
        np.testing.assert_array_equal(D.lift_points(points, meta), lifted)
        np.testing.assert_array_equal(D.unlift_points(lifted, meta), (lifted @ rotation.T)[:, :2])

    def test_unlift_bits_do_not_depend_on_the_thread_count(self):
        # at 400-D the (2000, 400) x (400, 400) product sums in another
        # order on two OpenBLAS threads than on one
        src = str(Path(__file__).resolve().parent.parent / "src")
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", UNLIFT_HASH], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            hashes.append(done.stdout)
        assert len(hashes[0].strip()) == 64 and hashes[0] == hashes[1]

    def test_unlift_checks_the_width(self):
        meta = {"dim": 16, "seed": 0, "base_dim": 2}
        with pytest.raises(ShapeError, match="expected 16-D points for this lift, got 15-D"):
            D.unlift_points(np.zeros((4, 15)), meta)

    def test_lift_memory_is_its_result(self):
        points = np.random.default_rng(24).standard_normal((4000, 2))
        tracemalloc.start()
        try:
            lifted = D.lift_points(points, {"dim": 512, "seed": 25, "base_dim": 2})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * lifted.nbytes, (peak, lifted.nbytes)


class TestStandardize:
    def test_moments(self):
        ds = D.standardize(D.make_two_moons(100, seed=12))
        np.testing.assert_allclose(ds.points.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(ds.points.std(axis=0), 1.0, atol=1e-9)

    def test_idempotent(self):
        once = D.standardize(D.make_two_moons(100, seed=13))
        twice = D.standardize(once)
        np.testing.assert_allclose(once.points, twice.points, atol=1e-9)

    def test_constant_dimension_maps_to_zero(self):
        points = np.column_stack([np.random.default_rng(14).standard_normal(50),
                                  np.full(50, 3.5)])  # dyadic value: the mean is bit-exact
        ds = D.ManifoldDataset(points, np.zeros(50, dtype=int))
        out = D.standardize(ds)
        np.testing.assert_array_equal(out.points[:, 1], 0.0)
        # non-dyadic constants leave at most ulp/floor residue
        points[:, 1] = 3.7
        out = D.standardize(D.ManifoldDataset(points, np.zeros(50, dtype=int)))
        assert np.abs(out.points[:, 1]).max() <= 1e-6


class TestIdx:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(20)
        images = rng.integers(0, 256, (5, 7, 7), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
        D.write_idx(images, labels, ip, lp)
        ds = D.load_idx(ip, lp)
        np.testing.assert_allclose(ds.points, images.reshape(5, 49) / 255.0, atol=0)
        assert np.array_equal(ds.components, labels)
        D.write_idx((ds.points.reshape(5, 7, 7) * 255).astype(np.uint8), labels,
                    tmp_path / "img2.idx", tmp_path / "lbl2.idx")
        assert (tmp_path / "img2.idx").read_bytes() == ip.read_bytes()
        assert (tmp_path / "lbl2.idx").read_bytes() == lp.read_bytes()

    def test_all_zero_fixture(self, tmp_path):
        D.write_idx(np.zeros((1, 28, 28), dtype=np.uint8), np.array([7], dtype=np.uint8),
                    tmp_path / "i.idx", tmp_path / "l.idx")
        ds = D.load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        assert np.all(ds.points == 0.0) and ds.components[0] == 7

    def test_truncated_images(self, tmp_path):
        D.write_idx(np.zeros((2, 4, 4), dtype=np.uint8), np.zeros(2, dtype=np.uint8),
                    tmp_path / "i.idx", tmp_path / "l.idx")
        raw = (tmp_path / "i.idx").read_bytes()
        (tmp_path / "i.idx").write_bytes(raw[:-5])
        with pytest.raises(FormatError, match="expected 48 bytes, found 43"):
            D.load_idx(tmp_path / "i.idx", tmp_path / "l.idx")

    def test_bad_magic(self, tmp_path):
        D.write_idx(np.zeros((1, 2, 2), dtype=np.uint8), np.zeros(1, dtype=np.uint8),
                    tmp_path / "i.idx", tmp_path / "l.idx")
        raw = bytearray((tmp_path / "i.idx").read_bytes())
        raw[3] = 0x99
        (tmp_path / "i.idx").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="bad magic"):
            D.load_idx(tmp_path / "i.idx", tmp_path / "l.idx")

    def test_count_mismatch(self, tmp_path):
        D.write_idx(np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8),
                    tmp_path / "i.idx", tmp_path / "l.idx")
        D.write_idx(np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8),
                    tmp_path / "i3.idx", tmp_path / "l3.idx")
        with pytest.raises(FormatError, match="label count 3 != image count 2"):
            D.load_idx(tmp_path / "i.idx", tmp_path / "l3.idx")


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = D.make_two_moons(25, seed=21)
        path = tmp_path / "d.csv"
        D.save_csv(ds, path)
        loaded = D.load_csv(path)
        np.testing.assert_array_equal(loaded.points, ds.points)
        assert np.array_equal(loaded.components, ds.components)
        header = path.read_text().splitlines()[0]
        assert header == "x0,x1,component"

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FormatError):
            D.load_csv(p)

    @pytest.mark.parametrize("text", ["x0,x1,component\n", "x0,x1,component", "x0,component\n\n"])
    def test_header_only_names_missing_rows(self, tmp_path, text):
        p = tmp_path / "empty.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" would raise
            with pytest.raises(FormatError, match="empty.csv: no data rows$"):
                D.load_csv(p)

    def test_well_formed_rows_load_as_written(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1,component\n-0.5,1e-3,0\n\n# a comment line\n2.25,-7,1.0\n"
                     "3,4,-1\n")  # a negative id is left to the command that knows k
        ds = D.load_csv(p)
        np.testing.assert_array_equal(ds.points, [[-0.5, 1e-3], [2.25, -7.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.components, [0, 1, -1])
        assert ds.components.dtype == np.int64

    @pytest.mark.parametrize("value", ["1.5", "-0.5", "nan", "inf", "-inf", "1e19"])
    def test_component_must_be_an_integer(self, tmp_path, value):
        p = tmp_path / "d.csv"
        p.write_text(f"x0,x1,component\n0,0,0\n\n# a comment line\n1,1,{value}\n2,2,{value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the cast of a NaN would warn
            with pytest.raises(FormatError, match=r"d.csv: line 5: component .* is not a "
                                                  r"64-bit integer$"):
                D.load_csv(p)

    @pytest.mark.parametrize("line, match", [
        ("   ", "expected 3 comma-separated values, got 1"),
        ("1,abc,1", "'abc' is not a number"),
        ("1,1_0,1", "'1_0' is not a number"),
        ("1,\u0661,1", "'\u0661' is not a number"),
        ("1,1", "expected 3 comma-separated values, got 2"),
    ])
    def test_unreadable_line_names_its_file_line(self, tmp_path, line, match):
        # the blank and comment lines before it count, as for the value checks
        p = tmp_path / "d.csv"
        p.write_text(f"x0,x1,component\n0,0,0\n\n# a comment line\n{line}\n2,2,1\n")
        with pytest.raises(FormatError, match=rf"d.csv: line 5: {match}$"):
            D.load_csv(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_coordinate_must_be_finite(self, tmp_path, value):
        p = tmp_path / "d.csv"
        p.write_text(f"x0,x1,component\n0,0,0\n1,{value},1\n")
        with pytest.raises(FormatError, match=rf"d.csv: line 3: coordinate x1 = {value} is not "
                                              r"finite$"):
            D.load_csv(p)
