"""The benchmark's workloads: input generation from a seed, the CLI
commands of one operation, and the checks that decide whether an
operation's outputs are correct.

Inputs come from the test suite's generators in ``tests/synth.py``
(imported, not copied); the program receives only the files written
here. Ground truth stays in memory, in the ``Inputs`` object.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from synth import BeachScene, RECALIBRATED_INTRINSICS, make_calibration_views
from shoremap.calibration import BoardSpec
from shoremap.camera import project_many
from shoremap.formats import (
    read_asc,
    read_calibration,
    read_las,
    write_calibration,
    write_corner_csv,
    write_gcp_csv,
    write_ppm,
)
from shoremap.geometry import Point2, Point3
from shoremap.georectify import Gcp
from shoremap.stereo import RgbaImage


@dataclass
class Inputs:
    """Generated input files plus the truth the checks compare against."""

    files: dict[str, Path]
    truth: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(self.files[name].read_bytes())
        return h.hexdigest()


class CheckFailed(Exception):
    """An operation's outputs are wrong; the message says which check."""


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _report_without_timing(path: Path) -> str:
    report = json.loads(Path(path).read_text())
    report.pop("timing", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _band(name: str, value: float, lo: float, hi: float) -> None:
    if not (lo <= value <= hi):
        raise CheckFailed(f"{name} = {value:.6g} outside the band [{lo:g}, {hi:g}]")


def _schema_part(schema: dict, stage: str) -> dict:
    """The run-report schema's definition of one stage fragment."""
    part = dict(schema["properties"]["stages"]["properties"][stage])
    part["$defs"] = schema["$defs"]
    return part


def _validate(instance: dict, schema: dict) -> None:
    import jsonschema

    try:
        jsonschema.validate(instance, schema)
    except jsonschema.ValidationError as exc:
        raise CheckFailed(f"report does not match run_report.schema.json: {exc.message}")


# --- beach_run -----------------------------------------------------------------

class BeachRun:
    """`shoremap run` on the C9 beach fixture (320x240)."""

    name = "beach_run"

    def generate(self, seed: int, root: Path) -> Inputs:
        scene = BeachScene(seed=seed, width=320, height=240)
        files = scene.write_fixture(root)
        return Inputs(files=files, truth={"scene": scene})

    def commands(self, inputs: Inputs, out: Path) -> list[list[str]]:
        return [["run", "--config", str(inputs.files["config"]),
                 "--out-dir", str(out), "--report", str(out / "report.json")]]

    def artifacts(self, out: Path) -> dict[str, str]:
        names = ("cloud.las", "registered.las", "dsm.asc", "rectified.ppm", "rectified.wld")
        digests = {n: sha256(out / n) for n in names}
        digests["report.json"] = _report_without_timing(out / "report.json")
        return digests

    def check(self, inputs: Inputs, out: Path, schema: dict) -> dict[str, float]:
        report = json.loads((out / "report.json").read_text())
        _validate(report, schema)
        if report["stages_completed"] != ["depth", "register", "dsm", "check", "rectify"]:
            raise CheckFailed(f"stages completed: {report['stages_completed']}")
        scene = inputs.truth["scene"]
        dsm = read_asc((out / "dsm.asc").read_text())
        gx, gy = np.meshgrid(*dsm.geometry.cell_centers())
        data = dsm.values != dsm.nodata
        if data.sum() < 1000:
            raise CheckFailed(f"DSM has only {int(data.sum())} data cells")
        dz = dsm.values[data] - scene.z_surf(gx[data], gy[data])
        stages = report["stages"]
        geo = stages["georectification"]
        acc = {
            "dsm_rmse_m": float(np.sqrt(np.mean(dz * dz))),
            "check_rmse_dz_m": stages["vertical_check"]["rmse_dz"]["value"],
            "rectify_rmse_m": float(np.hypot(geo["rmse_x"]["value"], geo["rmse_y"]["value"])),
            "valid_fraction": stages["depth"]["valid_fraction"]["value"],
        }
        # C9's acceptance band: DSM within 2 sigma of the injected survey
        # noise. The other bands contain every seed of a 40-seed sweep
        # (seeds 0-39) with margin; see NOTES.md.
        _band("dsm_rmse_m", acc["dsm_rmse_m"], 0.0, 2.0 * scene.sigma_world)
        _band("check_rmse_dz_m", acc["check_rmse_dz_m"], 0.0, 0.08)
        _band("rectify_rmse_m", acc["rectify_rmse_m"], 0.0, 0.06)
        _band("valid_fraction", acc["valid_fraction"], 0.87, 0.885)
        return acc


# --- stereo_wide ---------------------------------------------------------------

class StereoWide:
    """`shoremap depth` on a 640x480 beach pair with 65 disparities."""

    name = "stereo_wide"

    def generate(self, seed: int, root: Path) -> Inputs:
        root.mkdir(parents=True, exist_ok=True)
        scene = BeachScene(seed=seed, width=640, height=480)
        left, z_left, _, _ = scene.render(scene.t_left)
        right, _, _, _ = scene.render(scene.t_right)
        files = {"left": root / "left.ppm", "right": root / "right.ppm",
                 "calibration": root / "calib.txt"}
        files["left"].write_bytes(write_ppm(scene._to_rgba(left)))
        files["right"].write_bytes(write_ppm(scene._to_rgba(right)))
        files["calibration"].write_text(write_calibration(scene.intrinsics, scene.baseline))
        truth = {"scene": scene, "disparity": scene.fx * scene.baseline / z_left}
        return Inputs(files=files, truth=truth)

    def commands(self, inputs: Inputs, out: Path) -> list[list[str]]:
        f = inputs.files
        return [["depth", "--left", str(f["left"]), "--right", str(f["right"]),
                 "--calibration", str(f["calibration"]),
                 "--d-min", "1", "--d-max", "65", "--window", "5", "--z-max", "2.2",
                 "--out-dir", str(out), "--report", str(out / "report.json")]]

    def artifacts(self, out: Path) -> dict[str, str]:
        return {"cloud.las": sha256(out / "cloud.las"),
                "report.json": sha256(out / "report.json")}

    def check(self, inputs: Inputs, out: Path, schema: dict) -> dict[str, float]:
        fragment = json.loads((out / "report.json").read_text())["depth"]
        _validate(fragment, _schema_part(schema, "depth"))
        scene = inputs.truth["scene"]
        cloud = read_las((out / "cloud.las").read_bytes())
        if len(cloud) != fragment["points"]:
            raise CheckFailed(f"cloud has {len(cloud)} points, report says {fragment['points']}")
        x, y, z = cloud.xyz.T
        # Back to the originating pixel; LAS quantization (0.1 mm) moves a
        # point by well under 0.1 px at this range.
        u = np.rint(scene.fx * x / z + scene.cx).astype(int)
        v = np.rint(scene.fy * y / z + scene.cy).astype(int)
        d = scene.fx * scene.baseline / z
        err = np.abs(d - inputs.truth["disparity"][v, u])
        acc = {
            "valid_fraction": fragment["valid_fraction"]["value"],
            "disparity_mae_px": float(err.mean()),
        }
        # Both bands contain every seed of a 40-seed sweep with margin.
        _band("valid_fraction", acc["valid_fraction"], 0.93, 0.94)
        _band("disparity_mae_px", acc["disparity_mae_px"], 0.0, 0.15)
        return acc


# --- survey_native -------------------------------------------------------------

BOARD = BoardSpec(cols=9, rows=6, square_size=0.025)
CALIB_VIEWS = 20
CALIB_NOISE_PX = 0.3
GCP_NOISE_M = 0.03
GCP_NOISE_PX = 0.3
RECTIFY_CELL_M = 0.02


class _SurveyCamera:
    """The 1920x1080 head of RECALIBRATED_INTRINSICS, 10 m above a planar
    beach (z = 0.2 + 0.03 y), looking north and tilted 30 degrees from
    nadir."""

    z0, slope = 0.2, 0.03

    def __init__(self):
        self.intr = RECALIBRATED_INTRINSICS
        tilt = np.radians(30.0)
        s, c = np.sin(tilt), np.cos(tilt)
        self.r_cw = np.array([[1.0, 0.0, 0.0], [0.0, -c, -s], [0.0, s, -c]])
        self.center = np.array([0.0, 0.0, 10.0])

    def ground_z(self, y):
        return self.z0 + self.slope * y

    def project(self, world: np.ndarray) -> np.ndarray:
        return project_many(self.intr, (world - self.center) @ self.r_cw.T)

    def ground_hit(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World xy where the rays of distorted pixels (u, v) meet the
        ground. Undistortion is solved here by plain fixed-point
        iteration, independently of the program under test."""
        i = self.intr
        xd = (u - i.cx) / i.fx
        yd = (v - i.cy) / i.fy
        x, y = xd.copy(), yd.copy()
        for _ in range(30):
            r2 = x * x + y * y
            radial = 1.0 + r2 * (i.k1 + r2 * (i.k2 + r2 * i.k3))
            x = (xd - 2.0 * i.p1 * x * y - i.p2 * (r2 + 2.0 * x * x)) / radial
            y = (yd - i.p1 * (r2 + 2.0 * y * y) - 2.0 * i.p2 * x * y) / radial
        rays = np.stack([x, y, np.ones_like(x)], axis=-1) @ self.r_cw
        cx, cy, cz = self.center
        t = (self.ground_z(cy) - cz) / (rays[..., 2] - self.slope * rays[..., 1])
        return cx + t * rays[..., 0], cy + t * rays[..., 1]


def _render_photo(cam: _SurveyCamera, rng: np.random.Generator) -> RgbaImage:
    """Ray-cast the ground texture into a 1920x1080 photo. Rays are cast
    on an 8 px lattice and interpolated bilinearly in between; the
    photo's pixels feed timing only, never an accuracy metric."""
    w, h, step = cam.intr.image_width, cam.intr.image_height, 8
    lu = np.arange(0, w + step, step, dtype=np.float64)
    lv = np.arange(0, h + step, step, dtype=np.float64)
    gx, gy = cam.ground_hit(*np.meshgrid(lu, lv))
    fu = np.arange(w) / step
    fv = np.arange(h) / step
    iu, iv = fu.astype(int), fv.astype(int)
    au, av = (fu - iu)[None, :], (fv - iv)[:, None]

    def upsample(g):
        g00 = g[iv][:, iu]
        g01 = g[iv][:, iu + 1]
        g10 = g[iv + 1][:, iu]
        g11 = g[iv + 1][:, iu + 1]
        return (g00 * (1 - au) + g01 * au) * (1 - av) + (g10 * (1 - au) + g11 * au) * av

    x, y = upsample(gx), upsample(gy)
    n, spacing = 1024, 0.04
    tex = rng.random((n, n))
    ix = np.clip(((x + n * spacing / 2) / spacing).astype(int), 0, n - 1)
    iy = np.clip((y / spacing).astype(int), 0, n - 1)
    v = np.rint(tex[iy, ix] * 255).astype(np.uint8)
    return RgbaImage(np.stack([v, v, v, np.full_like(v, 255)], axis=2))


class SurveyNative:
    """`shoremap calibrate` for two eyes, then `shoremap rectify
    --calibration` of a 1920x1080 photo, as one operation."""

    name = "survey_native"

    def generate(self, seed: int, root: Path) -> Inputs:
        root.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        files = {}
        for eye in ("left", "right"):
            views, _ = make_calibration_views(
                RECALIBRATED_INTRINSICS, BOARD, CALIB_VIEWS, CALIB_NOISE_PX, rng
            )
            files[eye] = root / f"{eye}.csv"
            files[eye].write_text(write_corner_csv([list(v.image_points) for v in views]))

        cam = _SurveyCamera()
        gx, gy = np.meshgrid(np.arange(-6.0, 6.1, 3.0), np.arange(3.0, 12.1, 3.0))
        world = np.stack([gx.ravel(), gy.ravel(), cam.ground_z(gy.ravel())], axis=1)
        px = cam.project(world) + rng.normal(0.0, GCP_NOISE_PX, (len(world), 2))
        surveyed = world + rng.normal(0.0, GCP_NOISE_M, world.shape)
        gcps = [
            Gcp(id=f"g{k + 1}", world=Point3(*map(float, surveyed[k])),
                image=Point2(float(px[k, 0]), float(px[k, 1])))
            for k in range(len(world))
        ]
        files["gcps"] = root / "gcps.csv"
        files["gcps"].write_text(write_gcp_csv(gcps))
        files["photo"] = root / "photo.ppm"
        files["photo"].write_bytes(write_ppm(_render_photo(cam, rng)))
        return Inputs(files=files, truth={"n_gcps": len(gcps)})

    def commands(self, inputs: Inputs, out: Path) -> list[list[str]]:
        f = inputs.files
        w, h = RECALIBRATED_INTRINSICS.image_width, RECALIBRATED_INTRINSICS.image_height
        return [
            ["calibrate", "--corners", str(f["left"]), str(f["right"]),
             "--board-cols", str(BOARD.cols), "--board-rows", str(BOARD.rows),
             "--square-size", str(BOARD.square_size),
             "--image-width", str(w), "--image-height", str(h),
             "--out", str(out / "calib.txt"), "--report", str(out / "calibration.json")],
            ["rectify", "--image", str(f["photo"]), "--gcps", str(f["gcps"]),
             "--calibration", str(out / "calib.left.txt"),
             "--cell-size", str(RECTIFY_CELL_M),
             "--out-dir", str(out), "--report", str(out / "rectify.json")],
        ]

    def artifacts(self, out: Path) -> dict[str, str]:
        names = ("calib.left.txt", "calib.right.txt", "calibration.json",
                 "rectified.ppm", "rectified.wld", "rectify.json")
        return {n: sha256(out / n) for n in names}

    def check(self, inputs: Inputs, out: Path, schema: dict) -> dict[str, float]:
        calib = json.loads((out / "calibration.json").read_text())["calibration"]
        if [e["n_views"] for e in calib["eyes"]] != [CALIB_VIEWS, CALIB_VIEWS]:
            raise CheckFailed(f"calibration used views {[e['n_views'] for e in calib['eyes']]}")
        # C1's recovery tolerance: fx within 0.5 % of the truth, each eye.
        for eye in ("left", "right"):
            fx = read_calibration((out / f"calib.{eye}.txt").read_text()).intrinsics.fx
            _band(f"{eye} fx", fx, RECALIBRATED_INTRINSICS.fx * 0.995,
                  RECALIBRATED_INTRINSICS.fx * 1.005)
        geo = json.loads((out / "rectify.json").read_text())["georectification"]
        _validate(geo, _schema_part(schema, "georectification"))
        if geo["n_gcps"] != inputs.truth["n_gcps"] or not geo["undistorted_observations"]:
            raise CheckFailed("rectify did not use every GCP with undistortion")
        acc = {
            "calib_reproj_px": calib["pooled_mean_reprojection_error"]["value"],
            "rectify_rmse_m": float(np.hypot(geo["rmse_x"]["value"], geo["rmse_y"]["value"])),
        }
        # Both bands contain every seed of a 40-seed sweep with margin.
        _band("calib_reproj_px", acc["calib_reproj_px"], 0.33, 0.40)
        _band("rectify_rmse_m", acc["rectify_rmse_m"], 0.0, 0.08)
        return acc


WORKLOADS = {w.name: w for w in (BeachRun(), StereoWide(), SurveyNative())}
