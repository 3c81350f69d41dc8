import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bubblemesh import packing
from bubblemesh.cli import main as cli_main
from bubblemesh.geometry import segment_table
from bubblemesh.mesh import load_mesh, quality_report
from bubblemesh.pipeline import (PipelineConfig, PipelineError, _stage,
                                 initial_surface_mesh, load_anchor_csv, load_config,
                                 plane_domain, run_plane_pipeline,
                                 run_remesh_pipeline, run_surface_pipeline)

from conftest import bench_module


class TestConfig:
    def test_defaults_complete(self):
        cfg = load_config(None)
        assert cfg.mode == "plane"
        assert cfg.r_max == 0.5
        assert cfg.holes == [(10.0, 5.0, 2.0)]

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "mode = surface\n"
            "surface = cylinder\n"
            "surface_params = radius=2.0, v1=3.0\n"
            "epsilon = 0.02   # trailing comment\n"
            "holes = 3,3,1; 7,7,0.5\n"
            "seed = 11\n")
        cfg = load_config(path)
        assert cfg.mode == "surface"
        assert cfg.surface == "cylinder"
        assert cfg.surface_params == {"radius": 2.0, "v1": 3.0}
        assert cfg.epsilon == 0.02
        assert cfg.holes == [(3.0, 3.0, 1.0), (7.0, 7.0, 0.5)]
        assert cfg.seed == 11

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("wibble = 3\n")
        with pytest.raises(PipelineError, match="unknown keys"):
            load_config(path)

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nout = somewhere\n")
        cfg = load_config(path, {"seed": "5"})
        assert cfg.seed == 5
        assert str(cfg.out) == "somewhere"

    def test_no_file_gives_field_defaults(self):
        assert load_config(None) == PipelineConfig()

    def test_unknown_override_rejected(self):
        with pytest.raises(PipelineError, match="unknown keys"):
            load_config(None, {"wibble": "3"})

    def test_bad_value_rejected(self):
        with pytest.raises(PipelineError, match="max_sweeps"):
            load_config(None, {"max_sweeps": "many"})

    def test_misspelled_qc_rejected(self):
        with pytest.raises(PipelineError, match="qc"):
            load_config(None, {"qc": "orignal"})

    def test_misspelled_compare_source_rejected(self):
        with pytest.raises(PipelineError, match="compare_source: 'bogus' is not one of"):
            load_config(None, {"mode": "compare-qc", "compare_source": "bogus"})

    def test_misspelled_bool_rejected(self):
        with pytest.raises(PipelineError, match="graded"):
            load_config(None, {"graded": "ture"})

    def test_bool_words(self):
        assert load_config(None, {"graded": "On"}).graded is True
        assert load_config(None, {"graded": "no"}).graded is False

    @pytest.mark.parametrize("radius", ["0", "-2"])
    def test_hole_radius_must_be_positive(self, radius):
        # a zero radius would fail at packing as an unoriented hole, and a
        # negative one would mesh a hole of the opposite radius
        with pytest.raises(PipelineError, match=r"^\[config\] holes: .* not positive"):
            load_config(None, {"holes": f"10,5,{radius}"})

    def test_missing_anchors_file(self):
        with pytest.raises(PipelineError, match="anchors file"):
            load_config(None, {"anchors_file": "/nonexistent/anchors.csv"})

    def test_anchor_csv(self, tmp_path):
        path = tmp_path / "anchors.csv"
        path.write_text("x,y,radius\n1.0, 2.0, 0.25\n3 4 0.5\n")
        anchors = load_anchor_csv(path)
        assert len(anchors) == 2
        assert anchors[0].x == 1.0 and anchors[0].radius == 0.25

    @pytest.mark.parametrize("radius", ["0", "-0.3", "nan"])
    def test_anchor_radius_must_be_positive(self, tmp_path, small_plane_cfg, radius):
        # such an anchor would pass packing and fail only in relaxation;
        # the plane pipeline stops before it writes a trace
        path = tmp_path / "anchors.csv"
        path.write_text(f"x,y,radius\n1.0, 2.0, 0.25\n3 4 {radius}\n")
        message = rf"^\[config\] anchors line 3: radius {float(radius)} is not positive$"
        with pytest.raises(PipelineError, match=message):
            load_anchor_csv(path)
        cfg = load_config(None, dict(small_plane_cfg, out=str(tmp_path / "run"),
                                     anchors_file=str(path)))
        with pytest.raises(PipelineError, match=message):
            run_plane_pipeline(cfg)
        assert not (tmp_path / "run" / "trace.csv").exists()


# every out-of-range value PipelineConfig rejects, as (key, fields, message)
BAD_CONFIGS = {
    "negative-hole": ("holes", dict(holes=[(10.0, 5.0, -2.0)], r_min=0.5, r_max=0.5),
                      r"hole \(10.0, 5.0, -2.0\) has a radius that is not positive"),
    "zero-hole": ("holes", dict(holes=[(3.0, 3.0, 1.0), (7.0, 7.0, 0.0)]),
                  r"hole \(7.0, 7.0, 0.0\) has a radius that is not positive"),
    "qc": ("qc", dict(qc="orignal"), "'orignal' is not one of new, original"),
    "compare-source": ("compare_source", dict(compare_source="bogus"),
                       "'bogus' is not one of plane, surface"),
    "max-sweeps": ("max_sweeps", dict(max_sweeps=0), "must be at least 1"),
    "qc-period": ("qc_period", dict(qc_period=0), "must be at least 1"),
    "force-tol-zero": ("force_tol_factor", dict(force_tol_factor=0.0), "must be positive"),
    "force-tol-negative": ("force_tol_factor", dict(force_tol_factor=-0.01),
                           "must be positive"),
    "qc-low-above": ("qc_low", dict(qc_low=8.0, qc_high=5.0), "8.0 is not below qc_high 5.0"),
    "qc-low-equal": ("qc_low", dict(qc_low=5.0, qc_high=5.0), "5.0 is not below qc_high 5.0"),
    "mode": ("mode", dict(mode="bogus"), "'bogus' is not one of plane, surface, remesh, compare-qc"),
    "r-min-zero": ("r_min", dict(r_min=0.0), "must be positive"),
    "r-nan": ("r_max", dict(r_min=math.nan, r_max=math.nan), "must be positive"),
    "r-max-negative": ("r_max", dict(r_max=-0.5), "must be positive"),
    "grade-band-zero": ("grade_band", dict(graded=True, grade_band=0.0), "must be positive"),
    "plane-width-zero": ("plane_width", dict(plane_width=0.0), "must be positive"),
    "plane-height-nan": ("plane_height", dict(plane_height=math.nan), "must be positive"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_config_rejects_bad_values_when_built(case):
    # an out-of-range value fails where the config is built, directly or by
    # replace as from a file (TestConfig), before any stage runs
    key, fields, why = BAD_CONFIGS[case]
    message = rf"^\[config\] {key}: {why}"
    with pytest.raises(PipelineError, match=message):
        PipelineConfig(**fields)
    with pytest.raises(PipelineError, match=message):
        replace(PipelineConfig(), **fields)


class TestPlaneDomain:
    def test_hole_polygonized_at_bubble_diameter(self):
        cfg = PipelineConfig(holes=[(10.0, 5.0, 2.0)], r_min=0.5, r_max=0.5)
        domain = plane_domain(cfg)
        assert len(domain.holes) == 1
        hole = domain.holes[0]
        seg = np.linalg.norm(np.roll(hole, -1, axis=0) - hole, axis=1)
        assert np.allclose(seg, 2 * 0.5, rtol=0.3)

    def test_graded_sizing_ramps(self):
        cfg = PipelineConfig(holes=[(10.0, 5.0, 2.0)], r_min=0.2, r_max=0.5,
                             graded=True, grade_band=4.0)
        domain = plane_domain(cfg)
        at_rim = domain.sizing(12.05, 5.0)
        far = domain.sizing(19.0, 9.0)
        assert at_rim == pytest.approx(0.2, abs=0.02)
        assert far == pytest.approx(0.5, abs=1e-12)
        mid = domain.sizing(14.0, 5.0)
        assert 0.2 < mid < 0.5


@pytest.fixture(scope="module")
def small_plane_cfg():
    return dict(plane_width="8", plane_height="6", holes="", r_min="0.45",
                r_max="0.45", max_sweeps="120")


class TestPlanePipeline:
    def test_artifacts_written(self, tmp_path, small_plane_cfg):
        cfg = load_config(None, dict(small_plane_cfg, out=str(tmp_path / "run")))
        result = run_plane_pipeline(cfg)
        out = result["out"]
        for name in ("plane_mesh.obj", "plane_mesh.off", "plane_mesh.svg",
                     "trace.csv", "plane_report.txt"):
            assert (out / name).exists(), name
        # report regenerated from the written OBJ matches the in-run report
        again = quality_report(load_mesh(out / "plane_mesh.obj"))
        assert again.min_angle_histogram == result["report"].min_angle_histogram
        assert again.min_angle == pytest.approx(result["report"].min_angle, abs=1e-6)

    def test_segment_table_built_once_per_domain(self, tmp_path, small_plane_cfg, monkeypatch):
        # packing, the wall clamp, the monitor and the CDT all read the
        # domain's one table
        calls = []

        def spy(segments):
            calls.append(len(segments))
            return segment_table(segments)

        monkeypatch.setattr(packing, "segment_table", spy)
        cfg = load_config(None, dict(small_plane_cfg, holes="4,3,1",
                                     out=str(tmp_path / "run")))
        result = run_plane_pipeline(cfg)
        assert result["trace"].wall_checks > 0
        # one table of the outer loop's 4 edges and the hole's 8 or more
        assert len(calls) == 1 and calls[0] >= 12

    def test_deterministic_outputs(self, tmp_path, small_plane_cfg):
        payloads = []
        for run in range(2):
            cfg = load_config(None, dict(small_plane_cfg, out=str(tmp_path / f"run{run}"),
                                         seed="3"))
            result = run_plane_pipeline(cfg)
            out = result["out"]
            mesh_bytes = (out / "plane_mesh.obj").read_bytes()
            svg_bytes = (out / "plane_mesh.svg").read_bytes()
            report = (out / "plane_report.txt").read_bytes()
            # trace CSV: all columns except wall time must match
            trace = [",".join(line.split(",")[:4])
                     for line in (out / "trace.csv").read_text().splitlines()]
            payloads.append((mesh_bytes, svg_bytes, report, trace))
        assert payloads[0] == payloads[1]


class TestRemeshPipeline:
    def test_remesh_obj_file(self, tmp_path):
        from bubblemesh.mesh import save_mesh
        from bubblemesh.surfaces import sphere_patch
        from conftest import grid_mesh_on_surface
        mesh = grid_mesh_on_surface(
            sphere_patch(radius=1.0, u0=0.0, u1=1.0, v0=1.0, v1=2.0), 14, 14)
        src = tmp_path / "input.obj"
        save_mesh(src, mesh)
        cfg = load_config(None, {"mode": "remesh", "input_mesh": str(src),
                                 "out": str(tmp_path / "out"), "max_sweeps": "150"})
        result = run_remesh_pipeline(cfg)
        assert (result["out"] / "final_surface.obj").exists()
        assert result["final_report"].triangle_count > 0
        assert result["trace"].sweeps <= 150


class TestGradedPlane:
    def test_triangle_size_grades_with_hole_distance(self, tmp_path):
        from scipy.stats import spearmanr
        cfg = load_config(None, {
            "out": str(tmp_path / "graded"), "plane_width": "16", "plane_height": "8",
            "holes": "8,4,1.5", "r_min": "0.25", "r_max": "0.55", "graded": "true",
            "grade_band": "4.0", "max_sweeps": "250",
        })
        result = run_plane_pipeline(cfg)
        mesh = result["mesh"]
        cent = mesh.vertices[mesh.faces].mean(axis=1)
        dist = np.hypot(cent[:, 0] - 8.0, cent[:, 1] - 4.0) - 1.5
        areas = mesh.face_areas()
        band = (dist > 0) & (dist < 4.0)
        rho = spearmanr(dist[band], areas[band]).statistic
        assert rho > 0.8

    def test_thin_domain_warns_or_errors_cleanly(self):
        import warnings as _w
        from bubblemesh.packing import PackingDomain, pack_boundary, pack_interior_quadtree
        outer = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 0.3], [0.0, 0.3]])
        domain = PackingDomain(outer=outer, holes=[], sizing=lambda x, y: 0.5)
        boundary = pack_boundary(domain)
        with _w.catch_warnings(record=True) as caught:
            _w.simplefilter("always")
            interior = pack_interior_quadtree(domain, boundary)
        assert interior == []
        assert any("interior" in str(c.message) for c in caught)


SPHERE_PATCH = {
    "mode": "surface", "surface": "sphere",
    "surface_params": "radius=1.0, u0=0.0, u1=1.2, v0=0.8, v1=1.8",
    "epsilon": "0.01", "r_min": "0.0001", "r_max": "10.0",
}


@pytest.fixture(scope="module")
def sphere_run(tmp_path_factory):
    cfg = load_config(None, dict(SPHERE_PATCH, out=str(tmp_path_factory.mktemp("sphere")),
                                 max_sweeps="200"))
    return cfg, run_surface_pipeline(cfg)


class TestSurfacePipeline:
    def test_artifacts(self, sphere_run):
        cfg, result = sphere_run
        for name in ("initial_surface.obj", "final_surface.obj", "final_surface.off",
                     "flat_initial.svg", "flat_remeshed.svg", "trace.csv",
                     "initial_report.txt", "final_report.txt"):
            assert (result["out"] / name).exists(), name

    def test_initial_edges_respect_sizing(self, sphere_run):
        # parametric edges are bounded by twice the packed bubble radii; with
        # sigma1 = R the 3D chord bound follows g(eps)
        from bubblemesh.sizing import SizingParams, radius_bound
        cfg, result = sphere_run
        surface = result["surface"]
        initial = result["initial"]
        params = SizingParams(cfg.epsilon, cfg.r_min, cfg.r_max)
        edges = initial.undirected_edges()
        uv = initial.uv
        for a, b in edges[::7]:
            mid = 0.5 * (uv[a] + uv[b])
            bound = radius_bound(surface, float(mid[0]), float(mid[1]), params)
            param_len = np.linalg.norm(uv[a] - uv[b])
            # packing tangency plus boundary-subdivision tolerance
            assert param_len <= 2.6 * bound

    def test_final_vertices_within_initial_chord_error(self, sphere_run):
        from bubblemesh.mesh import hausdorff_estimate
        cfg, result = sphere_run
        h = hausdorff_estimate(result["initial"], result["surface"], 4)
        d = np.abs(np.linalg.norm(result["final"].vertices, axis=1) - 1.0)
        assert d.max() <= h + 1e-9


class TestSurfaceRelaxationKeys:
    def test_sweep_cap_holds(self, tmp_path):
        cfg = load_config(None, dict(SPHERE_PATCH, out=str(tmp_path), max_sweeps="3"))
        result = run_surface_pipeline(cfg)
        assert result["trace"].sweeps == 3
        assert not result["trace"].converged

    def test_keys_reach_relaxation(self, tmp_path, monkeypatch):
        from bubblemesh import remesh
        seen = {}
        real = remesh.relax_until_converged

        def capture(bubbles, domain, cfg, **kwargs):
            seen.update(kwargs, cfg=cfg)
            return real(bubbles, domain, cfg, **kwargs)

        monkeypatch.setattr(remesh, "relax_until_converged", capture)
        cfg = load_config(None, dict(SPHERE_PATCH, out=str(tmp_path), max_sweeps="3",
                                     force_tol_factor="0.05", qc="original"))
        result = run_surface_pipeline(cfg)
        assert seen["cfg"] is cfg
        assert (cfg.max_sweeps, cfg.force_tol_factor) == (3, 0.05)
        assert seen["strategy"] == "original-qc"
        assert result["trace"].sweeps == 3


@pytest.mark.parametrize("key, value, qc", [("qc_period", "0", "original"),
                                            ("max_sweeps", "0", "new")])
def test_meaningless_relaxation_settings_rejected(tmp_path, small_plane_cfg, key, value, qc):
    # otherwise qc_period = 0 divides by zero and max_sweeps = 0
    # triangulates the raw packing
    with pytest.raises(PipelineError, match=rf"^\[config\] {key}: must be at least 1$"):
        load_config(None, dict(small_plane_cfg, out=str(tmp_path), qc=qc, **{key: value}))
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_plane_surface_degenerate_case(tmp_path):
    # the flat catalog surface run through the full surface pipeline: the
    # final mesh must stay at z = 0 with plate-level quality
    cfg = load_config(None, {
        "out": str(tmp_path / "flat"), "mode": "surface", "surface": "plane",
        "surface_params": "u0=0.0, u1=8.0, v0=0.0, v1=5.0",
        "epsilon": "0.01", "r_min": "0.4", "r_max": "0.4", "max_sweeps": "300",
    })
    result = run_surface_pipeline(cfg)
    final = result["final"]
    assert np.abs(final.vertices[:, 2]).max() < 1e-9
    assert result["final_report"].fraction_at_least(30.0) > 0.99


class TestCompareQC:
    def test_compare_artifacts_and_quality_order(self, tmp_path):
        from bubblemesh.pipeline import run_compare_qc
        cfg = load_config(None, {
            "out": str(tmp_path / "cmp"), "mode": "compare-qc", "plane_width": "10",
            "plane_height": "6", "holes": "5,3,1.2", "r_min": "0.3", "r_max": "0.3",
            "max_sweeps": "250",
        })
        result = run_compare_qc(cfg)
        out = result["out"]
        for name in ("trace_new.csv", "trace_original.csv", "compare_summary.txt",
                     "compare_chart.svg"):
            assert (out / name).exists(), name
        new_t = result["new"]["trace"]
        orig_t = result["original"]["trace"]
        # at equal wall-time budget the new strategy is at least as good; the
        # original's angle at the budget is its first sample taken after it
        # (the last one before it is sweep 10's, taken before its first
        # quantity-control pass, on the trajectory new-qc follows too)
        budget = new_t.elapsed
        later = [row[3] for row in orig_t.sampled_rows() if row[4] >= budget]
        orig_at_budget = later[0] if later else orig_t.final_min_angle
        assert new_t.final_min_angle >= orig_at_budget - 1e-9
        assert "time ratio" in result["summary"]

    def test_surface_source_gives_both_strategies_the_same_bubbles(self, tmp_path,
                                                                   monkeypatch):
        # compare_source = surface: both strategies start from the bubbles
        # reconstructed on the flattened sphere patch, in the same domain
        from bubblemesh import pipeline
        from bubblemesh.packing import INTERIOR_ANCHOR
        seen = {}
        real = pipeline.relax_until_converged

        def capture(bubbles, domain, cfg, strategy):
            seen[strategy] = (domain, [(b.x, b.y, b.radius, b.kind) for b in bubbles])
            return real(bubbles, domain, cfg, strategy=strategy)

        monkeypatch.setattr(pipeline, "relax_until_converged", capture)
        cfg = load_config(None, dict(SPHERE_PATCH, out=str(tmp_path / "cmp"),
                                     mode="compare-qc", compare_source="surface",
                                     epsilon="0.0005", max_sweeps="12"))
        result = pipeline.run_compare_qc(cfg)
        _, want = pipeline.compare_initial_bubbles(cfg)
        want = [(b.x, b.y, b.radius, b.kind) for b in want]
        (new_domain, new), (original_domain, original) = seen["new-qc"], seen["original-qc"]
        assert new == original == want
        assert new_domain is original_domain
        assert any(kind == INTERIOR_ANCHOR for *_, kind in want)
        for label in ("new", "original"):
            assert 0 < result[label]["trace"].sweeps <= 12
            assert (result["out"] / f"trace_{label}.csv").exists()


def test_stage_labels_failures():
    with pytest.raises(PipelineError, match=r"^\[relax\] boom$"):
        with _stage("relax"):
            raise ValueError("boom")
    with pytest.raises(PipelineError, match=r"^\[config\] kept$"):
        with _stage("relax"):
            raise PipelineError("[config] kept")


class TestCLI:
    def test_report_command(self, tmp_path, capsys):
        path = tmp_path / "tri.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        assert cli_main(["report", "--mesh", str(path)]) == 0
        out = capsys.readouterr().out
        assert "triangles:  1" in out

    def test_plane_command(self, tmp_path, capsys):
        code = cli_main(["plane", "--out", str(tmp_path / "o"), "--r", "0.8", "--seed", "1"])
        assert code == 0
        assert (tmp_path / "o" / "plane_mesh.obj").exists()

    def test_sweep_cap_warning(self, tmp_path, capsys):
        cfg = tmp_path / "capped.cfg"
        cfg.write_text("max_sweeps = 2\n")
        code = cli_main(["plane", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--r", "0.8"])
        assert code == 0
        assert ("warning: relaxation stopped at the sweep cap (2 sweeps)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("r", ["0", "nan"])
    def test_bad_radius_fails_before_any_output(self, tmp_path, capsys, r):
        # the config rejects it when built, so no stage runs and no
        # directory is made
        code = cli_main(["plane", "--out", str(tmp_path / "o"), "--r", r])
        assert code == 1
        assert "error: [config] r_max: must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_error_exit_code(self, tmp_path, capsys):
        code = cli_main(["remesh", "--input", "/nonexistent.obj",
                         "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error" in capsys.readouterr().err


def test_bench_tracer_finds_every_attribute_it_wraps():
    # perfbench/tracing.py wraps program functions by module attribute name;
    # a renamed attribute makes install() raise here, not only in the
    # benchmark's own tests
    tracing = bench_module("tracing")
    patches = tracing.install(tracing.Tracer("probe"))
    tracing.uninstall(patches)
    assert len(patches) > 20
    assert all(getattr(owner, attr) is original for owner, attr, original in patches)


def test_bench_tracer_times_the_min_angle_monitor_every_sweep(tmp_path):
    # relaxation.monitor_s is the self time of the spans the tracer puts
    # around relaxation.triangulation_min_angle, one per sampled sweep: a
    # monitor that stopped looking the name up at call time would read 0
    # without failing. A fixed population samples only its last sweep;
    # original-qc samples every 10th for its stall test too.
    tracing, workloads = bench_module("tracing"), bench_module("workloads")
    wl, cfg = workloads.load("tiny", 3, tmp_path)
    counts = {}
    for qc in ("new", "original"):
        tracer = tracing.Tracer(f"tiny-{qc}")
        with tracing.traced(tracer):
            result = workloads.entry_point(wl)(replace(cfg, qc=qc, out=tmp_path / qc))
        spans = [span for span in tracer.spans if span[0] == "relaxation.monitor"]
        assert len(spans) == len(result["trace"].sampled_rows())
        assert tracing.layer_metrics(tracer)["relaxation.monitor_s"][0] > 0.0
        counts[qc] = len(spans)
    assert counts["new"] == 1 and counts["original"] > 1


def test_bench_tracer_counts_the_qc_interpolation(tmp_path):
    # packing.interp_calls and packing.interp_s come from the spans the
    # tracer puts around relaxation.interpolate_radius: an original-qc pass
    # that sized its candidates under a name the tracer does not wrap would
    # read 0 there without failing
    tracing, workloads = bench_module("tracing"), bench_module("workloads")
    wl, cfg = workloads.load("graded-qc", 0, tmp_path)
    tracer = tracing.Tracer("graded-qc")
    with tracing.traced(tracer):
        workloads.entry_point(wl)(cfg)
    spans = tracer.spans
    assert any(name == "packing.interp" and parent >= 0 and spans[parent][0] == "relaxation.qc"
               for name, _, _, parent in spans)
    assert tracing.layer_metrics(tracer)["packing.interp_calls"][0] > 1


def test_bench_tracer_labels_the_original_qc_sweeps(tmp_path):
    # relaxation.sweeps.original counts the sweeps of the relaxations that
    # the pipeline calls with strategy="original-qc": one the tracer could
    # not label would add graded-qc's original-qc sweeps to the new ones
    tracing, workloads = bench_module("tracing"), bench_module("workloads")
    wl, cfg = workloads.load("graded-qc", 0, tmp_path)
    tracer = tracing.Tracer("graded-qc")
    with tracing.traced(tracer):
        result = workloads.entry_point(wl)(cfg)
    new, original = (result[label]["trace"].sweeps for label in ("new", "original"))
    assert tracer.counts["relaxation.sweeps.original"] == original > 0
    assert tracer.counts["relaxation.sweeps.new"] == new > 0


def test_surface_workload_artifacts_are_deterministic(tmp_path):
    # criterion 6f runs the plane pipeline only: two seed-0 calls of the
    # `sphere` workload (flatten, re-mesh, inverse map) must write the same
    # bytes, the benchmark's digests compared
    workloads, child = bench_module("workloads"), bench_module("child")
    digests = []
    for run in range(2):
        wl, cfg = workloads.load("sphere", 0, tmp_path / f"run{run}")
        workloads.entry_point(wl)(cfg)
        digests.append(child.artifact_digests(tmp_path / f"run{run}"))
    assert digests[0] == digests[1]
    assert {"flat_initial.obj", "final_surface.obj", "trace.csv"} <= set(digests[0])


@pytest.mark.parametrize("name", ["plate", "sphere", "graded-qc"])
def test_benchmark_workloads_converge(tmp_path, monkeypatch, name):
    # the benchmark fails a call whose relaxation stops at the sweep cap, and
    # graded-qc's original-qc does so at dt 0.35 and 0.45: a change to the
    # trajectory shows here, not only in a benchmark run
    workloads = bench_module("workloads")
    wl, cfg = workloads.load(name, 0, tmp_path)
    result = workloads.entry_point(wl)(cfg)
    traces = workloads.traces(wl, result)
    assert all(t.converged for t in traces), [(t.stop_reason, t.sweeps) for t in traces]
    # the benchmark's other checks too, such as the topology of meshes with
    # holes (plate, graded-qc); `check` imports workloads from perfbench/
    monkeypatch.syspath_prepend(str(Path(workloads.__file__).parent))
    errors, _ = bench_module("child").check(wl, result)
    assert errors == []
    # the min-angle monitor runs where it is read: on the last sweep of a
    # new-qc run, and for the stall test every 10th sweep of original-qc
    # (graded-qc's second trace)
    for k, t in enumerate(traces):
        sampled = [row[0] for row in t.sampled_rows()]
        if k == 0:
            assert sampled == [t.sweeps]
        else:
            assert sampled == sorted({*range(10, t.sweeps + 1, 10), t.sweeps})


def test_criterion_1_plate_at_half_the_radius_converges_under_the_default_cap(tmp_path):
    # the criterion-1 plate at r = 0.095 (6,217 bubbles) relaxes to its force
    # stop within the default max_sweeps, with criterion 1's quality
    cfg = load_config(None, {"out": str(tmp_path), "plane_width": "20", "plane_height": "10",
                             "holes": "10,5,2", "r_min": "0.095", "r_max": "0.095"})
    assert cfg.max_sweeps == PipelineConfig().max_sweeps == 400
    result = run_plane_pipeline(cfg)
    trace, rep = result["trace"], result["report"]
    assert trace.rows[-1][1] == 6217
    assert (trace.converged, trace.stop_reason) == (True, "force")
    assert trace.sweeps < cfg.max_sweeps
    assert rep.fraction_at_least(30.0) >= 0.99 and rep.fraction_at_least(45.0) >= 0.80


def test_sphere_workload_packs_without_thinning(thin_counts):
    # the sphere's radius bound is constant up to rounding noise, so the
    # quadtree's leaves are already tangent and thinning keeps every one
    _, cfg = bench_module("workloads").load("sphere", 0, "unused")
    initial_surface_mesh(cfg)
    assert len(thin_counts) == 1
    assert thin_counts[0][1] == thin_counts[0][0] > 0
