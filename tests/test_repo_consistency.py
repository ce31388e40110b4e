"""Meta-tests: documentation, benchmarks and CLI stay in sync."""

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestExperimentIndex:
    def test_design_md_bench_targets_exist(self):
        """Every bench target DESIGN.md names must be a real file."""
        design = (REPO / "DESIGN.md").read_text()
        targets = set(re.findall(r"benchmarks/(test_\w+\.py)", design))
        assert targets, "DESIGN.md lists no bench targets?"
        for name in targets:
            assert (REPO / "benchmarks" / name).exists(), name

    def test_every_figure_benchmark_has_cli_entry(self):
        from repro.cli import EXPERIMENTS

        bench_dir = REPO / "benchmarks"
        for path in bench_dir.glob("test_fig*.py"):
            stem = path.stem  # e.g. test_fig03_vectorization
            raw = stem.split("_")[1]  # fig03 / fig13a
            number = raw[3:]
            fig_id = "fig" + (number.lstrip("0") or number)
            assert fig_id in EXPERIMENTS, f"{stem} has no CLI entry"

    def test_cli_entries_cover_all_paper_artifacts(self):
        from repro.cli import EXPERIMENTS

        expected = {
            "tab1", "tab2", "tab3", "tab4",
            "fig3", "fig4", "fig12", "fig13a", "fig13b",
            "fig14a", "fig14b", "fig15a", "fig15b",
        }
        assert expected <= set(EXPERIMENTS)


class TestDocumentation:
    def test_readme_examples_exist(self):
        readme = (REPO / "README.md").read_text()
        for name in re.findall(r"examples/(\w+\.py)", readme):
            assert (REPO / "examples" / name).exists(), name

    def test_experiments_md_references_real_deviations(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        assert "Documented deviations" in text
        assert "classic DP" in text.lower() or "Classic DP" in text

    def test_paper_confirmation_present(self):
        design = (REPO / "DESIGN.md").read_text()
        assert "Paper check" in design
        assert "QUETZAL" in design


class TestPackageSurface:
    def test_all_public_modules_importable(self):
        import importlib

        modules = [
            "repro",
            "repro.cli",
            "repro.config",
            "repro.errors",
            "repro.genomics",
            "repro.memory",
            "repro.vector",
            "repro.quetzal",
            "repro.align",
            "repro.align.vectorized",
            "repro.align.quetzal_impl",
            "repro.align.tiling",
            "repro.kernels",
            "repro.gpu",
            "repro.eval",
            "repro.eval.experiments",
            "repro.eval.sweeps",
        ]
        for name in modules:
            importlib.import_module(name)

    def test_public_items_have_docstrings(self):
        """Every public module, class and function carries a doc comment."""
        import importlib
        import inspect

        for mod_name in (
            "repro.quetzal.accelerator",
            "repro.vector.machine",
            "repro.align.wavefront",
            "repro.eval.runner",
        ):
            module = importlib.import_module(mod_name)
            assert module.__doc__
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if getattr(obj, "__module__", None) != mod_name:
                        continue
                    assert obj.__doc__, f"{mod_name}.{name} lacks a docstring"


class TestVersion:
    def test_pyproject_reads_the_single_source_version(self):
        """pyproject.toml declares no version of its own: setuptools
        reads it from ``repro._version``, so the two cannot disagree."""
        import importlib

        import repro

        text = "\n" + (REPO / "pyproject.toml").read_text()

        def table(name):
            return text.split(f"\n[{name}]\n", 1)[1].split("\n[", 1)[0]

        project = table("project")
        assert not re.search(r"^version\s*=", project, re.M)
        assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.M)
        attr = re.search(
            r'^version\s*=\s*\{\s*attr\s*=\s*"([\w.]+)"\s*\}',
            table("tool.setuptools.dynamic"), re.M,
        ).group(1)
        module, name = attr.rsplit(".", 1)
        assert getattr(importlib.import_module(module), name) == repro.__version__
