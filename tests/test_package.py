import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import partition_axis
from partition_axis import checks

SOURCE_DIR = Path(partition_axis.__file__).parent


def test_every_exported_name_resolves():
    for name in partition_axis.__all__:
        assert hasattr(partition_axis, name), name


def test_no_assert_statements_in_source():
    # Invariant checks must still run under `python -O`, which strips asserts.
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_output_is_the_same_under_python_O(tmp_path):
    # verify's lines and report's stdout and CSV bytes, with and without
    # `python -O`; each run writes to ./out in its own directory.
    path = os.pathsep.join(filter(None, [str(SOURCE_DIR.parent), os.environ.get("PYTHONPATH")]))
    csvs = ("basic_axial.csv", "extremal_location.csv", "shells.csv")
    outputs = []
    for flags in ([], ["-O"]):
        cwd = tmp_path / ("optimized" if flags else "plain")
        cwd.mkdir()
        stdout = [
            subprocess.run(
                [sys.executable, *flags, "-m", "partition_axis.cli", *args, "--n-min", "1", "--n-max", "12"],
                cwd=cwd,
                env={**os.environ, "PYTHONPATH": path},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for args in (["verify"], ["report", "--out-dir", "out"])
        ]
        outputs.append((stdout, [(cwd / "out" / name).read_bytes() for name in csvs]))
    assert outputs[0][0][0].endswith("checks, 0 failures\n")
    assert outputs[0] == outputs[1]


def test_no_function_calls_itself_in_source():
    # Recursion depth grows with n, so a deep enough n raises RecursionError.
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                found += [
                    f"{path.name}:{node.lineno} {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == fn.name
                ]
    assert found == []


def test_graph_reads_conjugation_off_the_cover_in_source():
    # build_graph maps cliques onto cliques instead of transposing each
    # vertex; the benchmark tracer wraps graph.enumerate_partitions.
    tree = ast.parse((SOURCE_DIR / "graph.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "conjugate" not in imported
    assert "enumerate_partitions" in imported


def test_only_the_clique_oracle_reads_adjacency_rows_in_source():
    # The program reads G_n through its clique cover. graph.py builds the
    # sorted rows for the n <= 14 clique oracle in invariants.py alone,
    # and no module lists one vertex's neighbours.
    readers, callers = [], []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "adjacency" and path.name not in {"graph.py", "invariants.py"}:
                readers.append(f"{path.name}:{node.lineno}")
            if node.attr == "neighbors":
                callers.append(f"{path.name}:{node.lineno}")
    assert readers == []
    assert callers == []


def test_every_module_level_name_is_read_in_source():
    # Code that only the tests call belongs in tests/oracles.py: each
    # top-level function, class and assigned name of a module is loaded
    # somewhere in the modules, by name or as an attribute. __init__.py
    # only re-exports.
    defined, read = {}, set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    defined[name.id] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(f"{module}:{name}" for name, module in defined.items() if name not in read) == []


def test_cli_import_pulls_in_no_network_modules():
    # xml.sax.saxutils imports urllib.request, which loads http.client,
    # email and ssl at every start of the CLI; concurrent.futures'
    # process pool loads multiprocessing, socket, pickle and subprocess,
    # which only `report --threads` above 1 needs.
    unwanted = {"xml.sax", "urllib.request", "multiprocessing", "concurrent.futures"}
    code = (
        "import sys, partition_axis.cli; "
        f"print(sorted({unwanted!r} & set(sys.modules)))"
    )
    path = os.pathsep.join(filter(None, [str(SOURCE_DIR.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


def test_bench_tracer_targets_exist():
    # A traced benchmark job wraps each WRAPS entry and each named check,
    # and raises TraceTargetMissing if one is gone. The module is only
    # loaded here: install() would replace the library's functions.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.WRAPS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    assert set(tracer.CHECK_NAMES) <= {name for name, *_ in checks._CHECKS}


def test_bench_tracer_counts_the_cover():
    # A traced job counts graph.edges and graph.max_deg on every built
    # graph; run in a child, since install() replaces library functions.
    bench = Path(__file__).resolve().parents[1] / "bench"
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "from tracer import Tracer\n"
        "from partition_axis import pipeline\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "g = pipeline.analyze(12).graph\n"
        "cliques = [tuple(c) for c in g.cliques]\n"
        "edges = sum(len(c) * (len(c) - 1) // 2 for c in cliques)\n"
        "max_deg = max(sum(len(cliques[k]) - 1 for k in ks) for ks in g.vertex_cliques)\n"
        "print(json.dumps([tracer.counts['graph.edges'], tracer.counts['graph.max_deg'], edges, max_deg]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SOURCE_DIR.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    traced_edges, traced_max_deg, edges, max_deg = json.loads(out)
    assert (traced_edges, traced_max_deg) == (edges, max_deg)


def test_readme_library_example_prints_what_it_says():
    # In the python block under README's "Library" heading, each line
    # followed by a "# ..." line is an expression, and that comment is its
    # repr; every other line is run as it stands.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace, shown = {}, []
    for line, below in zip(lines, lines[1:] + [""]):
        if not line or line.startswith("#"):
            continue
        if below.startswith("# "):
            shown.append((line, repr(eval(line, namespace)), below[2:]))
        else:
            exec(line, namespace)
    assert len(shown) >= 3
    assert [(line, got) for line, got, _ in shown] == [(line, expected) for line, _, expected in shown]
