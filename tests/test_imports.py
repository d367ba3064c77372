import ast
import os
import subprocess
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "npad")


def relative_imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports relatively, anywhere in its
    body: a function-level import counts as much as a top-level one."""
    modules = {name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")}
    graph = {}
    for module in modules:
        with open(os.path.join(PACKAGE, f"{module}.py"), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        graph[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                graph[module].update(n.split(".")[0] for n in names if n.split(".")[0] in modules)
    return graph


def test_relative_import_graph_is_acyclic():
    graph = relative_imports()
    done, path = set(), []

    def visit(module):
        if module in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(module):] + [module]))
        if module not in done:
            path.append(module)
            for dep in sorted(graph[module]):
                visit(dep)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)
    assert graph["model"] and "decode" in graph["chains"]      # the walk sees the imports


def test_import_npad_leaves_multiprocessing_unloaded():
    # only a decode with a pool of workers imports multiprocessing
    code = "import sys, npad; print('multiprocessing' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE)}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]
