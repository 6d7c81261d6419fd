"""The dataflow substrate: CFG, reaching definitions, symbol table,
and call graph. Fixtures are synthesized in tmp_path with the
``src/repro`` layout so module names resolve the same way the real
tree does."""

import ast
import textwrap
from types import SimpleNamespace

from repro.lint import Analyzer
from repro.lint.cfg import (ReachingDefinitions, build_cfg, def_value,
                            shallow_defs)
from repro.lint.project import ProjectModel, SymbolTable


def _func(code):
    return ast.parse(textwrap.dedent(code)).body[0]


def _sources(tmp_path, modules):
    """Write ``{"repro.pkg.mod": code}`` under src/ and load them."""
    paths = []
    for module, code in modules.items():
        path = tmp_path / "src" / Path_from_module(module)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code))
        paths.append(path)
    return Analyzer(tmp_path).source_files(paths)


def Path_from_module(module):
    from pathlib import PurePosixPath
    return PurePosixPath(*module.split(".")).with_suffix(".py")


class TestControlFlowGraph:
    def test_branches_split_and_rejoin(self):
        func = _func("""
            def pick(flag):
                if flag:
                    value = 1
                else:
                    value = 2
                return value
        """)
        cfg = build_cfg(func)
        statements = list(cfg.statements())
        assert len(statements) == 4   # if-test, two assigns, return
        assert len({block.id for block, _, _ in statements}) == 4
        preds = cfg.predecessors()
        (return_block,) = [block.id for block, _, s in statements
                           if isinstance(s, ast.Return)]
        assert preds[return_block] == {2, 3}   # both branch blocks

    def test_while_loop_back_edge(self):
        func = _func("""
            def spin(n):
                total = 0
                while n:
                    total = total + n
                    n = n - 1
                return total
        """)
        cfg = build_cfg(func)
        preds = cfg.predecessors()
        # Some block has two predecessors: loop entry and the back edge.
        assert any(len(sources) == 2 for sources in preds.values())

    def test_shallow_defs_skip_nested_function_bodies(self):
        statement = _func("""
            def outer():
                inner = 1
        """)
        # Binds the function's own name; never recurses into the body.
        assert shallow_defs(statement) == ["outer"]
        assign = ast.parse("a, b = 1, 2").body[0]
        assert sorted(shallow_defs(assign)) == ["a", "b"]

    def test_def_value_for_loop_is_the_iterable(self):
        loop = ast.parse("for item in items:\n    pass").body[0]
        value = def_value(loop, "item")
        assert isinstance(value, ast.Name) and value.id == "items"


class TestReachingDefinitions:
    def test_both_branch_defs_reach_the_join(self):
        func = _func("""
            def pick(flag):
                if flag:
                    value = 1
                else:
                    value = 2
                return value
        """)
        cfg = build_cfg(func)
        reaching = ReachingDefinitions(cfg)
        block, index, statement = [
            (b, i, s) for b, i, s in cfg.statements()
            if isinstance(s, ast.Return)][0]
        state = reaching.state_before(block.id, index)
        assert len(state["value"]) == 2

    def test_redefinition_kills_the_earlier_def(self):
        func = _func("""
            def shadow():
                value = 1
                value = 2
                return value
        """)
        cfg = build_cfg(func)
        reaching = ReachingDefinitions(cfg)
        block, index, _ = [(b, i, s) for b, i, s in cfg.statements()
                           if isinstance(s, ast.Return)][0]
        state = reaching.state_before(block.id, index)
        assert len(state["value"]) == 1

    def test_parameters_reach_as_param_defs(self):
        func = _func("""
            def echo(value):
                return value
        """)
        cfg = build_cfg(func)
        reaching = ReachingDefinitions(cfg)
        block, index, _ = next(iter(
            (b, i, s) for b, i, s in cfg.statements()))
        state = reaching.state_before(block.id, index)
        (site,) = state["value"]
        assert site[1] == ReachingDefinitions.PARAM_BLOCK


class TestSymbolTable:
    def test_resolve_function_through_import_chain(self, tmp_path):
        sources = _sources(tmp_path, {
            "repro.core.util": """
                def helper():
                    return 1
            """,
            "repro.sim.engine": """
                from repro.core.util import helper

                def run():
                    return helper()
            """,
        })
        table = SymbolTable.build(sources)
        info = table.resolve_function("repro.sim.engine", "helper")
        assert info is not None
        assert info.qualname == "repro.core.util.helper"

    def test_resolve_class_and_methods(self, tmp_path):
        sources = _sources(tmp_path, {
            "repro.mem.device": """
                class Device:
                    def write(self, value):
                        return value
            """,
        })
        table = SymbolTable.build(sources)
        assert table.resolve_class("repro.mem.device", "Device") is not None
        method = table.resolve_function("repro.mem.device", "Device.write")
        assert method is not None and method.class_name == "Device"


class TestCallGraph:
    def test_callees_cross_module(self, tmp_path):
        sources = _sources(tmp_path, {
            "repro.core.util": """
                def helper():
                    return 1
            """,
            "repro.sim.engine": """
                from repro.core.util import helper

                def run():
                    return helper()
            """,
        })
        model = ProjectModel(sources)
        assert "repro.core.util.helper" in model.callgraph.callees(
            "repro.sim.engine.run")

    def test_method_calls_resolve_through_self(self, tmp_path):
        sources = _sources(tmp_path, {
            "repro.sim.engine": """
                class Engine:
                    def step(self):
                        return self._advance()

                    def _advance(self):
                        return 1
            """,
        })
        model = ProjectModel(sources)
        assert "repro.sim.engine.Engine._advance" in model.callgraph.callees(
            "repro.sim.engine.Engine.step")


class TestProjectModel:
    def test_for_context_memoises_per_file_set(self, tmp_path):
        sources = _sources(tmp_path, {
            "repro.core.util": "def helper():\n    return 1\n",
        })
        context = SimpleNamespace(cache={})
        first = ProjectModel.for_context(context, sources)
        second = ProjectModel.for_context(context, sources)
        assert first is second
