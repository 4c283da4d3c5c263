"""Control-flow edges and reachability, read from ``successors``."""

from repro.core.cfg import successors
from repro.core.parser import parse_module


def _function(source):
    module = parse_module(source)
    return next(iter(module.functions.values()))


def _edges(function):
    """label -> successor labels for every block."""
    return {block.label: successors(function, index)
            for index, block in enumerate(function.blocks)}


class TestSuccessors:
    def test_branch_targets(self):
        f = _function("""module Main
void f(bool b) {
    if.else b yes no
yes:
    return
no:
    return
}
""")
        assert set(successors(f, 0)) == {"yes", "no"}
        assert successors(f, 1) == []

    def test_fallthrough(self):
        f = _function("""module Main
void f() {
    local int<64> x
    x = 1
next:
    return
}
""")
        assert successors(f, 0) == ["next"]

    def test_try_handler_counts_as_successor(self):
        f = _function("""module Main
void f() {
    try {
        local int<64> x
        x = int.div 1 0
    } catch (ref<Hilti::Exception> e) {
        return
    }
}
""")
        graph = _edges(f)
        handler_labels = [l for l in graph if l.startswith("__catch")]
        assert handler_labels
        assert handler_labels[0] in graph["entry"]

    def test_reachability(self):
        f = _function("""module Main
void f() {
    jump out
island:
    jump island
out:
    return
}
""")
        graph = _edges(f)
        reachable = set()
        stack = [f.blocks[0].label]
        while stack:
            label = stack.pop()
            if label not in reachable:
                reachable.add(label)
                stack.extend(graph[label])
        assert "out" in reachable
        assert "island" not in reachable
