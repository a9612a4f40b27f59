"""One traversal per module tree: the node lists every pass walks.

The call graph and every pass need nodes of the same trees; walking
each tree once per pass would walk it about ten times per analysis.  A
:class:`NodeIndex` traverses each module tree once, breadth-first, and
answers two questions:

* ``walk(root)`` — exactly ``list(ast.walk(root))``;
* ``of(root, *types)`` — the ``isinstance``-filtered subsequence of
  ``walk(root)``, in the same order.

A module's traversal also fills the node list of every function defined
in it: a breadth-first order restricted to one subtree is that subtree's
breadth-first order, so a function's list is the module's list filtered
to the function's subtree, collected on the way rather than by walking
the function again.  Module and function lists are kept; any other root
(a statement, an expression) is traversed when first asked for and only
its ``of`` answers are kept.

The index belongs to one :class:`~repro.analysis.callgraph.Project`,
that is to one analysis run: nothing survives the run.
"""

from __future__ import annotations

import ast

FUNCTION_ROOTS = (ast.FunctionDef, ast.AsyncFunctionDef)
_KEPT_ROOTS = (ast.Module,) + FUNCTION_ROOTS


class NodeIndex:
    """Memoised ``ast.walk`` orders and type filters for one run."""

    def __init__(self):
        self._walks = {}       # module/function root -> tuple of nodes
        self._of = {}          # types -> {root: tuple of nodes}
        #: nodes expanded by this index's traversals (the run's walk
        #: cost: about the size of the analyzed trees).
        self.traversed = 0

    def walk(self, root):
        """The nodes of ``ast.walk(root)``, in its order, as a tuple."""
        nodes = self._walks.get(root)
        if nodes is None:
            nodes = self._traverse(root)
        return nodes

    def of(self, root, *types):
        """The nodes of ``walk(root)`` that are instances of ``types``."""
        by_root = self._of.get(types)
        if by_root is None:
            by_root = self._of[types] = {}
        found = by_root.get(root)
        if found is None:
            found = by_root[root] = tuple(
                node for node in self.walk(root) if isinstance(node, types))
        return found

    def _traverse(self, root):
        """Breadth-first over ``root`` in ``ast.iter_child_nodes`` child
        order, keeping the nodes of every function met on the way."""
        walks = self._walks
        lists = {}             # function met on the way -> its nodes
        nodes = [root]
        # owners[i]: the lists of the functions enclosing nodes[i]
        # (itself included, ``root`` excluded) — nodes[i] joins each.
        owners = [()]
        add_node, add_owners = nodes.append, owners.append
        AST, functions = ast.AST, FUNCTION_ROOTS
        for node, mine in zip(nodes, owners):
            for lst in mine:
                lst.append(node)
            for name in node._fields:
                value = getattr(node, name, None)
                if isinstance(value, list):
                    for item in value:
                        if not isinstance(item, AST):
                            continue
                        add_node(item)
                        if isinstance(item, functions) and \
                                item not in walks:
                            lst = lists[item] = []
                            add_owners(mine + (lst,))
                        else:
                            add_owners(mine)
                elif isinstance(value, AST):
                    add_node(value)
                    add_owners(mine)
        self.traversed += len(nodes)
        for func, lst in lists.items():
            walks[func] = tuple(lst)
        nodes = tuple(nodes)
        if isinstance(root, _KEPT_ROOTS):
            walks[root] = nodes
        return nodes

    def stats(self):
        """Nodes in the module trees against nodes traversed: equal
        when every tree was walked once, plus what the statement and
        expression roots cost."""
        return {
            "module_nodes": sum(
                len(nodes) for root, nodes in self._walks.items()
                if isinstance(root, ast.Module)),
            "traversed_nodes": self.traversed,
        }
