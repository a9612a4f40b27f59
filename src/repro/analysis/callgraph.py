"""Project-wide call graph: the shared interprocedural substrate.

The original passes resolved calls only inside one module, which made
two whole families of properties invisible: a paging path that charges
the clock through a callee in another module, and a secret that flows
through a helper before it reaches a page-address computation.  This
module parses every analyzed file once into a :class:`Project` —
symbol tables per module, classes with their methods, import aliases —
and answers one question deterministically: *which function definitions
can this call expression reach?*

Resolution is intentionally layered from precise to heuristic:

1. **Local names** — ``helper()`` binds to the module's own top-level
   function of that name.
2. **Import-qualified names** — ``from repro.apps import hunspell`` +
   ``hunspell.stable_hash(w)`` resolves through the alias table to the
   defining module; ``from m import f`` resolves ``f()`` the same way.
   A resolved *class* name binds to its ``__init__``.
3. **Class-qualified methods** — ``self.evict(...)`` / ``cls.make()``
   binds to the enclosing class, walking base classes (resolved by
   name through the same alias tables) in MRO-ish order.
4. **Duck-typed methods** — ``self.ops.fetch_batch(...)`` has no
   receiver type, so the graph falls back to *every* class in the
   project defining ``fetch_batch``.  To keep that sound-ish, very
   common method names (``get``, ``run``, ``call``…) and names with
   too many candidates resolve to nothing instead of to noise; the
   consuming pass decides how to combine multiple candidates.

Everything is plain ``ast`` — no imports are executed, so analyzing a
broken or hostile tree is safe.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.nodeindex import NodeIndex
from repro.analysis.walker import attr_chain

#: Method names too generic for duck-typed resolution: binding these to
#: every class that defines them would connect unrelated subsystems.
COMMON_METHOD_NAMES = frozenset({
    "get", "put", "pop", "add", "append", "extend", "update", "items",
    "keys", "values", "clear", "copy", "read", "write", "open", "close",
    "run", "call", "send", "next", "step", "reset", "start", "stop",
    "charge", "render", "push", "setdefault", "remove", "discard",
})

#: Duck-typed resolution gives up beyond this many candidate classes.
MAX_DUCK_CANDIDATES = 4


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str            # "repro.sgx.mmu.Mmu.translate"
    module: str              # dotted module name
    path: str                # file path (for findings)
    node: ast.AST            # the FunctionDef / AsyncFunctionDef
    class_name: str = None   # enclosing class, None for module level
    #: positional parameter names, ``self``/``cls`` already dropped.
    params: tuple = ()
    #: keyword-only parameter names.
    kwonly: tuple = ()

    @property
    def name(self):
        return self.node.name

    def param_index(self, name):
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassInfo:
    """One class definition: methods plus base-class name chains."""

    name: str
    module: str
    bases: tuple = ()        # dotted base names as written ("Base", "m.B")
    methods: dict = field(default_factory=dict)


@dataclass
class ModuleTable:
    """Symbol table of one module."""

    name: str
    path: str
    #: local alias -> dotted origin ("rnd" -> "random",
    #: "stable_hash" -> "repro.apps.hunspell.stable_hash").
    imports: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)   # name -> FunctionInfo
    classes: dict = field(default_factory=dict)     # name -> ClassInfo


def _collect_params(node, is_method):
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if is_method and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    return tuple(positional), tuple(a.arg for a in args.kwonlyargs)


class Project:
    """Parsed view of every analyzed module plus the call graph."""

    def __init__(self, modules):
        #: dotted module name -> ModuleTable
        self.modules = {}
        #: qualname -> FunctionInfo
        self.functions = {}
        #: method name -> tuple of FunctionInfo across all classes
        self._method_index = {}
        #: class name -> tuple of ClassInfo (for base resolution)
        self._class_index = {}
        #: memoized resolutions, shared by every pass in one run: the
        #: taint and accounting passes resolve the same call sites, and
        #: the tables never change after construction, so the answer
        #: for a given (call node, module, caller) is fixed.
        self._resolve_cache = {}
        self.cache_hits = 0
        self.cache_misses = 0
        #: every node list a pass walks, one traversal per module tree
        #: (built here, so it lives exactly as long as the run).
        self.index = NodeIndex()
        self.sources = list(modules)
        for mod in modules:
            self._index_module(mod)
        for name, infos in self._method_index.items():
            self._method_index[name] = tuple(
                sorted(infos, key=lambda f: f.qualname))

    # -- indexing ----------------------------------------------------------

    def _index_module(self, mod):
        table = ModuleTable(name=mod.module, path=mod.path)
        self.modules[mod.module] = table
        for node in self.index.of(mod.tree, ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    table.imports[alias.asname or
                                  alias.name.split(".")[0]] = alias.name
            else:
                base = self._import_base(mod.module, node)
                for alias in node.names:
                    table.imports[alias.asname or alias.name] = \
                        f"{base}.{alias.name}" if base else alias.name
        for child in mod.tree.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(table, child, class_name=None)
            elif isinstance(child, ast.ClassDef):
                self._add_class(table, child)

    @staticmethod
    def _import_base(module, node):
        if node.level:  # relative: resolve against the package
            package = module.rsplit(".", node.level)[0]
            return f"{package}.{node.module}" if node.module else package
        return node.module or ""

    def _add_function(self, table, node, class_name):
        is_method = class_name is not None
        params, kwonly = _collect_params(node, is_method)
        qual = ".".join(
            [table.name] + ([class_name] if class_name else []) +
            [node.name]
        )
        info = FunctionInfo(
            qualname=qual, module=table.name, path=table.path, node=node,
            class_name=class_name, params=params, kwonly=kwonly,
        )
        self.functions[qual] = info
        if is_method:
            table.classes[class_name].methods[node.name] = info
            self._method_index.setdefault(node.name, []).append(info)
        else:
            table.functions[node.name] = info

    def _add_class(self, table, node):
        bases = tuple(
            ".".join(chain) for chain in
            (attr_chain(b) for b in node.bases) if chain
        )
        cls = ClassInfo(name=node.name, module=table.name, bases=bases)
        table.classes[node.name] = cls
        self._class_index.setdefault(node.name, []).append(cls)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(table, child, class_name=node.name)

    # -- resolution --------------------------------------------------------

    def resolve_dotted(self, dotted):
        """A fully dotted name -> FunctionInfo (function or class
        ``__init__``), or None."""
        if dotted in self.functions:
            return self.functions[dotted]
        module, _, leaf = dotted.rpartition(".")
        table = self.modules.get(module)
        if table is None:
            return None
        if leaf in table.functions:
            return table.functions[leaf]
        if leaf in table.classes:
            return table.classes[leaf].methods.get("__init__")
        if leaf in table.imports:  # re-export, one hop
            return self.resolve_dotted(table.imports[leaf])
        return None

    def _resolve_in_class(self, table, cls, method, _depth=0):
        """Look up ``method`` on ``cls`` and its named bases."""
        if method in cls.methods:
            return cls.methods[method]
        if _depth >= 4:
            return None
        for base in cls.bases:
            base_cls = self._resolve_class_name(table, base)
            if base_cls is not None:
                found = self._resolve_in_class(
                    self.modules.get(base_cls.module, table), base_cls,
                    method, _depth + 1)
                if found is not None:
                    return found
        return None

    def _resolve_class_name(self, table, dotted):
        head, _, tail = dotted.partition(".")
        if not tail and head in table.classes:
            return table.classes[head]
        origin = table.imports.get(head)
        if origin is None:
            return None
        full = f"{origin}.{tail}" if tail else origin
        module, _, leaf = full.rpartition(".")
        target = self.modules.get(module)
        if target is not None and leaf in target.classes:
            return target.classes[leaf]
        # ``import x.y`` + ``x.y.Cls`` style
        for candidate in self._class_index.get(full.rpartition(".")[2], ()):
            if f"{candidate.module}.{candidate.name}" == full:
                return candidate
        return None

    def duck_candidates(self, method):
        """All project methods named ``method`` — () for names too
        common or too widely defined to be meaningful."""
        if method in COMMON_METHOD_NAMES:
            return ()
        infos = self._method_index.get(method, ())
        if not infos or len(infos) > MAX_DUCK_CANDIDATES:
            return ()
        return infos

    def resolve_call(self, call, module, caller=None):
        """Candidate FunctionInfos a call expression may reach
        (a possibly-empty, deterministic tuple)."""
        return self.resolve_call_ex(call, module, caller)[0]

    def resolve_call_ex(self, call, module, caller=None):
        """Like :meth:`resolve_call` but returns ``(candidates,
        strong)``.

        ``strong`` is True when the binding is certain — a local name,
        an import-qualified name, or a ``self``/``cls`` method.
        Duck-typed matches are *weak*: ``word.encode(...)`` may bind to
        some project class's ``encode`` that has nothing to do with a
        string, so weak candidates are a hint, not a proof, and
        clients that lose information by trusting a summary (the taint
        engine) must combine them with their conservative fallback.
        """
        key = (id(call), module,
               caller.qualname if caller is not None else None)
        cached = self._resolve_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        result = self._resolve_call_uncached(call, module, caller)
        self._resolve_cache[key] = result
        return result

    def _resolve_call_uncached(self, call, module, caller):
        chain = attr_chain(call.func)
        if not chain:
            return (), True
        table = self.modules.get(module)
        if table is None:
            return (), True

        if len(chain) == 1:
            name = chain[0]
            if name in table.functions:
                return (table.functions[name],), True
            if name in table.classes:
                init = table.classes[name].methods.get("__init__")
                return ((init,) if init else ()), True
            origin = table.imports.get(name)
            if origin:
                found = self.resolve_dotted(origin)
                return ((found,) if found else ()), True
            return (), True

        root, method = chain[0], chain[-1]
        if len(chain) == 2 and root in ("self", "cls") and \
                caller is not None and caller.class_name:
            cls = table.classes.get(caller.class_name)
            if cls is not None:
                found = self._resolve_in_class(table, cls, method)
                if found is not None:
                    return (found,), True
            return (), True
        if len(chain) == 2:
            origin = table.imports.get(root)
            if origin:
                found = self.resolve_dotted(f"{origin}.{method}")
                if found is not None:
                    return (found,), True
                if origin in self.modules:
                    # Known module, unknown member: stop here.
                    return (), True
        return tuple(self.duck_candidates(method)), False

    def bind_arguments(self, call, callee):
        """Map the call's argument expressions onto callee parameters.

        Returns ``{param_index: ast expression}`` for positional and
        recognized keyword arguments (starred arguments are skipped).
        """
        bound = {}
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            if i < len(callee.params):
                bound[i] = arg
        names = list(callee.params)
        for kw in call.keywords:
            if kw.arg is None:
                continue
            if kw.arg in names:
                bound[names.index(kw.arg)] = kw.value
        return bound
