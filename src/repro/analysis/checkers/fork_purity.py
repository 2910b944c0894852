"""Fork-pool purity: worker tasks never write module-level state.

``EpisodeScheduler(workers=N)`` shards whole episode frames over a
persistent fork-worker pool (``repro.serve.pool``), and its
bit-for-bit contract — any worker count identical to inline execution
— holds because each task carries *all* of its mutable state
explicitly (the episode's RNG state travels with the task and returns
with the result).  A worker function that mutates a module-level
global or closure cell instead would fork into N silently diverging
copies: results would depend on which worker ran which task, a race
the seeded test matrix cannot reliably sample (on the 1-core CI box it
cannot sample it at all).

``FORK-GLOBAL-WRITE`` statically walks the task surface: any function
passed to a pool dispatch method (``.map``/``.imap``/``.apply_async``/
``.starmap``/``.submit``/... ) or as a ``Process(target=...)``, plus
everything it calls *in the same module*, must not

* assign through a ``global`` (or ``nonlocal``) declaration,
* store into a subscript/attribute rooted at a module-level name, or
* call a known mutator method (``append``/``update``/``pop``/...) on a
  module-level name.

Reading module globals is fine — forked workers inherit read-only
state copy-on-write (that is how the persistent pool ships the model
once, as ``_pool_worker``'s inherited arguments).  Cross-module calls
are not followed; keep worker tasks thin and local, which
``repro.serve.pool._pool_worker`` models: one pipeline built from
inherited arguments, every mutable value in locals, RNG state
round-tripped through the reply.
"""

from __future__ import annotations

import ast

from repro.analysis.base import BaseChecker, CheckContext, Rule

#: Dispatch method names that take a callable first argument.
DISPATCH_METHODS = frozenset({
    "map", "map_async", "imap", "imap_unordered",
    "apply", "apply_async", "starmap", "starmap_async",
    "submit",
})

#: Mutating method names that count as writes when invoked on a
#: module-level name.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort",
    "reverse", "write",
})


class ForkPurityChecker(BaseChecker):
    name = "fork-pool-purity"
    rules = (
        Rule("FORK-GLOBAL-WRITE",
             "fork-pool task (or a same-module callee) writes "
             "module-level or closure state",
             contract="workers=N bit-for-bit sharding (PR 3)"),
    )

    def check(self, ctx: CheckContext):
        module_names = _module_level_names(ctx.tree)
        functions = {
            node.name: node
            for node in ctx.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        roots = _task_roots(ctx.tree) & set(functions)
        if not roots:
            return
        reachable = _reachable(roots, functions)
        for name in sorted(reachable):
            yield from self._check_task(ctx, functions[name],
                                        module_names, name in roots)

    # ------------------------------------------------------------------
    def _check_task(self, ctx: CheckContext, fn: ast.AST,
                    module_names: frozenset[str], is_root: bool):
        role = "fork-pool task" if is_root \
            else "function called from a fork-pool task"
        globals_declared: set[str] = {
            name for node in ast.walk(fn)
            if isinstance(node, ast.Global) for name in node.names}
        for node in ast.walk(fn):
            if isinstance(node, ast.Nonlocal):
                yield self.finding(
                    ctx, node, "FORK-GLOBAL-WRITE",
                    f"{role} `{fn.name}` writes closure state via "
                    "nonlocal — workers mutate diverging copies",
                    hint="pass the state in with the task and return "
                         "the new value with the result")
            elif isinstance(node, (ast.Assign, ast.AugAssign,
                                   ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    yield from self._check_store(
                        ctx, fn, role, target, module_names,
                        globals_declared)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATOR_METHODS:
                base = _base_name(node.func.value)
                if base is not None and base in module_names:
                    yield self.finding(
                        ctx, node, "FORK-GLOBAL-WRITE",
                        f"{role} `{fn.name}` mutates module-level "
                        f"`{base}` via .{node.func.attr}() — each "
                        "worker mutates its own forked copy",
                        hint="carry the state in the task tuple and "
                             "return it with the result (see "
                             "repro.serve.pool._pool_worker's "
                             "RNG-state round-trip)")

    def _check_store(self, ctx, fn, role, target, module_names,
                     globals_declared):
        if isinstance(target, ast.Name):
            if target.id in globals_declared:
                yield self.finding(
                    ctx, target, "FORK-GLOBAL-WRITE",
                    f"{role} `{fn.name}` assigns global "
                    f"`{target.id}` — invisible to other workers "
                    "and to the parent",
                    hint="return the value with the task result "
                         "instead of assigning a global")
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base = _base_name(target)
            if base is not None and base in module_names \
                    and base not in _LOCAL_SHADOW_SENTINEL:
                yield self.finding(
                    ctx, target, "FORK-GLOBAL-WRITE",
                    f"{role} `{fn.name}` stores into module-level "
                    f"`{base}` — each worker writes its own forked "
                    "copy",
                    hint="carry the state in the task tuple and "
                         "return it with the result")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._check_store(
                    ctx, fn, role, elt, module_names,
                    globals_declared)


#: Placeholder for future local-shadowing analysis; a task that
#: rebinds a module-level name locally before storing through it is
#: rare enough to handle with an inline suppression.
_LOCAL_SHADOW_SENTINEL: frozenset[str] = frozenset()


def _base_name(node: ast.AST) -> str | None:
    """Root plain name of a subscript/attribute chain, or ``None``."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_level_names(tree: ast.Module) -> frozenset[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname
                           or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
    return frozenset(names)


def _task_roots(tree: ast.Module) -> set[str]:
    """Names of same-module functions handed to a pool/process."""
    roots: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in DISPATCH_METHODS and node.args:
            first = node.args[0]
            if isinstance(first, ast.Name):
                roots.add(first.id)
        # Process(target=f) / Thread(target=f)
        for kw in node.keywords:
            if kw.arg == "target" and isinstance(kw.value, ast.Name):
                roots.add(kw.value.id)
    return roots


def _reachable(roots: set[str], functions: dict[str, ast.AST]
               ) -> set[str]:
    """Same-module call-graph closure of the task roots."""
    seen: set[str] = set()
    frontier = list(roots)
    while frontier:
        name = frontier.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name):
                frontier.append(node.func.id)
    return seen
