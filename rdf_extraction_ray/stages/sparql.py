"""SPARQL text front-end: parse a SPARQL query string into the
engine's BGP planner calls and run it over a triple Dataset.

The reference drives its graph through rdflib / a Stardog endpoint
with textual SPARQL (cwrc/RDF-extraction Utils/utilities.py:446-490;
extraction_validation/verify_terms.py issues SELECTs); this module
gives the Ray engine the same user surface — a string in, a streaming
Dataset out — on top of the already-oracled plan operators
(:mod:`rdf_extraction_ray.stages.graph`). Parsing is driver-side and
O(query text); ALL data movement remains in the planner operators, so
the text layer adds zero exchanges.

Supported grammar (every form raises a precise error outside it):

* ``PREFIX ns: <uri>`` declarations, ``a`` for rdf:type.
* ``SELECT [DISTINCT] (?v | (AGG(?v) AS ?alias) | (EXPR AS ?v))* | *``
  with aggregates COUNT(*) / COUNT(?v) / COUNT(DISTINCT ?v) / SUM /
  AVG / MIN / MAX / GROUP_CONCAT(?v; SEPARATOR="|") and BIND-style
  projection expressions (STRLEN LCASE UCASE CONCAT SUBSTR STRBEFORE
  STRAFTER).
* WHERE groups: triple patterns with ``;`` / ``,`` abbreviation,
  predicate paths ``^p`` (inverse) and ``p1|p2`` (alternation),
  OPTIONAL { }, FILTER (comparisons ``= != < <= > >=`` chained with
  ``&&``, plus CONTAINS/STRSTARTS), FILTER [NOT] EXISTS { },
  MINUS { }, VALUES, BIND (expr AS ?v), ``{ SELECT ... }``
  subqueries, and ``{ g } UNION { g }``; every nested group is a
  full group.
* Solution modifiers GROUP BY / HAVING / ORDER BY [ASC|DESC] /
  LIMIT / OFFSET.
* Property-path quantifiers ``p+`` (one-or-more) and ``p*``
  (zero-or-more; zero-length pairs are the graph's URI terms paired
  with themselves), over a forward or inverse (``^p``) predicate or
  a parenthesized alternation of those (``(p1|^p2)+`` — e.g. ``p``
  with its inverse gives weak/undirected reachability), in any group
  and any query form: each is a ``path`` node of the algebra (below).
* Query forms SELECT, ASK, CONSTRUCT, DESCRIBE ?v, and the update
  form ``DELETE { } INSERT { } WHERE { }`` (either template optional;
  ``DELETE WHERE { }`` shorthand).
* VARIABLE PREDICATES: a bare ``?p`` in the predicate slot plans as
  the unfiltered triple scan with the predicate term bound into the
  solution (the schema-census scan shape). Reference analogue:
  arbitrary endpoint SPARQL (cwrc/RDF-extraction
  Utils/utilities.py:446-490).
* NAMED GRAPHS: ``GRAPH ?g { ... }`` / ``GRAPH <iri> { ... }`` in any
  group — each inner triple pattern becomes a quad pattern whose 4th
  slot binds (or constant-filters) the input's ``graph`` column (the
  engine's N-Quads layout, stages/serialize.py; a NULL graph row
  never matches ``GRAPH ?g``, per quad-store semantics). Reference
  analogue: named-graph quads (cwrc/RDF-extraction
  Huviz/huvizQuads.py:15,129-140).

Evaluation. Every query form translates into one algebra tree
(:func:`_algebra`, SPARQL 1.1 §18) with one evaluator
(:func:`_evaluate`). The nodes:

* ``leaf`` — one group's required patterns, OPTIONAL, FILTER, VALUES
  and BIND: one :func:`graph.bgp_match` plan without solution
  modifiers. Every group is a leaf: the outer group, each UNION
  branch, each MINUS / EXISTS body and each subquery body.
* ``path`` — one ``p+`` / ``p*`` pattern: the (start, node) relation
  of :func:`graph.path_closure` named by the pattern's variables (a
  constant subject restricts the origins, a constant object or one
  variable at both ends filters it).
* ``join`` — a path or a subquery joined with the rest of its group
  on their shared variables; ``left`` — the same for a path or
  pattern under OPTIONAL that meets a path's variables.
* ``filter`` — the group's BIND, FILTER and VALUES clauses that name
  a variable the leaf does not bind (a path's or a subquery's), over
  the joined group.
* ``anti`` — MINUS and FILTER NOT EXISTS: an anti join against the
  body's distinct keys. ``semi`` — FILTER EXISTS: an inner join on
  the body's distinct keys, so a solution keeps its multiplicity.
  The keys are the variables bound in every solution of both sides
  (SQL ``[NOT] EXISTS`` with equality); sharing none is an error,
  and so is sharing one that a side may leave unbound.
* ``union`` — the branches concatenated, each padded to the union's
  variables with typed NULLs.
* ``group`` — GROUP BY + aggregates + HAVING
  (:func:`graph.bgp_aggregate`'s body).
* ``modifiers`` — at a SELECT's root: projection, DISTINCT, ORDER BY
  + LIMIT top-k, the OFFSET page and the typed zero-row seed.

SELECT returns the root's solutions, ASK whether one exists;
CONSTRUCT, DESCRIBE and DELETE/INSERT pass them to the template,
semi-join and update bodies. Every join is one
:func:`graph._solution_join`, broadcast or exchanged by the right
side's row count.

Refused, each for a reason (loud errors, never a silent misplan):

* OFFSET without ORDER BY + LIMIT: an unordered page is
  nondeterministic; the page is cut on the driver from the top-k.
* OFFSET inside a subquery: that page cut would collect the inner
  sequence on the driver in the middle of the plan.
* GROUP_CONCAT separators other than ``"|"``: the engine pins it.
* Cartesian patterns: a group's patterns must share variables.
* A MINUS / EXISTS body sharing a variable with the main pattern
  that either side may leave unbound (OPTIONAL, UNION, BIND): SPARQL
  compares it per solution, which no equality key can express, so
  dropping it from the keys would keep or remove wrong rows.
* GRAPH or a property path in a CONSTRUCT / DELETE / INSERT
  template (including the ``DELETE WHERE`` shorthand): the template
  bodies write plain triples.
* A group with no required pattern (empty, or OPTIONAL only).
* Path operators over a variable predicate (``?p+`` / ``^?p`` /
  ``?p|q``), ``p+`` / ``p*`` inside GRAPH (a closure per graph) and
  nested GRAPH groups.
"""

from __future__ import annotations

import re
from typing import NamedTuple

_RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

_TOKEN_RE = re.compile(r"""
    (?P<comment>\#[^\n]*)
  | (?P<iri><[^<>\s]*>)
  | (?P<literal>"(?:[^"\\]|\\.)*"(?:@[A-Za-z][A-Za-z0-9-]*|\^\^<[^>]*>)?)
  | (?P<var>\?[A-Za-z_]\w*)
  | (?P<num>-?\d+(?:\.\d+)?)
  | (?P<pname>[A-Za-z_][\w-]*:\w(?:[\w.-]*[\w-])?|[A-Za-z_][\w-]*:(?=\s)|:\w(?:[\w.-]*[\w-])?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>&&|!=|<=|>=|[{}().;,|^=<>:*+])
  | (?P<bad>\S)
""", re.X)

_AGG_FNS = {"count", "sum", "avg", "min", "max", "group_concat"}
_BIND_FNS = {"strlen", "lcase", "ucase", "concat", "substr",
             "strbefore", "strafter"}
_FILTER_FNS = {"contains", "strstarts"}
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        gap = text[pos:m.start()]
        if gap.strip():
            raise SyntaxError(f"cannot tokenize {gap.strip()[:20]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "comment":
            continue
        if kind == "bad":
            raise SyntaxError(f"unexpected character {m.group()!r}")
        out.append((kind, m.group()))
    if text[pos:].strip():
        raise SyntaxError(f"cannot tokenize {text[pos:].strip()[:20]!r}")
    return out


def _unquote(lit: str) -> str:
    body = lit[1:lit.rindex('"')]
    return re.sub(r"\\(.)",
                  lambda m: _ESCAPES.get(m.group(1), m.group(1)), body)


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.prefixes: dict[str, str] = {}

    # ---------------------------------------------------- primitives
    def _peek(self, k: int = 0):
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else ("eof", "")

    def _next(self):
        t = self._peek()
        self.i += 1
        return t

    def _kw(self, k: int = 0) -> str:
        kind, val = self._peek(k)
        return val.lower() if kind == "word" else ""

    def _expect(self, val: str):
        kind, got = self._next()
        ok = got == val or (kind == "word" and got.lower() == val)
        if not ok:
            raise SyntaxError(f"expected {val!r}, got {got!r}")

    def _expand(self, pname: str) -> str:
        pre, _, local = pname.partition(":")
        if pre not in self.prefixes:
            raise SyntaxError(f"undeclared prefix {pre!r}:")
        return self.prefixes[pre] + local

    def _term(self) -> str:
        kind, val = self._next()
        if kind == "var":
            return val
        if kind == "iri":
            return val[1:-1]
        if kind == "pname":
            return self._expand(val)
        if kind == "literal":
            return _unquote(val)
        if kind == "num":
            return val
        if kind == "word" and val == "a":
            return _RDF_TYPE
        raise SyntaxError(f"expected term, got {val!r}")

    def _path(self):
        """Predicate path: a bare ``?var`` (VARIABLE predicate — the
        unfiltered scan binds the predicate term), iri, ^iri, a
        |-alternation of those, or a quantified closure ``p+`` /
        ``p*`` / ``^p+`` / ``(p1|^p2|...)+`` (parenthesized
        alternations may carry the quantifier; SPARQL requires the
        parens for grouping, and an UNparenthesized ``p1|p2+`` stays
        a loud error rather than silently binding the quantifier to
        the whole alternation). A variable composes with no path
        operator — ``?p|q`` / ``?p+`` / ``^?p`` stay loud errors."""
        if self._peek()[0] == "var":
            var = self._next()[1]
            if self._peek()[1] in ("|", "+", "*"):
                raise NotImplementedError(
                    "path operators over a variable predicate are "
                    "not supported")
            return var

        def one():
            if self._peek()[1] == "^":
                self._next()
                return "^" + self._const_iri()
            return self._const_iri()

        grouped = self._peek()[1] == "("
        if grouped:
            self._next()
        alts = [one()]
        while self._peek()[1] == "|":
            self._next()
            alts.append(one())
        if grouped:
            self._expect(")")
        quant = self._peek()[1]
        if quant in ("+", "*"):
            self._next()
            if len(alts) > 1 and not grouped:
                raise NotImplementedError(
                    f"p{quant} over an alternation needs parentheses: "
                    "(p1|p2)" + quant)
            body = alts[0] if len(alts) == 1 else tuple(alts)
            return ("__closure_star__" if quant == "*"
                    else "__closure__", body)
        return alts[0] if len(alts) == 1 else tuple(alts)

    def _const_iri(self) -> str:
        kind, val = self._next()
        if kind == "iri":
            return val[1:-1]
        if kind == "pname":
            return self._expand(val)
        if kind == "word" and val == "a":
            return _RDF_TYPE
        if kind == "var":
            raise NotImplementedError(
                "a variable predicate composes with no path operator "
                "(^ / | / + / *) — use a bare ?var")
        raise SyntaxError(f"expected predicate, got {val!r}")

    # ------------------------------------------------------- prologue
    def parse_prologue(self):
        while self._kw() == "prefix":
            self._next()
            kind, val = self._next()
            if kind == "pname" or (kind == "punct" and val == ":"):
                pre = val[:-1] if val.endswith(":") else \
                    val.partition(":")[0]
                if kind == "punct":
                    pre = ""
            elif kind == "word":
                pre = val
                self._expect(":")
            else:
                raise SyntaxError(f"bad PREFIX name {val!r}")
            kind, iri = self._next()
            if kind != "iri":
                raise SyntaxError("PREFIX needs an <iri>")
            self.prefixes[pre] = iri[1:-1]

    # ------------------------------------------------- group contents
    def parse_group(self) -> dict:
        """One { ... } group body -> plan fragment dict."""
        g: dict = {"patterns": [], "optional": [], "filters": [],
                   "minus": [], "exists": [], "not_exists": [],
                   "values": None, "binds": [], "union": None,
                   "subquery": []}
        self._expect("{")
        # top-level UNION: { {g1} UNION {g2} [UNION {g3}] }
        if self._peek()[1] == "{" and self._kw(1) != "select":
            branches = [self.parse_group()]
            while self._kw() == "union":
                self._next()
                branches.append(self.parse_group())
            self._expect("}")
            if len(branches) == 1:  # plain nested group: inline it
                return branches[0]
            g["union"] = branches
            return g
        dot_ok = False
        while self._peek()[1] != "}":
            if self._peek() == ("punct", "."):
                # SPARQL allows one optional '.' after any group
                # pattern (OPTIONAL/GRAPH/FILTER blocks etc.); a
                # leading or doubled '.' is a syntax error
                if not dot_ok:
                    raise SyntaxError("unexpected '.' in group pattern")
                self._next()
                dot_ok = False
                continue
            dot_ok = True
            kw = self._kw()
            if kw == "optional":
                self._next()
                sub = self.parse_group()
                if any(sub[k] for k in sub if k != "patterns"):
                    raise NotImplementedError(
                        "OPTIONAL groups support only triple patterns")
                g["optional"].extend(sub["patterns"])
            elif kw == "filter":
                self._next()
                self._parse_filter(g)
            elif kw == "minus":
                self._next()
                g["minus"].append(self.parse_group())
            elif kw == "graph":
                # GRAPH (?g | <iri>) { triple patterns }: each inner
                # pattern becomes a QUAD pattern (s, p, o, gterm) —
                # the planner binds/filters the input's graph column
                # (quad layout; reference analogue named-graph quads,
                # Huviz/huvizQuads.py:15,129-140)
                self._next()
                kind, val = self._peek()
                if kind == "var":
                    gterm = self._next()[1]
                elif kind == "iri":
                    gterm = self._next()[1][1:-1]
                elif kind == "pname":
                    gterm = self._expand(self._next()[1])
                else:
                    raise SyntaxError(
                        f"GRAPH needs ?var or an IRI, got {val!r}")
                sub = self.parse_group()
                if any(sub[k] for k in sub if k != "patterns"):
                    raise NotImplementedError(
                        "GRAPH groups support only triple patterns")
                for pat in sub["patterns"]:
                    if _is_closure_term(pat[1]):
                        raise NotImplementedError(
                            "p+/p* inside GRAPH is not supported")
                    if len(pat) == 4:
                        # silently re-wrapping would overwrite the
                        # inner graph term — loud instead
                        raise NotImplementedError(
                            "nested GRAPH groups are not supported")
                    g["patterns"].append(
                        (pat[0], pat[1], pat[2], gterm))
            elif kw == "values":
                self._next()
                g["values"] = self._parse_values()
            elif kw == "bind":
                self._next()
                self._expect("(")
                expr = self._parse_expr()
                self._expect("as")
                kind, var = self._next()
                if kind != "var":
                    raise SyntaxError("BIND needs (expr AS ?var)")
                self._expect(")")
                g["binds"].append((expr, var))
            elif self._peek()[1] == "{":
                if self._kw(1) != "select":
                    raise NotImplementedError(
                        "nested groups are supported as UNION "
                        "branches or { SELECT ... } subqueries only")
                self._next()  # {
                g["subquery"].append(self._parse_subselect())
                self._expect("}")
            else:
                self._parse_triples_block(g["patterns"])
                # the block consumed its own trailing '.'
                dot_ok = self.toks[self.i - 1] != ("punct", ".")
        self._expect("}")
        return g

    def _parse_triples_block(self, out: list):
        """subject (path obj-list (';' path obj-list)*) '.'?"""
        subj = self._term()
        while True:
            path = self._path()
            while True:
                obj = self._term()
                out.append((subj, path, obj))
                if self._peek()[1] == ",":
                    self._next()
                    continue
                break
            if self._peek()[1] == ";":
                self._next()
                if self._peek()[1] in ("}", "."):  # trailing ;
                    break
                continue
            break
        if self._peek()[1] == ".":
            self._next()

    def _parse_filter(self, g: dict):
        kw = self._kw()
        if kw in ("exists", "not"):
            negated = kw == "not"
            self._next()
            if negated:
                self._expect("exists")
            g["not_exists" if negated else "exists"].append(
                self.parse_group())
            return
        self._expect("(")
        while True:
            g["filters"].append(self._parse_comparison())
            if self._peek()[1] == "&&":
                self._next()
                continue
            break
        self._expect(")")

    def _parse_comparison(self):
        if self._kw() in _FILTER_FNS:
            fn = self._kw()
            self._next()
            self._expect("(")
            var = self._term()
            self._expect(",")
            const = self._term()
            self._expect(")")
            return (var, fn, const)
        lhs = self._term()
        kind, op = self._next()
        if op not in ("=", "!=", "<", "<=", ">", ">="):
            raise SyntaxError(f"bad FILTER operator {op!r}")
        rhs = self._term()
        return (lhs, "==" if op == "=" else op, rhs)

    def _parse_values(self):
        kind, val = self._peek()
        if kind == "var":           # VALUES ?v { c1 c2 } -> scalar rows
            self._next()
            self._expect("{")
            rows = []
            while self._peek()[1] != "}":
                rows.append(self._term())
            self._expect("}")
            return ([val], rows)
        self._expect("(")           # VALUES (?a ?b) { (c d) ... }
        vs = []
        while self._peek()[0] == "var":
            vs.append(self._next()[1])
        self._expect(")")
        self._expect("{")
        rows = []
        while self._peek()[1] == "(":
            self._next()
            row = tuple(self._term() for _ in vs)
            self._expect(")")
            rows.append(row)
        self._expect("}")
        return (vs, rows)

    def _parse_expr(self):
        """BIND / projection expression -> planner tuple AST."""
        fn = self._kw()
        if fn not in _BIND_FNS:
            raise NotImplementedError(
                f"unsupported expression function {fn!r} (supported: "
                f"{sorted(_BIND_FNS)})")
        self._next()
        self._expect("(")
        args = []
        while self._peek()[1] != ")":
            kind, val = self._peek()
            if kind == "num":
                self._next()
                args.append(int(float(val)))
            else:
                args.append(self._term())
            if self._peek()[1] == ",":
                self._next()
        self._expect(")")
        return (fn, *args)

    # ------------------------------------------------------ SELECT
    def _parse_projection(self, q: dict):
        if self._peek()[1] == "*":
            self._next()
            q["select"] = None
            return
        sel: list[str] = []
        while True:
            kind, val = self._peek()
            if kind == "var":
                self._next()
                sel.append(val[1:])
            elif val == "(":
                self._next()
                if self._kw() in _AGG_FNS:
                    q["aggs"].append(self._parse_agg())
                else:
                    expr = self._parse_expr()
                    self._expect("as")
                    kind, var = self._next()
                    if kind != "var":
                        raise SyntaxError("projection needs AS ?var")
                    self._expect(")")
                    q["binds"].append((expr, var))
                    sel.append(var[1:])
            else:
                break
        q["select"] = sel or None

    def _parse_agg(self):
        fn = self._kw()
        self._next()
        self._expect("(")
        distinct = False
        if self._kw() == "distinct":
            distinct = True
            self._next()
        kind, val = self._next()
        if val == "*":
            var = "*"
        elif kind == "var":
            var = val[1:]
        else:
            raise SyntaxError(f"aggregate needs ?var or *, got {val!r}")
        if fn == "group_concat" and self._peek()[1] == ";":
            self._next()
            self._expect("separator")
            self._expect("=")
            kind, sep = self._next()
            if kind != "literal" or _unquote(sep) != "|":
                raise NotImplementedError(
                    'the engine pins GROUP_CONCAT SEPARATOR="|"')
        self._expect(")")
        self._expect("as")
        kind, alias = self._next()
        if kind != "var":
            raise SyntaxError("aggregate needs AS ?alias")
        self._expect(")")
        if distinct:
            if fn != "count":
                raise NotImplementedError(
                    "DISTINCT is supported for COUNT only")
            fn = "count_distinct"
        return (fn, var, alias[1:])

    # ---------------------------------------------------- modifiers
    def _parse_modifiers(self, q: dict):
        while True:
            kw = self._kw()
            if kw == "group":
                self._next()
                self._expect("by")
                while self._peek()[0] == "var":
                    q["group_by"].append(self._next()[1][1:])
            elif kw == "having":
                self._next()
                self._expect("(")
                while True:
                    q["having"].append(self._parse_having_clause(q))
                    if self._peek()[1] == "&&":
                        self._next()
                        continue
                    break
                self._expect(")")
            elif kw == "order":
                self._next()
                self._expect("by")
                while True:
                    kind, val = self._peek()
                    if kind == "var":
                        self._next()
                        q["order_by"].append((val, "asc"))
                    elif kind == "word" and val.lower() in ("asc",
                                                            "desc"):
                        self._next()
                        self._expect("(")
                        kind, var = self._next()
                        if kind != "var":
                            raise SyntaxError("ORDER BY ASC/DESC(?v)")
                        self._expect(")")
                        q["order_by"].append((var, val.lower()))
                    else:
                        break
            elif kw == "limit":
                self._next()
                kind, n = self._next()
                if kind != "num":
                    raise SyntaxError("LIMIT needs a number")
                q["limit"] = int(n)
            elif kw == "offset":
                self._next()
                kind, n = self._next()
                if kind != "num":
                    raise SyntaxError("OFFSET needs a number")
                q["offset"] = int(n)
            else:
                break

    def _parse_having_clause(self, q: dict):
        """HAVING(COUNT(?v) > 3) or HAVING(?alias > 3): resolve the
        aggregate expression to its SELECT alias."""
        kind, val = self._peek()
        if kind == "var":
            self._next()
            alias = val[1:]
        elif self._kw() in _AGG_FNS:
            fn = self._kw()
            self._next()
            self._expect("(")
            distinct = self._kw() == "distinct"
            if distinct:
                self._next()
            kind, v = self._next()
            var = "*" if v == "*" else v[1:]
            self._expect(")")
            if distinct:
                fn = "count_distinct"
            match = [a for a in q["aggs"]
                     if a[0] == fn and a[1] == var]
            if not match:
                raise SyntaxError(
                    "HAVING aggregate must also appear in SELECT")
            alias = match[0][2]
        else:
            raise SyntaxError("HAVING needs ?alias or AGG(?v)")
        kind, op = self._next()
        if op not in ("=", "!=", "<", "<=", ">", ">="):
            raise SyntaxError(f"bad HAVING operator {op!r}")
        kind, n = self._next()
        if kind != "num":
            raise SyntaxError("HAVING compares against a number")
        return (alias, "==" if op == "=" else op, float(n))

    # ------------------------------------------------------- queries
    @staticmethod
    def _new_q() -> dict:
        return {"form": None, "distinct": False, "select": None,
                "aggs": [], "binds": [], "group_by": [],
                "having": [], "order_by": [], "limit": None,
                "offset": None, "template": None,
                "describe_var": None, "delete": None, "insert": None,
                "group": None}

    def _parse_subselect(self) -> dict:
        """SELECT header + group + modifiers (shared by the top-level
        SELECT form and { SELECT ... } subqueries)."""
        q = self._new_q()
        self._expect("select")
        q["form"] = "select"
        if self._kw() == "distinct":
            q["distinct"] = True
            self._next()
        self._parse_projection(q)
        if self._kw() == "where":
            self._next()
        q["group"] = self.parse_group()
        self._parse_modifiers(q)
        return q

    def parse(self) -> dict:
        self.parse_prologue()
        q: dict = self._new_q()
        kw = self._kw()
        if kw == "select":
            q = self._parse_subselect()
        elif kw == "ask":
            self._next()
            q["form"] = "ask"
            if self._kw() == "where":
                self._next()
            q["group"] = self.parse_group()
        elif kw == "construct":
            self._next()
            q["form"] = "construct"
            tpl: list = []
            self._expect("{")
            while self._peek()[1] != "}":
                self._parse_triples_block(tpl)
            self._expect("}")
            q["template"] = tpl
            self._expect("where")
            q["group"] = self.parse_group()
        elif kw == "describe":
            self._next()
            q["form"] = "describe"
            kind, var = self._next()
            if kind != "var":
                raise NotImplementedError(
                    "DESCRIBE supports a single ?var")
            q["describe_var"] = var
            self._expect("where")
            q["group"] = self.parse_group()
        elif kw in ("delete", "insert"):
            q["form"] = "update"
            if kw == "delete":
                self._next()
                if self._kw() == "where":  # DELETE WHERE { } shorthand
                    self._next()
                    q["group"] = self.parse_group()
                    q["delete"] = list(q["group"]["patterns"])
                else:
                    tpl = []
                    self._expect("{")
                    while self._peek()[1] != "}":
                        self._parse_triples_block(tpl)
                    self._expect("}")
                    q["delete"] = tpl
            if self._kw() == "insert":
                self._next()
                tpl = []
                self._expect("{")
                while self._peek()[1] != "}":
                    self._parse_triples_block(tpl)
                self._expect("}")
                q["insert"] = tpl
            if q["group"] is None:
                self._expect("where")
                q["group"] = self.parse_group()
        else:
            raise SyntaxError(f"unknown query form {kw!r}")
        for p in (q["template"] or []) + (q["delete"] or []) \
                + (q["insert"] or []):
            # a template writes plain triples (the DELETE WHERE
            # shorthand is the one that can bring GRAPH or a path here)
            if len(p) == 4 or not isinstance(p[1], str) \
                    or p[1].startswith("^"):
                raise NotImplementedError(
                    "a CONSTRUCT / DELETE / INSERT template writes plain "
                    "triples: no GRAPH and no property path")
        if self._peek()[0] != "eof":
            raise SyntaxError(
                f"trailing tokens from {self._peek()[1]!r}")
        return q


def parse_sparql(text: str) -> dict:
    """Parse a SPARQL string into the engine's plan dict (see module
    docstring for the supported subset)."""
    return _Parser(text).parse()


_CLOSURE_MARKS = ("__closure__", "__closure_star__")


def _is_closure_term(t) -> bool:
    """Is this PREDICATE term a parsed closure (``p+`` / ``p*``)?"""
    return isinstance(t, tuple) and len(t) == 2 \
        and t[0] in _CLOSURE_MARKS


def _closure_pairs(G, triples, pred, star: bool,
                   start_const: str | None, n_buckets: int):
    """The (start, node) relation of ``pred+`` / ``pred*`` as a
    set-distinct Dataset. ``pred*`` unions the ``pred+`` closure with
    the zero-length pairs — every URI term in the graph paired with
    itself (or just (s, s) when the subject slot is the constant
    ``s``) — then pair-dedups (a cycle makes (x, x) reachable via
    ``pred+`` too; set semantics must collapse it).

    ``pred`` is a single member or a tuple (alternation); each member
    may be inverse (``^p``). Anything beyond the plain single forward
    predicate normalizes through ONE stateless edge-projection pass —
    forward members keep (subj, obj), inverse members swap — under a
    synthetic predicate, and the same dual-path closure runs over
    that relation; no extra exchanges."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    members = list(pred) if isinstance(pred, tuple) else [pred]
    fwd = [m for m in members if not m.startswith("^")]
    inv = [m[1:] for m in members if m.startswith("^")]
    if len(members) == 1 and fwd:
        src, p_use = triples, members[0]
    else:
        p_use = "urn:x-closure-edge"

        def _edges(df: pd.DataFrame) -> pd.DataFrame:
            parts = []
            if fwd:
                f = df[df["pred"].isin(fwd)]
                parts.append(pd.DataFrame({"subj": f["subj"],
                                           "obj": f["obj"]}))
            if inv:
                i = df[df["pred"].isin(inv)]
                parts.append(pd.DataFrame({
                    "subj": i["obj"].to_numpy(),
                    "obj": i["subj"].to_numpy()}))
            out = (pd.concat(parts, ignore_index=True) if parts
                   else pd.DataFrame({"subj": pd.Series(dtype=object),
                                      "obj": pd.Series(dtype=object)}))
            out["pred"] = p_use
            return out[["subj", "pred", "obj"]]

        src = triples.map_batches(_edges, batch_format="pandas")

    clo = G.path_closure(src, p_use,
                         starts=[start_const] if start_const else None,
                         n_buckets=n_buckets)
    if not star:
        return clo  # path_closure output is already set-distinct
    pair_schema = pa.schema([("start", pa.string()),
                             ("node", pa.string())])
    if start_const is not None:
        zero = rd.from_arrow(pa.table(
            {"start": [start_const], "node": [start_const]},
            schema=pair_schema))
    else:
        def _zero_rows(df: pd.DataFrame) -> pa.Table:
            # subjects are always URI terms of the graph (RDF), so
            # they self-pair unconditionally; only the OBJECT side
            # is filtered to URI kind — a subject whose triples all
            # have literal objects still gets its zero-length pair
            g = df[df["obj_kind"] == "uri"] \
                if "obj_kind" in df.columns else df
            t = pa.array(pd.unique(pd.concat([df["subj"], g["obj"]],
                                             ignore_index=True)),
                         type=pa.string())
            return pa.table([t, t], schema=pair_schema)

        zero = triples.map_batches(_zero_rows, batch_format="pandas")

    return G.distinct_rows(clo.union(zero), pair_schema, n_buckets)


class _Node(NamedTuple):
    """One node of a query's algebra tree (SPARQL 1.1 §18).

    ``kind`` is ``leaf`` (a group's patterns, OPTIONAL, FILTER, VALUES
    and BIND: one :func:`graph.bgp_match` plan), ``path`` (a ``p+`` /
    ``p*`` pattern), ``join`` (a path or a subquery), ``left`` (a path
    or pattern under OPTIONAL), ``filter`` (BIND, FILTER and VALUES
    over the joined group), ``anti`` (MINUS / FILTER NOT EXISTS),
    ``semi`` (FILTER EXISTS), ``union``, ``group`` (GROUP BY +
    aggregates + HAVING) or ``modifiers`` (projection, DISTINCT, ORDER
    BY, LIMIT, OFFSET). ``vars`` are the variables it binds, in
    first-appearance order; ``sure`` are those bound in every
    solution, the only ones a MINUS or EXISTS may join on. ``arg``: a
    leaf's group, a path's pattern, the join keys, a filter's
    ``(binds, filters, values)``, the grouping ``(group_by, aggs,
    having)`` or the query's modifiers."""
    kind: str
    kids: tuple
    vars: list
    sure: list
    arg: object = None


_LEAF_CLAUSES = ("patterns", "optional", "filters", "values", "binds")


def _algebra(q: dict, sub: bool = False) -> _Node:
    """The algebra tree of a parsed (sub)query: its group, grouped if
    it aggregates, under the solution modifiers if it is a SELECT."""
    if sub and q["offset"] is not None:
        raise NotImplementedError(
            "OFFSET inside a subquery is not supported")
    node = _group_node(q["group"], q["binds"])
    if q["aggs"] or q["group_by"]:
        if not q["aggs"]:
            raise NotImplementedError("GROUP BY needs aggregates")
        node = _Node("group", (node,),
                     q["group_by"] + [a[2] for a in q["aggs"]],
                     [v for v in q["group_by"] if v in node.sure],
                     (q["group_by"], q["aggs"], q["having"]))
    elif q["having"]:
        raise NotImplementedError("HAVING needs GROUP BY aggregates")
    if q["form"] != "select":
        return node
    select = (node.vars if q["select"] is None or q["aggs"]
              else q["select"])
    return _Node("modifiers", (node,), select,
                 [v for v in node.sure if v in select], q)


def _joined(kind: str, left: _Node, right: _Node) -> _Node:
    """``left`` joined (``join``) or left-joined (``left``) with
    ``right`` on their shared variables."""
    on = [v for v in right.vars if v in left.vars]
    if not on:
        raise ValueError(
            "a path, subquery or OPTIONAL pattern shares no variable "
            "with the rest of its group (cartesian products are not "
            "supported)")
    sure = left.sure + on + right.sure if kind == "join" else left.sure
    return _Node(kind, (left, right),
                 left.vars + [v for v in right.vars if v not in on],
                 list(dict.fromkeys(sure)), on)


def _refs(binds=(), filters=(), values=None) -> list[str]:
    """The variables that BIND expressions, FILTERs and VALUES read."""
    from rdf_extraction_ray.stages.graph import _bind_expr_vars, _is_var

    return [v for e, _ in binds for v in _bind_expr_vars(e)] + [
        t[1:] for f in filters for t in (f[0], f[2]) if _is_var(t)] + [
        v[1:] for v in (values[0] if values else [])]


def _group_node(g: dict, extra_binds=()) -> _Node:
    """One ``{ }`` group: a UNION of its branches, or its leaf joined
    with its ``p+`` / ``p*`` paths and its subqueries, left-joined with
    the OPTIONAL paths and patterns that meet a path's variables, under
    the BIND, FILTER and VALUES clauses that name a variable the leaf
    does not bind; then semi-joined with its FILTER EXISTS bodies and
    anti-joined with its FILTER NOT EXISTS and MINUS bodies.
    ``extra_binds`` are the SELECT's projection expressions, evaluated
    like the group's BINDs (in every branch, for a UNION)."""
    from rdf_extraction_ray.stages.graph import _leaf_vars, _pattern_vars

    if g["union"]:
        kids = tuple(_group_node(b, extra_binds) for b in g["union"])
        return _Node("union", kids,
                     list(dict.fromkeys(v for k in kids for v in k.vars)),
                     [v for v in kids[0].sure
                      if all(v in k.sure for k in kids[1:])])

    def _path(pat) -> _Node:
        vs = _pattern_vars([pat])
        if not vs:
            raise NotImplementedError("p+/p* needs a variable end")
        return _Node("path", (), vs, vs, pat)

    patterns = [p for p in g["patterns"] if not _is_closure_term(p[1])]
    paths = [_path(p) for p in g["patterns"] if _is_closure_term(p[1])]
    required = set(_pattern_vars(patterns))
    # an OPTIONAL pattern meeting a variable the leaf does not bind
    # (a path's, or a moved optional's) left-joins above the leaf
    above = {v for p in paths for v in p.vars} - required
    optional, lefts = [], []
    for p in g["optional"]:
        vs = _pattern_vars([p])
        if _is_closure_term(p[1]) or not patterns or above & set(vs):
            lefts.append(_path(p) if _is_closure_term(p[1]) else _Node(
                "leaf", (), vs, vs, dict(g, patterns=[p], optional=[],
                                         filters=[], values=None, binds=[])))
            above |= set(vs) - required
        else:
            optional.append(p)
    bound = required | set(_pattern_vars(optional))
    binds, late_binds = [], []
    for b in list(g["binds"]) + list(extra_binds):
        if patterns and set(_refs([b])) <= bound:
            binds.append(b)
            bound.add(b[1][1:])
        else:
            late_binds.append(b)
    filters = [f for f in g["filters"] if set(_refs(filters=[f])) <= bound]
    late = (late_binds, [f for f in g["filters"] if f not in filters],
            None if set(_refs(values=g["values"])) <= required
            else g["values"])

    leaf = dict(g, patterns=patterns, optional=optional, binds=binds,
                filters=filters, values=None if late[2] else g["values"])
    parts = [_Node("leaf", (), _leaf_vars(patterns, optional, binds),
                   _pattern_vars(patterns), leaf)] \
        if any(leaf[k] for k in _LEAF_CLAUSES) else []
    parts += paths + [_algebra(sq, sub=True) for sq in g["subquery"]]
    if not parts:
        raise NotImplementedError(
            "a group needs a required pattern (an empty group, or one "
            "of only OPTIONAL patterns, is not supported)")
    node, rest = parts[0], parts[1:]
    while rest:
        # greedy-connected, in query order
        right = next((r for r in rest if set(r.vars) & set(node.vars)),
                     rest[0])
        rest.remove(right)
        node = _joined("join", node, right)
    for right in lefts:
        node = _joined("left", node, right)
    if any(late):
        outs = [out[1:] for _, out in late_binds]
        bad = [v for v in _refs(*late) if v not in node.vars + outs] + [
            v for v in outs if v in node.vars]
        if bad:
            raise ValueError(
                f"?{bad[0]} is bound by no pattern, or BIND rebinds it")
        node = _Node("filter", (node,), node.vars + outs, node.sure, late)
    for clause, kind, name in (("exists", "semi", "EXISTS"),
                               ("not_exists", "anti", "NOT EXISTS"),
                               ("minus", "anti", "MINUS")):
        for body in g[clause]:
            right = _group_node(body)
            keys = [v for v in node.sure if v in right.sure]
            if not keys:
                raise ValueError(
                    f"{name} patterns share no variable with the "
                    "required main patterns")
            loose = [v for v in node.vars
                     if v in right.vars and v not in keys]
            if loose:
                # a shared variable that one side may leave unbound is
                # no equality key: SPARQL compares it per solution
                raise NotImplementedError(
                    f"{name} shares ?{', ?'.join(loose)} with the main "
                    "pattern, but not every solution of both binds it "
                    "(OPTIONAL, UNION or BIND)")
            node = _Node(kind, (node, right), node.vars, node.sure, keys)
    return node


def _project(ds, schema, need: list[str]):
    import pyarrow as pa

    if list(schema.names) == list(need):
        return ds, schema
    return (ds.select_columns(need),
            pa.schema([schema.field(v) for v in need]))


def _evaluate(G, triples, node: _Node, need: list[str], n_buckets: int):
    """``(solutions, schema)`` of ``node`` over ``triples``, projected
    to the variables ``need`` (the schema's names, in that order): the
    one evaluator of every query form. Each join is
    :func:`graph._solution_join`, whose right side is materialized so
    that its row count picks broadcast or exchange."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    bad = [v for v in need if v not in node.vars]
    if bad:
        raise ValueError(f"selected vars bound by no pattern: {bad}")

    def _eval(kid, vs):
        return _evaluate(G, triples, kid, vs, n_buckets)

    if node.kind == "leaf":
        g = node.arg
        return G._bgp_leaf(
            triples, g["patterns"], need, optional=g["optional"] or None,
            filters=g["filters"] or None, values=g["values"],
            binds=g["binds"] or None, n_buckets=n_buckets,
            broadcast_rows=G._BROADCAST_ROWS), G._str_schema(need)
    if node.kind == "path":
        # the (start, node) closure relation named by the pattern's
        # variables; a constant end, or one variable at both ends,
        # filters it
        s, (mark, pred), o = node.arg
        schema = G._str_schema(need)
        pairs = _closure_pairs(G, triples, pred, mark == "__closure_star__",
                               None if G._is_var(s) else s, n_buckets)

        def _bind(t):
            if not G._is_var(o):
                t = t.filter(pc.equal(t["node"], o))
            elif o == s:
                t = t.filter(pc.equal(t["start"], t["node"]))
            cols = {o[1:]: t["node"]} if G._is_var(o) else {}
            if G._is_var(s):
                cols[s[1:]] = t["start"]
            return pa.table([cols[v] for v in need], schema=schema)

        return pairs.map_batches(_bind, batch_format="pyarrow"), schema
    if node.kind == "filter":
        # BINDs, then FILTERs and the VALUES rows as a row mask
        binds, filters, values = node.arg
        kid = node.kids[0]
        ds, schema = _eval(kid, list(dict.fromkeys(
            [v for v in need + _refs(*node.arg) if v in kid.vars])))
        out = pa.schema([schema.field(v) if v in schema.names
                         else (v, pa.string()) for v in need])

        def _apply(t):
            df = t.to_pandas()
            for expr, name in binds:
                df[name[1:]] = G._eval_bind(df, expr)
            if filters:
                df = df[G._filter_mask(df, filters)]
            if values:
                rows = [(r,) if isinstance(r, str) else tuple(r)
                        for r in values[1]]
                df = df[pd.MultiIndex.from_frame(
                    df[[v[1:] for v in values[0]]]).isin(rows)]
            return pa.Table.from_pandas(
                df[need], schema=out,
                preserve_index=False).replace_schema_metadata(None)

        return ds.map_batches(_apply, batch_format="pyarrow"), out
    if node.kind == "modifiers":
        q = node.arg
        ds, schema = _eval(node.kids[0], node.vars)
        ds = G._modifiers(ds, schema, distinct=q["distinct"],
                          order_by=q["order_by"] or None, limit=q["limit"],
                          offset=q["offset"], n_buckets=n_buckets)
        return _project(ds, schema, need)
    if node.kind == "group":
        kid = node.kids[0]
        return _project(*G._group(lambda vs: _eval(kid, vs)[0],
                                  kid.vars[:1], *node.arg, n_buckets), need)
    if node.kind == "union":
        parts, types = [], {}
        for kid in node.kids:
            vs = [v for v in need if v in kid.vars]
            if not vs:
                raise ValueError("a UNION branch binds no selected var")
            ds, schema = _eval(kid, vs)
            types.update((f.name, f.type) for f in schema
                         if f.name not in types)
            parts.append(ds)
        schema = pa.schema([(v, types[v]) for v in need])

        def _pad(t):
            return pa.table({f.name: t.column(f.name)
                             if f.name in t.column_names
                             else pa.nulls(t.num_rows, f.type)
                             for f in schema}, schema=schema)

        parts = [ds.map_batches(_pad, batch_format="pyarrow")
                 for ds in parts]
        return parts[0].union(*parts[1:]), schema
    # join / left / anti / semi
    left, right = node.kids
    keys = node.arg
    lds, ls = _eval(left, list(dict.fromkeys(
        [v for v in need if v in left.vars] + keys)))
    if node.kind in ("join", "left"):
        from rdf_extraction_ray.stages.joins import _join_schema
        rds, rs = _eval(right, list(dict.fromkeys(
            keys + [v for v in need if v in right.vars])))
        schema = _join_schema(ls, rs, keys, "_r")
    else:
        rds, rs = _eval(right, keys)
        rds = G.distinct_rows(rds, rs, n_buckets)
        schema = ls
    rds = rds.materialize()
    how = {"join": "inner", "semi": "inner"}.get(node.kind, node.kind)
    out = G._solution_join(lds, rds, keys, how, rds.count(),
                           G._BROADCAST_ROWS, n_buckets, ls, rs)
    return _project(out, schema, need)


def run_sparql(triples, text: str, n_buckets: int = 64):
    """Parse ``text`` and execute it over the ``triples`` Dataset
    (columns subj/pred/obj[, provenance]) — a Dataset out for
    SELECT/CONSTRUCT/DESCRIBE/update, a bool for ASK. Every form
    evaluates one algebra tree (:func:`_algebra`, :func:`_evaluate`);
    the text layer itself moves no data."""
    from rdf_extraction_ray.stages import graph as G

    q = parse_sparql(text)
    root = _algebra(q)

    def solutions(need: list[str]):
        return _evaluate(G, triples, root, need, n_buckets)[0]

    if q["form"] == "select":
        return solutions(root.vars)
    if q["form"] == "ask":
        return solutions(root.vars).limit(1).count() > 0
    if q["form"] == "construct":
        return G._construct(solutions, q["template"], n_buckets)
    if q["form"] == "describe":
        return G._describe(triples, solutions, q["describe_var"], n_buckets)
    return G._update(triples, solutions, q["delete"], q["insert"],
                     n_buckets)
