"""Density expressions in x, compiled to a tape that evaluates log f as a Taylor jet.

An expression is parsed with :mod:`ast` and checked against a small
grammar: numbers, the variable ``x``, the constants ``pi`` and ``E``, the
operators ``+ - * / **``, the functions ``exp``, ``log``, ``sqrt`` and
``cosh``, and ``gamma`` of arguments free of x.  Anything else (another
name, a call to another function, attribute access, a subscript, a lambda,
a comparison, ...) is a ValueError that names the construct, so parsing
never executes code.  Subexpressions free of x fold to floats through
:mod:`math` when the expression is compiled.

A jet of degree k at the points x is the list c_0..c_k of Taylor
coefficients c_j = g^(j)(x)/j! of some g; an entry is a float, an array or
None, which marks a coefficient that is zero by the expression's structure
and is skipped (x itself is [x, 1, None, ...]).  Every subexpression has
two views: its plain jet, and the jet of log|value| with the value's sign
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed. 2008, ch. 13).
Products, quotients and powers are sums and scalings of log-jets; exp(a) is
a's plain jet read as a log-jet; a sum of two positive terms is
alpha + softplus(beta - alpha) on their log-jets, whose derivative
sigma = exp(beta - log(e^alpha + e^beta)) lies in [0, 1].  So log f of the
logistic or the hyperbolic secant written as an expression never forms
e^(-x) and (1 + e^(-x))^2 and cannot overflow on its way to a finite value.
A plain view is taken only where a sum, an exponent or a function needs one;
a product, quotient or whole power of plain jets stays plain there, which
keeps zeros of a factor (x^2 at x = 0) exact.

The compiled tape is a flat list of (rule, operand count) steps in postfix
order, evaluated on a stack; the root yields log f's jet, so
rho^(j) = -j! (log f)_j.
"""
from __future__ import annotations

import ast
import math
import operator

import numpy as np

#: names an expression may use besides x
CONSTANTS = {"pi": math.pi, "E": math.e}
#: functions of x, with their values at a constant argument
FUNCTIONS = {"exp": math.exp, "log": math.log, "sqrt": math.sqrt, "cosh": math.cosh}
#: functions an expression may apply to arguments free of x only
CONSTANT_FUNCTIONS = {"gamma": math.gamma}
_KINKS = ("abs", "Abs", "sign")  # refused: the contrast must be six times differentiable
_POLY_POWER = 64  # the largest whole power a plain jet is raised to by products
_CONSTRUCTS = {ast.Attribute: "attribute access", ast.Subscript: "a subscript",
               ast.Lambda: "a lambda", ast.Compare: "a comparison",
               ast.BoolOp: "a boolean operator", ast.IfExp: "a conditional expression",
               ast.Starred: "a starred argument", ast.keyword: "a keyword argument"}


# ---------------------------------------------------------------------------
# jet arithmetic; None is a structural zero
# ---------------------------------------------------------------------------

def _dot(a, b, n, lo, hi):
    """sum_(j=lo..hi) a_j b_(n-j) over the pairs in which neither is a structural zero, or None."""
    total = None
    for j in range(lo, hi + 1):
        p, q = a[j], b[n - j]
        if p is not None and q is not None:
            t = (q if type(p) is float and p == 1.0 else
                 p if type(q) is float and q == 1.0 else p * q)
            total = t if total is None else total + t
    return total


def _jet_sum(a, b):
    return [q if p is None else p if q is None else p + q for p, q in zip(a, b)]


def _jet_scale(a, s):
    return [None if p is None else p * s for p in a]


def _jet_product(a, b):
    # the Cauchy product, truncated at the degree of a and b
    return [_dot(a, b, n, 0, n) for n in range(len(a))]


def _jet_quotient(a, b):
    # q with q b = a: q_n = (a_n - sum_(j=1..n) b_j q_(n-j)) / b_0
    inv, q = 1.0 / b[0], []
    for n in range(len(a)):
        s = _dot(b, q, n, 1, n)
        num = a[n] if s is None else -s if a[n] is None else a[n] - s
        q.append(None if num is None else num * inv)
    return q


def _derivative(a):
    # j a_j, the jet of x a'(x) without its constant term; index 0 unused
    return [None] + [None if p is None else j * p for j, p in enumerate(a[1:], 1)]


def _jet_exp(a):
    # e = exp(a): n e_n = sum_(j=1..n) j a_j e_(n-j)
    da, e = _derivative(a), [np.exp(a[0])]
    for n in range(1, len(a)):
        s = _dot(da, e, n, 1, n)
        e.append(None if s is None else s / n)
    return e


def _jet_log(a):
    # l = log|a|: l_n = (a_n - sum_(j=1..n-1) j l_j a_(n-j) / n) / a_0
    inv, l, dl = 1.0 / a[0], [np.log(np.abs(a[0]))], [None]
    for n in range(1, len(a)):
        s = _dot(dl, a, n, 1, n - 1)
        num = a[n] if s is None else -s / n if a[n] is None else a[n] - s / n
        l.append(None if num is None else num * inv)
        dl.append(None if l[n] is None else n * l[n])
    return l


def _jet_logaddexp(alpha, beta):
    """The log-jet of e^alpha + e^beta: hi + softplus(e), e = lo - hi <= 0.

    hi is the larger of alpha and beta at each point and lo the other, so
    softplus' = sigma = exp(e - softplus(e)) lies in (0, 1/2].  With
    S = softplus(e), n S_n = sum j e_j sigma_(n-j) and
    n sigma_n = sum j (e - S)_j sigma_(n-j): no term overflows, and the
    1 - sigma inside e - S never cancels.
    """
    d = _jet_sum(beta, _jet_scale(alpha, -1.0))
    swap = d[0] > 0  # where beta is the larger
    e = [None if p is None else np.where(swap, -p, p) for p in d]
    hi = [None if p is None and q is None else
          np.where(swap, 0.0 if q is None else q, 0.0 if p is None else p)
          for p, q in zip(alpha, beta)]
    soft = np.log1p(np.exp(e[0]))
    out, sigma, de, dg = [hi[0] + soft], [np.exp(e[0] - soft)], _derivative(e), [None]
    for n in range(1, len(e)):
        s = _dot(de, sigma, n, 1, n)
        s = None if s is None else s / n
        out.append(s if hi[n] is None else hi[n] if s is None else hi[n] + s)
        if n + 1 < len(e):  # sigma_n feeds the orders above n only
            g = e[n] if s is None else -s if e[n] is None else e[n] - s
            dg.append(None if g is None else n * g)
            t = _dot(dg, sigma, n, 1, n)
            sigma.append(None if t is None else t / n)
    return out


def _positive(sign) -> bool:
    return type(sign) is float and sign == 1.0


def _power_sign(sign, p):
    # the sign of a**p from that of a: nan where a < 0 and p is not whole
    if _positive(sign):
        return 1.0
    if p == round(p):
        return sign if p % 2 else abs(sign)
    return np.where(sign < 0, np.nan, sign)


def _whole_power(a, p):
    # a**p for a whole p >= 1, by repeated squaring of jets
    out, base = None, a
    while p:
        if p & 1:
            out = base if out is None else _jet_product(out, base)
        p >>= 1
        if p:
            base = _jet_product(base, base)
    return out


# ---------------------------------------------------------------------------
# the tape: rules over the stack, called as rule(x, k, *operands)
# ---------------------------------------------------------------------------

def _to_plain(x, k, log):
    jet, sign = log
    e = _jet_exp(jet)
    return e if _positive(sign) else _jet_scale(e, sign)


def _to_log(x, k, plain):
    return _jet_log(plain), np.sign(plain[0])


_CONVERT = {"plain": _to_plain, "log": _to_log}


class _Node:
    """A compiled subexpression: its value if free of x, whether its structure makes it
    positive, and per view the rule and (operand, view) pairs that compute it; ``scaled``
    is (c, a) for a node c a."""

    __slots__ = ("views", "positive", "const", "scaled")

    def __init__(self, views, positive=False, const=None, scaled=None):
        self.views, self.positive, self.const, self.scaled = views, positive, const, scaled

    def tape(self, view: str) -> list:
        """The steps that leave this node's ``view`` on the stack, operands first."""
        if view not in self.views:  # through the other view
            return self.tape("log" if view == "plain" else "plain") + [(_CONVERT[view], 1)]
        rule, operands = self.views[view]
        return [step for node, v in operands for step in node.tape(v)] + [(rule, len(operands))]


def _constant(c: float) -> _Node:
    log = (math.log(abs(c)) if c else -math.inf, math.copysign(1.0, c) if c else 0.0)
    return _Node({"plain": (lambda x, k: [c] + [None] * k, []),
                  "log": (lambda x, k: ([log[0]] + [None] * k, log[1]), [])},
                 positive=c > 0, const=c)


_X = _Node({"plain": (lambda x, k: [x, 1.0, *[None] * (k - 1)][:k + 1], [])})


def _fold(what: str, fn, *args) -> _Node:
    # a subexpression free of x, as a finite float
    try:
        value = float(fn(*args))
    except (ArithmeticError, ValueError, TypeError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"the constant {what} is not a finite real number")
    return _constant(value)


def _add(a: _Node, b: _Node) -> _Node:
    views = {"plain": (lambda x, k, p, q: _jet_sum(p, q), [(a, "plain"), (b, "plain")])}
    if a.positive and b.positive:
        views["log"] = (lambda x, k, p, q: (_jet_logaddexp(p[0], q[0]), 1.0),
                        [(a, "log"), (b, "log")])
    return _Node(views, positive=a.positive and b.positive)


def _scale(c: float, a: _Node) -> _Node:
    # c a in one step on either view of a, with a's own constant factor folded into c
    if a.scaled is not None:
        c, a = c * a.scaled[0], a.scaled[1]
    if c == 0.0:
        return _constant(0.0)
    if c == 1.0:
        return a
    log_c, sign_c = math.log(abs(c)), math.copysign(1.0, c)
    views = {"log": (lambda x, k, p: ([p[0][0] + log_c, *p[0][1:]], p[1] * sign_c), [(a, "log")])}
    if "plain" in a.views:
        views["plain"] = (lambda x, k, p: _jet_scale(p, c), [(a, "plain")])
    return _Node(views, positive=a.positive and c > 0, scaled=(c, a))


def _product(a: _Node, b: _Node, divide: bool) -> _Node:
    if divide and b.const is not None:
        if b.const == 0.0:
            raise ValueError("the expression divides by zero")
        b, divide = _constant(1.0 / b.const), False
    if not divide and (a.const is not None or b.const is not None):
        return _scale(a.const, b) if a.const is not None else _scale(b.const, a)
    sub = -1.0 if divide else 1.0
    views = {"log": (lambda x, k, p, q: (_jet_sum(p[0], _jet_scale(q[0], sub)), p[1] * q[1]),
                     [(a, "log"), (b, "log")])}
    if "plain" in a.views and "plain" in b.views:
        views["plain"] = (lambda x, k, p, q: (_jet_quotient if divide else _jet_product)(p, q),
                          [(a, "plain"), (b, "plain")])
    return _Node(views, positive=a.positive and b.positive)


def _power(a: _Node, b: _Node) -> _Node:
    if b.const is None:
        if a.const is not None and not a.const > 0:
            raise ValueError("a power with an exponent in x needs a positive constant base, "
                             f"got {a.const!r}")
        # a**b = exp(b log a)
        return _Node({"log": (lambda x, k, e, p: (_jet_product(e, p[0]), _power_sign(p[1], 0.5)),
                              [(b, "plain"), (a, "log")])}, positive=a.positive)
    p = b.const
    if p == 0.0:
        return _constant(1.0)
    if p == 1.0:
        return a
    views = {"log": (lambda x, k, q: (_jet_scale(q[0], p), _power_sign(q[1], p)), [(a, "log")])}
    if "plain" in a.views and p == round(p) and 0 < p <= _POLY_POWER:
        views["plain"] = (lambda x, k, q: _whole_power(q, int(p)), [(a, "plain")])
    return _Node(views, positive=a.positive)


def _call(name: str, a: _Node) -> _Node:
    if name == "sqrt":
        return _power(a, _constant(0.5))
    if name == "exp":  # its log view is its argument
        return _Node({"log": (lambda x, k, p: (p, 1.0), [(a, "plain")]),
                      "plain": (lambda x, k, p: _jet_exp(p), [(a, "plain")])}, positive=True)
    if name == "log":  # nan where the argument is negative
        return _Node({"plain": (lambda x, k, q: q[0] if _positive(q[1]) else
                                [np.where(q[1] < 0, np.nan, q[0][0]), *q[0][1:]], [(a, "log")])})
    # cosh a = (e^a + e^-a) / 2
    log_half = math.log(0.5)
    return _Node({"log": (lambda x, k, p: (_jet_sum(_jet_logaddexp(p, _jet_scale(p, -1.0)),
                                                    [log_half] + [None] * k), 1.0),
                          [(a, "plain")])}, positive=True)


def _negate(a: _Node) -> _Node:
    return _scale(-1.0, a)


#: per operator, its value on constants and the node it builds otherwise
_OPERATORS = {ast.Add: (operator.add, _add),
              ast.Sub: (operator.sub, lambda a, b: _add(a, _negate(b))),
              ast.Mult: (operator.mul, lambda a, b: _product(a, b, False)),
              ast.Div: (operator.truediv, lambda a, b: _product(a, b, True)),
              ast.Pow: (operator.pow, _power)}


def _refuse(node, what=None):
    what = what or _CONSTRUCTS.get(type(node), f"the construct {type(node).__name__}")
    raise ValueError(f"{what} {ast.unparse(node)!r} is not allowed in an expression; it may "
                     "use numbers, x, pi, E, + - * / **, "
                     f"{', '.join(FUNCTIONS)} and {', '.join(CONSTANT_FUNCTIONS)}")


def _compile(node) -> _Node:
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):
            _refuse(node, "the literal")
        return _fold(repr(node.value), float, node.value)
    if isinstance(node, ast.Name):
        if node.id == "x":
            return _X
        return _constant(CONSTANTS[node.id])  # other names were refused before
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        a = _compile(node.operand)
        if isinstance(node.op, ast.UAdd):
            return a
        return _fold(ast.unparse(node), operator.neg, a.const) if a.const is not None \
            else _negate(a)
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _OPERATORS:
            _refuse(node, "the operator in")
        fold, build = _OPERATORS[type(node.op)]
        a, b = _compile(node.left), _compile(node.right)
        if a.const is not None and b.const is not None:
            return _fold(ast.unparse(node), fold, a.const, b.const)
        return build(a, b)
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name in _KINKS:
            raise ValueError(f"unsupported function(s) {name} in expression: the contrast "
                             "must be six times differentiable")
        if name not in FUNCTIONS and name not in CONSTANT_FUNCTIONS:
            _refuse(node, "the call")
        if node.keywords or len(node.args) != 1:
            _refuse(node, f"{name} takes one argument, so")
        a = _compile(node.args[0])
        if a.const is not None:
            return _fold(ast.unparse(node), {**FUNCTIONS, **CONSTANT_FUNCTIONS}[name], a.const)
        if name in CONSTANT_FUNCTIONS:
            _refuse(node, f"{name} of an argument in x,")
        return _call(name, a)
    _refuse(node)


def compile_log_density(expr: str):
    """``run(x, k)``: the degree-k jet of log|f| at the points x, as floats, and the sign of f.

    The sign is None where the expression is positive by its structure,
    else a float or an array.  Raises ValueError for an expression outside
    the grammar, naming the construct.
    """
    too_deep = f"expression {expr[:40]!r}... nests too deeply"
    try:
        tree = ast.parse(expr.strip(), mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ValueError(f"cannot parse expression {expr!r}: {exc}") from None
    except RecursionError:
        raise ValueError(too_deep) from None
    for node in ast.walk(tree):  # constructs first: a lambda's parameter is no foreign name
        if type(node) in _CONSTRUCTS:
            _refuse(node)
    calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    foreign = sorted({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                      and id(n) not in calls and n.id != "x" and n.id not in CONSTANTS})
    if foreign:
        raise ValueError(f"expression may only use the variable x; found {foreign}")
    try:
        tape = _compile(tree.body).tape("log")
    except RecursionError:
        raise ValueError(too_deep) from None

    def run(x, k):
        x, stack = np.asarray(x, dtype=float), []
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf, 0/0 = nan
            for rule, arity in tape:
                args = stack[len(stack) - arity:]
                del stack[len(stack) - arity:]
                stack.append(rule(x, k, *args))
        jet, sign = stack[0]
        return jet, None if _positive(sign) else sign

    return run
