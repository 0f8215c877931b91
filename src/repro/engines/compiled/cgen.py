"""Emit the cffi provider's C module from the portable kernels.

numba compiles :mod:`repro.engines.compiled.kernels` as written; this module
translates the same bodies into C statement for statement (the subset is
what :meth:`_Kernel.statement` and :meth:`_Kernel.expr` match; anything else
raises :class:`SyntaxError` naming it), typed by the kernels' ``ARGUMENTS``,
plus the cdef and a straight-line wrapper per kernel passing the sizes the
body reads.  Binary operations are emitted parenthesised and ``int64_t``
never meets ``double``: the C is the Python bit for bit (with
``-ffp-contract=off``, which the provider builds with).
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import textwrap
from collections import namedtuple

__all__ = ["Module", "argument_type", "emit_module"]

_INT, _DOUBLE = "int64_t", "double"
_CTYPE = {"i64": _INT, "f64": _DOUBLE}
_BINOP = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_COMPARE = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


#: One emitted cffi module: declarations, C source, Python wrappers.
Module = namedtuple("Module", "cdef source wrappers")
#: An argument, or a view into one (``root``: the argument it belongs to).
_Array = namedtuple("_Array", "dtype dims root")


def argument_type(spec: str) -> tuple[str, tuple]:
    """``"f64[B, 6]"`` -> ``("f64", ("B", 6))``."""
    dtype, _, dims = spec.replace(" ", "").rstrip("]").partition("[")
    return dtype, tuple(int(dim) if dim.isdigit() else dim for dim in dims.split(","))


def emit_module(kernels, arguments: dict) -> Module:
    """Translate the functions ``kernels`` into one cffi module."""
    emitted = [_Kernel(kernel, arguments) for kernel in kernels]
    cdef = "".join(f"{kernel.prototype};\n" for kernel in emitted)
    source = "".join(f"\n{kernel.prototype}\n{{\n{kernel.body}}}\n" for kernel in emitted)
    wrappers = "".join(kernel.wrapper for kernel in emitted)
    return Module(cdef, "#include <math.h>\n#include <stdint.h>\n" + source, wrappers)


class _Kernel:
    """One kernel's C definition and Python wrapper, emitted on construction."""

    def __init__(self, function, arguments):
        self.line = function.__code__.co_firstlineno - 1
        tree = ast.parse(textwrap.dedent(inspect.getsource(function))).body[0]
        self.name, self.params = tree.name, [arg.arg for arg in tree.args.args]
        self.arrays, self.scalars, self.symbols, self.written = {}, {}, [], set()
        shapes = {}  # each size, read off the first argument naming it
        for name in self.params:
            if name not in arguments:
                raise self.refuse(tree, f"argument {name!r} missing from ARGUMENTS")
            self.arrays[name] = _Array(*argument_type(arguments[name]), name)
            for axis, dim in enumerate(self.arrays[name].dims):
                shapes.setdefault(dim, f"{name}.shape[{axis}]")
        body = tree.body[ast.get_docstring(tree) is not None :]
        code = "".join(self.statement(node, 1) for node in body)
        result = _INT if any(isinstance(node, ast.Return) for node in ast.walk(tree)) else "void"
        pointers = {name: f"{_CTYPE[array.dtype]} *{name}" for name, array in self.arrays.items()}
        params = [pointers[name] for name in self.params] + [f"{_INT} {s}" for s in self.symbols]
        self.prototype = f"{result} {self.name}(\n    " + ",\n    ".join(params) + ")"
        views = [pointers[name] for name in self.arrays if name not in self.params]
        locals_ = [f"{ctype} {name}" for name, ctype in self.scalars.items()] + views
        self.body = "".join(f"    {local};\n" for local in locals_) + code
        writable = dict.fromkeys(self.written, ", require_writable=True")
        arguments = [
            f'ffi.from_buffer("{_CTYPE[self.arrays[name].dtype]} *", '
            f'{name}{writable.get(name, "")})'
            for name in self.params
        ] + [shapes[symbol] for symbol in self.symbols]
        self.wrapper = (
            f"def {self.name}({', '.join(self.params)}):\n"
            f"    return lib.{self.name}({', '.join(arguments)})\n\n\n"
        )

    def refuse(self, node, what):
        line = self.line + getattr(node, "lineno", 1)
        snippet = ast.unparse(node).splitlines()[0]
        return SyntaxError(f"{self.name}, line {line}: not in the C subset: {what} in `{snippet}`")

    def statement(self, node, depth):
        pad = "    " * depth
        match node:
            case ast.For(
                target=ast.Name(id=var),
                iter=ast.Call(func=ast.Name(id="range"), args=[_, *_] as bounds, keywords=[]),
                orelse=[],
            ) if len(bounds) <= 3:
                start = self.typed(bounds[0], _INT) if len(bounds) > 1 else "0"
                stop = self.typed(bounds[1] if len(bounds) > 1 else bounds[0], _INT)
                step = self.constant(bounds[2]) if len(bounds) == 3 else 1
                self.bind(node, var, _INT)
                test = "<" if step > 0 else ">"
                head = f"for ({var} = {start}; {var} {test} {stop}; {var} += {step})"
            case ast.If(
                test=ast.Compare(left=left, ops=[op], comparators=[right]), orelse=[]
            ) if type(op) in _COMPARE:
                left, kind = self.expr(left)
                right = self.typed(right, kind)
                head = f"if ({left} {_COMPARE[type(op)]} {right})"
            case ast.Assign(targets=[ast.Tuple() | ast.List()]):
                raise self.refuse(node, "tuple unpacking")
            case ast.Assign(targets=[ast.Name(id=name)], value=value):
                code, kind = self.expr(value)
                self.bind(node, name, kind)
                return f"{pad}{name} = {code};\n"
            case ast.Assign(targets=[ast.Subscript(value=ast.Name()) as target]):
                return pad + self.store(node, target, node.value, "=")
            case ast.AugAssign(
                target=ast.Name() | ast.Subscript(value=ast.Name()) as target, op=op, value=value
            ) if type(op) in _BINOP:
                return pad + self.store(node, target, value, _BINOP[type(op)] + "=")
            case ast.Return(value=ast.AST() as value):
                return f"{pad}return {self.typed(value, _INT)};\n"
            case ast.If(orelse=[_, *_]):
                raise self.refuse(node, "an `else` branch")
            case _:
                raise self.refuse(node, f"`{type(node).__name__}`")
        body = "".join(self.statement(inner, depth + 1) for inner in node.body)
        return f"{pad}{head} {{\n{body}{pad}}}\n"

    def store(self, node, target, value, op):
        lhs, kind = self.expr(target)
        rhs = self.typed(value, kind)
        if op == "/=" and kind == _INT:
            raise self.refuse(node, "integer `/`")
        if isinstance(target, ast.Subscript):
            self.written.add(self.arrays[target.value.id].root)
        return f"{lhs} {op} {rhs};\n"

    def bind(self, node, name, kind):
        table = self.arrays if isinstance(kind, _Array) else self.scalars
        if table.setdefault(name, kind) != kind or name in self.arrays and name in self.scalars:
            raise self.refuse(node, f"rebinding `{name}` to another type")

    def expr(self, node):
        """``(C code, type)``; a partial index is a pointer typed by its :class:`_Array`."""
        match node:
            case ast.Constant(value=value) if type(value) in (int, float):
                return repr(value), _INT if type(value) is int else _DOUBLE
            case ast.Name(id=name) if name in self.scalars:
                return name, self.scalars[name]
            case ast.Subscript(
                value=ast.Attribute(value=ast.Name(id=name), attr="shape")
            ) if name in self.arrays:
                return self.size(self.arrays[name].dims[self.constant(node.slice)]), _INT
            case ast.Subscript(value=ast.Name(id=name)) if name in self.arrays:
                return self.subscript(node, self.arrays[name])
            case ast.UnaryOp(op=ast.USub(), operand=operand):
                code, kind = self.expr(operand)
                return f"(-{code})", kind
            case ast.BinOp(left=left, op=op, right=right) if type(op) in _BINOP:
                left, kind = self.expr(left)
                right = self.typed(right, kind)
                if isinstance(op, ast.Div) and kind == _INT:
                    raise self.refuse(node, "integer `/`")
                return f"({left} {_BINOP[type(op)]} {right})", kind
            case ast.Call(func=ast.Name(id="abs"), args=[argument], keywords=[]):
                return f"fabs({self.typed(argument, _DOUBLE)})", _DOUBLE
        raise self.refuse(node, f"`{type(node).__name__}`")

    def subscript(self, node, array):
        indices = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        if len(indices) > len(array.dims):
            raise self.refuse(node, "too many indices")
        offset = self.typed(indices[0], _INT)
        for axis, index in enumerate(indices[1:], 1):
            offset = f"({offset} * {self.size(array.dims[axis])} + {self.typed(index, _INT)})"
        rest = array.dims[len(indices) :]
        if not rest:
            return f"{node.value.id}[{offset}]", _CTYPE[array.dtype]
        stride = " * ".join(self.size(dim) for dim in rest)
        return f"{node.value.id} + {offset} * {stride}", _Array(array.dtype, rest, array.root)

    def typed(self, node, ctype):
        """C code of a scalar of type ``ctype`` (operands of one operation share one type)."""
        code, kind = self.expr(node)
        if kind != ctype or isinstance(kind, _Array):
            raise self.refuse(node, f"{kind} where {ctype} is required")
        return code

    def constant(self, node):
        with contextlib.suppress(ValueError):
            if type(value := ast.literal_eval(node)) is int:
                return value
        raise self.refuse(node, "a non-constant step or axis")

    def size(self, dim):
        if isinstance(dim, str) and dim not in self.symbols:
            self.symbols.append(dim)
        return str(dim)
