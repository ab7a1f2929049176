"""Checker: struct formats, size constants and header offset families must agree.

Invariants encoded (the wire contracts of ``messages.py`` / ``shm_ring.py``):

1. Every ``struct.Struct`` format is explicit about byte order (``<``, ``>``,
   ``=`` or ``!``): native-alignment formats change layout across ABIs, which
   for a cross-process ring is a torn header.
2. A header struct named ``_X_HEADER`` must have a declared ``X_HEADER_BYTES``
   constant equal to ``calcsize(fmt)`` — widening a field without bumping the
   constant becomes a lint error instead of a torn batch.
3. ``pack``/``pack_into`` call arity must match the format's field count,
   including through the repo's method-alias idiom
   (``step_pack = _STEP_HEADER.pack``; ``load, store = _U64.unpack_from,
   _U64.pack_into``).
4. Offset-constant families (``_HDR_*``, ``_SLOT_*`` — module-level int
   constants sharing a ``_PREFIX_`` and starting at 0) must be unique,
   8-aligned, declared in increasing order, and fit inside the smallest
   ``*_BYTES`` budget constant, leaving room for the final 8-byte field.
5. A structured view of a header, ``_X_HEADER_DTYPE = np.dtype({...})``,
   must mirror its struct ``_X_HEADER``: one field per struct field, each
   offset equal to ``calcsize`` of the format prefix before it, each format
   the NumPy spelling of its struct code, and ``itemsize`` naming
   ``X_HEADER_BYTES``.
"""

from __future__ import annotations

import ast
import re
import struct
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from tools.reprolint.core import Finding, Module, Project
from tools.reprolint.locks import call_name

RULE = "wire-layout"

_BYTE_ORDER_PREFIXES = ("<", ">", "=", "!")
_OFFSET_NAME = re.compile(r"^_([A-Z][A-Z0-9]*)_([A-Z0-9_]+)$")
_FIELD_BYTES = 8  # every offset family in this repo stores 8-byte slots

_STRUCT_METHODS = {"pack", "pack_into", "unpack", "unpack_from"}


class _StructSpec:
    def __init__(self, name: str, fmt: str, line: int) -> None:
        self.name = name
        self.fmt = fmt
        self.line = line
        self.size: Optional[int] = None
        self.nfields: Optional[int] = None
        try:
            compiled = struct.Struct(fmt)
        except struct.error:
            return
        self.size = compiled.size
        self.nfields = len(compiled.unpack(bytes(compiled.size)))


def _collect_structs(module: Module) -> Dict[str, _StructSpec]:
    specs: Dict[str, _StructSpec] = {}
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        value = node.value
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Call)
            and call_name(value).split(".")[-1] == "Struct"
            and value.args
            and isinstance(value.args[0], ast.Constant)
            and isinstance(value.args[0].value, str)
        ):
            specs[target.id] = _StructSpec(target.id, value.args[0].value, node.lineno)
    return specs


def _collect_int_constants(module: Module) -> Dict[str, Tuple[int, int]]:
    """Module-level ``NAME = <int literal>`` constants, as name -> (value, line)."""
    out: Dict[str, Tuple[int, int]] = {}
    for node in module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
            and not isinstance(node.value.value, bool)
        ):
            out[node.targets[0].id] = (node.value.value, node.lineno)
    return out


def _struct_method_aliases(
    module: Module, specs: Dict[str, _StructSpec]
) -> Dict[str, Tuple[str, str]]:
    """alias name -> (struct name, method) for ``x = NAME.pack`` style bindings."""
    aliases: Dict[str, Tuple[str, str]] = {}

    def bind(target: ast.expr, value: ast.expr) -> None:
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id in specs
            and value.attr in _STRUCT_METHODS
        ):
            aliases[target.id] = (value.value.id, value.attr)

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                node.value, (ast.Tuple, ast.List)
            ):
                for sub_target, sub_value in zip(target.elts, node.value.elts, strict=False):
                    bind(sub_target, sub_value)
            else:
                bind(target, node.value)
    return aliases


def _check_formats(module: Module, specs: Dict[str, _StructSpec]) -> List[Finding]:
    findings = []
    for spec in specs.values():
        if spec.size is None:
            findings.append(
                Finding(RULE, module.rel, spec.line, f"{spec.name}: invalid format {spec.fmt!r}")
            )
        elif not spec.fmt.startswith(_BYTE_ORDER_PREFIXES):
            findings.append(
                Finding(
                    RULE,
                    module.rel,
                    spec.line,
                    f"{spec.name}: format {spec.fmt!r} has no explicit byte order; "
                    "native alignment is ABI-dependent on the wire",
                )
            )
    return findings


def _check_size_constants(
    module: Module, specs: Dict[str, _StructSpec], constants: Dict[str, Tuple[int, int]]
) -> List[Finding]:
    findings = []
    for spec in specs.values():
        if spec.size is None:
            continue
        const_name = f"{spec.name.lstrip('_')}_BYTES"
        declared = constants.get(const_name)
        if declared is not None:
            value, line = declared
            if value != spec.size:
                findings.append(
                    Finding(
                        RULE,
                        module.rel,
                        line,
                        f"{const_name} = {value} but {spec.name} format {spec.fmt!r} "
                        f"packs {spec.size} bytes",
                    )
                )
        elif spec.name.lstrip("_").endswith("HEADER"):
            findings.append(
                Finding(
                    RULE,
                    module.rel,
                    spec.line,
                    f"header struct {spec.name} has no declared {const_name} size "
                    "constant to cross-check against",
                )
            )
    return findings


def _check_call_arity(
    module: Module,
    specs: Dict[str, _StructSpec],
    aliases: Dict[str, Tuple[str, str]],
) -> List[Finding]:
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target: Optional[Tuple[str, str]] = None
        if (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in specs
            and node.func.attr in _STRUCT_METHODS
        ):
            target = (node.func.value.id, node.func.attr)
        elif isinstance(node.func, ast.Name) and node.func.id in aliases:
            target = aliases[node.func.id]
        if target is None:
            continue
        struct_name, method = target
        spec = specs[struct_name]
        if spec.nfields is None or any(isinstance(a, ast.Starred) for a in node.args):
            continue
        expected = {"pack": spec.nfields, "pack_into": spec.nfields + 2}.get(method)
        if expected is not None and len(node.args) != expected:
            findings.append(
                Finding(
                    RULE,
                    module.rel,
                    node.lineno,
                    f"{struct_name}.{method} called with {len(node.args)} args but "
                    f"format {spec.fmt!r} has {spec.nfields} fields"
                    + (" (+ buffer, offset)" if method == "pack_into" else ""),
                )
            )
    return findings


def _check_offset_families(
    module: Module, constants: Dict[str, Tuple[int, int]]
) -> List[Finding]:
    findings: List[Finding] = []
    families: Dict[str, List[Tuple[str, int, int]]] = defaultdict(list)
    for name, (value, line) in constants.items():
        match = _OFFSET_NAME.match(name)
        if match is not None:
            families[match.group(1)].append((name, value, line))

    budgets = sorted(
        (value, name) for name, (value, _line) in constants.items() if name.endswith("_BYTES")
    )

    for family, members in sorted(families.items()):
        members.sort(key=lambda item: item[2])  # declaration order
        values = [value for _name, value, _line in members]
        # Offset families start at 0 and span at least one field width;
        # small dense families (message type tags 0,1,2,…) are enums, not
        # layouts, and are skipped entirely.
        if len(members) < 2 or min(values) != 0 or max(values) < _FIELD_BYTES:
            continue
        first_line = members[0][2]
        for name, value, line in members:
            if value % _FIELD_BYTES:
                findings.append(
                    Finding(
                        RULE,
                        module.rel,
                        line,
                        f"offset {name} = {value} is not {_FIELD_BYTES}-byte aligned",
                    )
                )
        if len(set(values)) != len(values):
            duplicates = sorted({v for v in values if values.count(v) > 1})
            findings.append(
                Finding(
                    RULE,
                    module.rel,
                    first_line,
                    f"offset family _{family}_* has duplicate offsets {duplicates}: "
                    "two fields share a slot",
                )
            )
        if values != sorted(values):
            findings.append(
                Finding(
                    RULE,
                    module.rel,
                    first_line,
                    f"offset family _{family}_* is not declared in increasing order",
                )
            )
        needed = max(values) + _FIELD_BYTES
        budget = next(
            ((value, name) for value, name in budgets if value >= needed), None
        )
        if budgets and budget is None:
            findings.append(
                Finding(
                    RULE,
                    module.rel,
                    first_line,
                    f"offset family _{family}_* needs {needed} bytes but the largest "
                    f"*_BYTES budget is {budgets[-1][0]} ({budgets[-1][1]})",
                )
            )
    return findings


_HEADER_DTYPE_NAME = re.compile(r"^_([A-Z][A-Z0-9_]*_HEADER)_DTYPE$")
#: struct code -> NumPy field format (kind and size; multi-byte fields also
#: carry the struct's byte order).
_NUMPY_FORMATS = {"b": "i1", "B": "u1", "?": "b1", "h": "i2", "H": "u2", "i": "i4",
                  "I": "u4", "l": "i4", "L": "u4", "q": "i8", "Q": "u8", "e": "f2",
                  "f": "f4", "d": "f8"}
_NUMPY_ORDER = {"<": "<", ">": ">", "!": ">", "=": "="}


def _struct_codes(fmt: str) -> List[str]:
    """One code per field of a byte-order-prefixed format (``4s`` is one field)."""
    codes: List[str] = []
    for count, code in re.findall(r"(\d*)([a-zA-Z?])", fmt[1:]):
        codes.extend([count + code] if code in "sp" else [code] * int(count or 1))
    return codes


def _literal_dict(node: ast.expr) -> Optional[Dict[str, ast.expr]]:
    if not isinstance(node, ast.Dict):
        return None
    return {
        key.value: value
        for key, value in zip(node.keys, node.values, strict=True)
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _constant_list(node: Optional[ast.expr]) -> Optional[list]:
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    if not all(isinstance(item, ast.Constant) for item in node.elts):
        return None
    return [item.value for item in node.elts]


def _check_header_dtypes(module: Module, specs: Dict[str, _StructSpec]) -> List[Finding]:
    findings: List[Finding] = []
    for node in module.tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call) and node.value.args):
            continue
        match = _HEADER_DTYPE_NAME.match(node.targets[0].id)
        layout = _literal_dict(node.value.args[0])
        if match is None or layout is None or call_name(node.value).split(".")[-1] != "dtype":
            continue
        name = node.targets[0].id
        spec = specs.get(f"_{match.group(1)}")

        def finding(message: str) -> None:
            findings.append(Finding(RULE, module.rel, node.lineno, f"{name}: {message}"))

        if spec is None or spec.size is None:
            finding(f"no valid struct _{match.group(1)} to mirror")
            continue
        codes = _struct_codes(spec.fmt)
        formats = _constant_list(layout.get("formats"))
        offsets = _constant_list(layout.get("offsets"))
        if formats is None or offsets is None:
            finding("'formats' and 'offsets' must be literal lists")
            continue
        if not len(formats) == len(offsets) == len(codes):
            finding(f"{len(formats)} formats and {len(offsets)} offsets for the "
                    f"{len(codes)} fields of {spec.name} {spec.fmt!r}")
            continue
        order = _NUMPY_ORDER.get(spec.fmt[0], "")
        for index, (fmt, offset, code) in enumerate(zip(formats, offsets, codes, strict=True)):
            expected = struct.calcsize(spec.fmt[0] + "".join(codes[:index]))
            if offset != expected:
                finding(f"field {index} offset {offset} but calcsize of "
                        f"{spec.fmt[0] + ''.join(codes[:index])!r} is {expected}")
            want = _NUMPY_FORMATS.get(code, code)
            accepted = {want, "|" + want, order + want} if want.endswith("1") else {order + want}
            if fmt not in accepted:
                finding(f"field {index} format {fmt!r} does not match struct code "
                        f"{code!r} ({order + want!r})")
        itemsize = layout.get("itemsize")
        const_name = f"{spec.name.lstrip('_')}_BYTES"
        if not (isinstance(itemsize, ast.Name) and itemsize.id == const_name):
            finding(f"itemsize must name {const_name}")
    return findings


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        specs = _collect_structs(module)
        constants = _collect_int_constants(module)
        aliases = _struct_method_aliases(module, specs)
        findings.extend(_check_formats(module, specs))
        findings.extend(_check_size_constants(module, specs, constants))
        findings.extend(_check_call_arity(module, specs, aliases))
        findings.extend(_check_offset_families(module, constants))
        findings.extend(_check_header_dtypes(module, specs))
    return findings
