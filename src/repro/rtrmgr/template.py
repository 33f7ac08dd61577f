"""Configuration template trees.

Template files declare what the configuration language accepts — node
names, value types, defaults, and *tag nodes* (multi-instance nodes keyed
by a value, like ``peer 10.0.0.2``).  Syntax::

    protocols {
        bgp {
            local-as: u32;
            bgp-id: ipv4;
            peer @: ipv4 {
                as: u32;
                holdtime: u32 = 90;
                local-ip: ipv4;
            }
        }
    }

``@`` marks a tag node: the configuration may contain many instances,
each keyed by a value of the declared type.  Value types are the XRL atom
types, so template validation reuses the XRL type checks.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

from repro.xrl.error import XrlError
from repro.xrl.types import XrlAtom, XrlAtomType


class TemplateError(ValueError):
    """Malformed template text or a validation failure."""


class TemplateNode:
    """One node in the template tree."""

    def __init__(self, name: str, *, value_type: Optional[XrlAtomType] = None,
                 is_tag: bool = False, default: Any = None):
        self.name = name
        self.value_type = value_type
        self.is_tag = is_tag
        self.default = default
        self.children: Dict[str, "TemplateNode"] = {}

    def add_child(self, child: "TemplateNode") -> "TemplateNode":
        if child.name in self.children:
            raise TemplateError(f"duplicate template node {child.name!r}")
        self.children[child.name] = child
        return child

    def child(self, name: str) -> "TemplateNode":
        node = self.children.get(name)
        if node is None:
            raise TemplateError(
                f"configuration node {name!r} is not allowed under "
                f"{self.name!r}"
            )
        return node

    @property
    def is_leaf(self) -> bool:
        return not self.children and not self.is_tag

    def validate_value(self, value: Any) -> Any:
        """Coerce *value* to this node's declared type (TemplateError)."""
        if self.value_type is None:
            raise TemplateError(f"node {self.name!r} takes no value")
        try:
            return XrlAtom("v", self.value_type, value).value
        except XrlError as exc:
            raise TemplateError(
                f"bad value for {self.name!r}: {exc.note}"
            ) from exc

    def __repr__(self) -> str:
        kind = "tag" if self.is_tag else ("leaf" if self.is_leaf else "node")
        return f"<TemplateNode {self.name!r} {kind}>"


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<punct>[{}:;=@])
  | (?P<string>"[^"]*")
  | (?P<word>[^\s{}:;=@"#]+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[str]:
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise TemplateError(
                f"bad template character {text[position]!r} at {position}"
            )
        if match.lastgroup not in ("ws", "comment"):
            tokens.append(match.group())
        position = match.end()
    return tokens


def parse_template(text: str) -> TemplateNode:
    """Parse template text; returns the (unnamed) root node."""
    tokens = _tokenize(text)
    root = TemplateNode("")
    index = _parse_children(tokens, 0, root, top_level=True)
    if index != len(tokens):
        raise TemplateError(f"trailing template tokens: {tokens[index:][:5]}")
    if not root.children:
        raise TemplateError("empty template")
    return root


def _parse_children(tokens: List[str], index: int, parent: TemplateNode,
                    top_level: bool = False) -> int:
    while index < len(tokens):
        token = tokens[index]
        if token == "}":
            if top_level:
                raise TemplateError("unbalanced '}'")
            return index + 1
        name = token
        index += 1
        is_tag = False
        value_type: Optional[XrlAtomType] = None
        default = None
        if index < len(tokens) and tokens[index] == "@":
            is_tag = True
            index += 1
        if index < len(tokens) and tokens[index] == ":":
            index += 1
            if index >= len(tokens):
                raise TemplateError(f"missing type after {name!r}")
            try:
                value_type = XrlAtomType(tokens[index])
            except ValueError as exc:
                raise TemplateError(
                    f"unknown type {tokens[index]!r} for {name!r}"
                ) from exc
            index += 1
            if index < len(tokens) and tokens[index] == "=":
                index += 1
                if index >= len(tokens):
                    raise TemplateError(f"missing default for {name!r}")
                raw = tokens[index]
                default = raw[1:-1] if raw.startswith('"') else raw
                index += 1
        node = TemplateNode(name, value_type=value_type, is_tag=is_tag,
                            default=default)
        if index < len(tokens) and tokens[index] == "{":
            parent.add_child(node)
            index = _parse_children(tokens, index + 1, node)
        elif index < len(tokens) and tokens[index] == ";":
            parent.add_child(node)
            index += 1
        else:
            got = tokens[index] if index < len(tokens) else "<eof>"
            raise TemplateError(
                f"expected '{{' or ';' after {name!r}, got {got!r}"
            )
    if not top_level:
        raise TemplateError("missing '}'")
    return index


#: The stock template shipped with the router (extensible at runtime —
#: this is how new protocols extend the CLI language, paper §8.3).
DEFAULT_TEMPLATE = """
interfaces {
    interface @ : txt {
        address: ipv4;
        prefix-length: u32 = 24;
        enabled: bool = true;
    }
}
protocols {
    bgp {
        local-as: u32;
        bgp-id: ipv4;
        import-policy: txt;
        export-policy: txt;
        peer @ : ipv4 {
            as: u32;
            holdtime: u32 = 90;
            local-ip: ipv4;
            damping: bool = false;
            enabled: bool = false;
        }
        network @ : ipv4net {
            next-hop: ipv4;
        }
    }
    rip {
        interface @ : txt {
            cost: u32 = 1;
        }
        redistribute @ : txt { }
    }
    ospf {
        router-id: ipv4;
        interface @ : txt {
            cost: u32 = 1;
        }
    }
    static {
        route @ : ipv4net {
            next-hop: ipv4;
            metric: u32 = 1;
        }
    }
    pim {
        rp @ : ipv4net {
            address: ipv4;
        }
    }
}
policy {
    statement @ : txt {
        source: txt;
    }
}
"""
