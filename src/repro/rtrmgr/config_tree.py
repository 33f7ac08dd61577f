"""The configuration tree, validated against a template tree."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.rtrmgr.template import WORD, TemplateError, TemplateNode


def _quoted(value: Any) -> str:
    """*value* as the tokenizer will read it back."""
    text = str(value)
    return text if WORD.fullmatch(text) else f'"{text}"'


class ConfigError(ValueError):
    """Invalid configuration operation."""


class CommitError(RuntimeError):
    """A configuration could not be applied; the commit was rolled back."""


class ConfigNode:
    """One configured node.

    Tag-node instances store their key in ``tag_value``; leaves store
    their value in ``value``.
    """

    def __init__(self, template: TemplateNode, *, tag_value: Any = None):
        self.template = template
        self.tag_value = tag_value
        self.value: Any = None
        #: plain children by name; tag children by (name, key-text)
        self.children: Dict[Any, "ConfigNode"] = {}

    @property
    def name(self) -> str:
        return self.template.name

    def child_key(self, name: str, tag_value: Any = None):
        return (name, str(tag_value)) if tag_value is not None else name

    def __repr__(self) -> str:
        tag = f" {self.tag_value}" if self.tag_value is not None else ""
        return f"<ConfigNode {self.name}{tag}>"


class ConfigTree:
    """A validated configuration tree with set/delete/render/parse/copy."""

    def __init__(self, template: TemplateNode):
        self.template = template
        self.root = ConfigNode(template)

    # -- path navigation ------------------------------------------------------
    def _walk(self, path: List[str], create: bool
              ) -> Tuple[Optional[ConfigNode], Any, ConfigNode]:
        """Walk *path*, where tag nodes consume the following segment as key.

        Returns ``(parent, key in parent.children, node)``.
        """
        parent, key, node = None, None, self.root
        index = 0
        while index < len(path):
            name = path[index]
            template = node.template.child(name)
            index += 1
            if template.is_tag:
                if index >= len(path):
                    raise ConfigError(
                        f"{name!r} needs an identifier (e.g. '{name} <value>')"
                    )
                key_value = template.validate_value(path[index])
                index += 1
                key = node.child_key(name, key_value)
            else:
                key_value, key = None, name
            child = node.children.get(key)
            if child is None:
                if not create:
                    raise ConfigError(f"no such node: {' '.join(path[:index])}")
                child = ConfigNode(template, tag_value=key_value)
                node.children[key] = child
            parent, node = node, child
        return parent, key, node

    def _descend(self, path: List[str], create: bool) -> ConfigNode:
        return self._walk(path, create)[2]

    def set(self, path: List[str], value: Any = None) -> ConfigNode:
        """Create/modify the node at *path*; leaves take *value*."""
        if isinstance(value, str) and '"' in value:
            # A quoted string has no escape: such a value could not
            # survive render() and load().
            raise ConfigError(f"a value may not contain '\"': {value!r}")
        node = self._descend(path, create=True)
        if node.template.value_type is not None and not node.template.is_tag:
            if value is None:
                raise ConfigError(f"{node.name!r} requires a value")
            node.value = node.template.validate_value(value)
        elif value is not None:
            raise ConfigError(f"{node.name!r} does not take a value")
        return node

    def delete(self, path: List[str]) -> None:
        if not path:
            raise ConfigError("cannot delete the root")
        parent, key, __ = self._walk(path, create=False)
        del parent.children[key]

    def get(self, path: List[str]) -> ConfigNode:
        return self._descend(path, create=False)

    def get_value(self, path: List[str], default: Any = None) -> Any:
        """Leaf value at *path*, the template default, or *default*."""
        try:
            node = self._descend(path, create=False)
            return node.value
        except (ConfigError, TemplateError):
            pass
        # Fall back to the template default for the final segment.
        try:
            template = self._template_at(path)
        except TemplateError:
            return default
        if template.default is not None:
            return template.validate_value(template.default)
        return default

    def _template_at(self, path: List[str]) -> TemplateNode:
        template = self.template
        index = 0
        while index < len(path):
            template = template.child(path[index])
            index += 1
            if template.is_tag:
                index += 1  # skip the key segment
        return template

    def exists(self, path: List[str]) -> bool:
        try:
            self._descend(path, create=False)
            return True
        except (ConfigError, TemplateError):
            return False

    # -- iteration ---------------------------------------------------------
    def tag_instances(self, path: List[str]) -> List[ConfigNode]:
        """All instances of the tag node named by the last path segment.

        An absent parent subtree yields an empty list rather than an
        error, so appliers can probe optional configuration.
        """
        try:
            parent = self._descend(path[:-1], create=False) if len(path) > 1 \
                else self.root
        except (ConfigError, TemplateError):
            return []
        name = path[-1]
        out = []
        for key, child in sorted(parent.children.items(),
                                 key=lambda kv: str(kv[0])):
            if isinstance(key, tuple) and key[0] == name:
                out.append(child)
        return out

    # -- rendering / parsing ---------------------------------------------------
    def render(self) -> str:
        """Render in braces syntax (the format ``show`` prints)."""
        lines: List[str] = []

        def recurse(node: ConfigNode, indent: int):
            pad = "    " * indent
            for key, child in sorted(node.children.items(),
                                     key=lambda kv: str(kv[0])):
                label = child.name
                if child.tag_value is not None:
                    label += f" {_quoted(child.tag_value)}"
                if child.children or child.template.is_tag or (
                        child.template.value_type is None):
                    lines.append(f"{pad}{label} {{")
                    if child.value is not None:
                        lines.append(f"{pad}    value: {_quoted(child.value)}")
                    recurse(child, indent + 1)
                    lines.append(f"{pad}}}")
                else:
                    lines.append(f"{pad}{label}: {_quoted(child.value)}")

        recurse(self.root, 0)
        return "\n".join(lines) + ("\n" if lines else "")

    def copy(self) -> "ConfigTree":
        """A detached tree with the same contents."""
        fresh = ConfigTree(self.template)
        fresh.load(self.render())
        return fresh

    def load(self, text: str) -> None:
        """Parse braces-syntax configuration text into this tree."""
        from repro.rtrmgr.template import _tokenize

        tokens = _tokenize(text)
        self._load_block(tokens, 0, [])

    def _load_block(self, tokens: List[str], index: int,
                    path: List[str]) -> int:
        while index < len(tokens):
            token = tokens[index]
            if token == "}":
                return index + 1
            segments = [token]
            index += 1
            # Optional tag key before ':' or '{'
            while index < len(tokens) and tokens[index] not in ("{", ":", ";",
                                                                "}"):
                raw = tokens[index]
                segments.append(raw[1:-1] if raw.startswith('"') else raw)
                index += 1
            if index >= len(tokens):
                raise ConfigError("unexpected end of configuration text")
            if tokens[index] == ":":
                index += 1
                raw = tokens[index]
                value = raw[1:-1] if raw.startswith('"') else raw
                index += 1
                if index < len(tokens) and tokens[index] == ";":
                    index += 1
                self.set(path + segments, value)
            elif tokens[index] == "{":
                self.set(path + segments)
                index = self._load_block(tokens, index + 1, path + segments)
            elif tokens[index] == ";":
                self.set(path + segments)
                index += 1
            else:
                raise ConfigError(f"unexpected token {tokens[index]!r}")
        if path:
            raise ConfigError("missing '}' in configuration text")
        return index
