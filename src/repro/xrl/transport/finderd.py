"""The Finder over a real socket: multi-process deployment bootstrap.

The paper's Finder is a standalone broker process every component
connects to at startup (§6.2).  In single-interpreter runs our
:class:`~repro.xrl.finder.Finder` is just an object; this module puts a
real TCP boundary around it:

* :class:`FinderServer` — runs in the rtrmgr (parent) process, wraps the
  real Finder, and serves a length-prefixed JSON RPC protocol.  A
  connection *is* a liveness lease: when a child's socket dies (crash,
  SIGKILL), every component it registered is deregistered, which fires
  the DEATH notifications the Supervisor's death watches and the
  resync contracts are built on.
* :class:`RemoteFinder` — runs in each child OS process and implements
  the same duck-typed surface :class:`~repro.xrl.router.XrlRouter` and
  the process classes use (``register_component`` / ``add_methods`` /
  ``resolve`` / ``watch`` / ...), forwarding each call as a blocking RPC
  and dispatching server-pushed lifetime/invalidation events through the
  child's event loop.

Wire protocol (all frames ``!I`` length-prefixed JSON objects):

* client → server: ``{"t": "req", "seq": N, "op": ..., ...}``
* server → client: ``{"t": "resp", "seq": N, "ok": ..., ...}`` and
  unsolicited ``{"t": "event", "kind": "lifetime" | "invalidate", ...}``

Watches: the server suppresses the Finder's synchronous birth replay and
returns the live instance list in the RPC response instead; the client
synthesizes those BIRTH callbacks locally, preserving the in-process
``watch()`` semantics exactly.
"""

from __future__ import annotations

import json
import socket
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.finder import BIRTH, Finder, WatchCallback
from repro.xrl.transport.tcp import FrameBuffer, FramedChannel, pack_frame


def _encode(message: dict) -> bytes:
    return pack_frame(
        json.dumps(message, separators=(",", ":")).encode("utf-8"))


def _decode(buffer: FrameBuffer, chunk: bytes) -> List[dict]:
    """The JSON messages *chunk* completed; ``ValueError`` on an oversized
    frame, bad UTF-8 or bad JSON — the caller closes that connection."""
    return [json.loads(payload.decode("utf-8"))
            for payload in buffer.feed(chunk)]


class _ResolverProxy:
    """Stands in for a remote XrlRouter in the Finder's invalidation sets."""

    __slots__ = ("instance_name", "_conn")

    def __init__(self, instance_name: str, conn: "_FinderConnection"):
        self.instance_name = instance_name
        self._conn = conn

    def finder_cache_invalidate(self, target: str) -> None:
        self._conn.push_event({"t": "event", "kind": "invalidate",
                               "target": target})


class _FinderConnection(FramedChannel):
    """One child process's Finder session (server side)."""

    def __init__(self, server: "FinderServer", sock: socket.socket):
        self._server = server
        self._finder = server.finder
        #: components registered over this connection: instance -> secret
        self._registered: Dict[str, str] = {}
        #: watches installed over this connection: (watcher, class)
        self._watches: Set[Tuple[str, str]] = set()
        #: resolver proxies handed to the Finder, by caller instance name
        self._proxies: Dict[str, _ResolverProxy] = {}
        #: True while a watch RPC suppresses the synchronous birth replay
        self._suppress_watch_replay = False
        super().__init__(server.loop, sock)

    def _on_frame(self, payload: bytes) -> None:
        try:
            message = json.loads(payload.decode("utf-8"))
        except ValueError:
            self.close()
            return
        self._on_message(message)

    def _send(self, message: dict) -> None:
        self._transmit(_encode(message))

    push_event = _send

    def _on_closed(self) -> None:
        """Connection death == component death (the liveness lease)."""
        self._server._connections.discard(self)
        for watcher, class_name in self._watches:
            self._finder.unwatch(watcher, class_name)
        self._watches.clear()
        for proxy in self._proxies.values():
            self._finder.forget_resolver_client(proxy)
        self._proxies.clear()
        # Deregister in reverse registration order (dependents first),
        # firing the DEATH notifications supervision relies on.
        for instance_name, secret in reversed(list(self._registered.items())):
            try:
                self._finder.deregister_component(instance_name, secret)
            except XrlError:
                pass  # already deregistered explicitly
        self._registered.clear()

    # -- RPC dispatch -----------------------------------------------------
    def _on_message(self, message: dict) -> None:
        if message.get("t") != "req":
            return
        seq = message.get("seq")
        op = message.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            self._send({"t": "resp", "seq": seq, "ok": False,
                        "code": int(XrlErrorCode.NO_SUCH_METHOD),
                        "note": f"unknown finder op {op!r}"})
            return
        try:
            result = handler(message)
        except XrlError as error:
            self._send({"t": "resp", "seq": seq, "ok": False,
                        "code": int(error.code), "note": error.note})
            return
        except Exception as exc:  # noqa: BLE001 - protocol errors, not crashes
            self._send({"t": "resp", "seq": seq, "ok": False,
                        "code": int(XrlErrorCode.INTERNAL_ERROR),
                        "note": f"{type(exc).__name__}: {exc}"})
            return
        response = {"t": "resp", "seq": seq, "ok": True}
        if result:
            response.update(result)
        self._send(response)

    # -- operations -------------------------------------------------------
    def _op_hello(self, message: dict) -> dict:
        return {"server": "repro-finderd/1.0"}

    def _op_register_component(self, message: dict) -> dict:
        instance_name, key, secret = self._finder.register_component(
            message["class_name"],
            instance_name=message.get("instance_name"),
            singleton=bool(message.get("singleton", False)),
            addresses=dict(message.get("addresses", {})),
        )
        self._registered[instance_name] = secret
        return {"instance_name": instance_name, "key": key, "secret": secret}

    def _op_add_methods(self, message: dict) -> dict:
        self._finder.add_methods(message["instance_name"], message["secret"],
                                 list(message["methods"]))
        return {}

    def _op_deregister_component(self, message: dict) -> dict:
        self._finder.deregister_component(message["instance_name"],
                                          message["secret"])
        self._registered.pop(message["instance_name"], None)
        return {}

    def _op_resolve(self, message: dict) -> dict:
        caller_name = str(message["caller"])
        proxy = self._proxies.get(caller_name)
        if proxy is None:
            proxy = _ResolverProxy(caller_name, self)
            self._proxies[caller_name] = proxy
        resolved_method, candidates, target_class = self._finder.resolve(
            proxy, message["target"], message["method_path"])
        return {"resolved_method": resolved_method,
                "candidates": [list(pair) for pair in candidates],
                "target_class": target_class}

    def _op_known_target(self, message: dict) -> dict:
        return {"known": self._finder.known_target(message["target"])}

    def _op_class_instances(self, message: dict) -> dict:
        return {"instances": self._finder.class_instances(
            message["class_name"])}

    def _op_watch(self, message: dict) -> dict:
        watcher = str(message["watcher"])
        class_name = str(message["class_name"])

        def forward(event: str, cls: str, instance: str) -> None:
            if self._suppress_watch_replay:
                return  # the RPC response carries the initial instances
            self.push_event({"t": "event", "kind": "lifetime",
                             "event": event, "class": cls,
                             "instance": instance})

        self._watches.add((watcher, class_name))
        self._suppress_watch_replay = True
        try:
            self._finder.watch(watcher, class_name, forward)
        finally:
            self._suppress_watch_replay = False
        return {"instances": self._finder.class_instances(class_name)}

    def _op_unwatch(self, message: dict) -> dict:
        watcher = str(message["watcher"])
        class_name = str(message["class_name"])
        self._finder.unwatch(watcher, class_name)
        self._watches.discard((watcher, class_name))
        return {}


class FinderServer:
    """Serves one host's Finder to child OS processes over TCP."""

    def __init__(self, finder: Finder, loop, *, host: str = "127.0.0.1",
                 port: int = 0):
        self.finder = finder
        self.loop = loop
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(64)
        sock.setblocking(False)
        self._sock: Optional[socket.socket] = sock
        self.address = "{}:{}".format(*sock.getsockname())
        self._connections: Set[_FinderConnection] = set()
        loop.add_reader(sock, self._on_accept)

    def _on_accept(self) -> None:
        while True:
            try:
                conn, __ = self._sock.accept()
            except (BlockingIOError, OSError):
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._connections.add(_FinderConnection(self, conn))

    def close(self) -> None:
        if self._sock is None:
            return
        self.loop.remove_reader(self._sock)
        try:
            self._sock.close()
        finally:
            self._sock = None
        for conn in list(self._connections):
            conn.close()


class RemoteFinder:
    """A child OS process's client-side view of the parent's Finder.

    Implements the duck-typed Finder surface the routers and process
    classes use.  RPCs block (the parent's loop is always pumping);
    server-pushed events received while blocked are queued and dispatched
    from the child's event loop afterwards.
    """

    def __init__(self, address: str, loop, *, timeout: float = 15.0):
        host, __, port_text = address.rpartition(":")
        self.loop = loop
        self._timeout = timeout
        self._seq = 0
        self._buffer = FrameBuffer()
        self._responses: Dict[int, dict] = {}
        self._pending_events: List[dict] = []
        self._drain_scheduled = False
        #: class -> [(watcher, callback)] for server-pushed lifetime events
        self._watch_callbacks: Dict[str, List[Tuple[str, WatchCallback]]] = {}
        #: class -> routers whose resolution caches we must invalidate
        self._resolver_clients: Dict[str, Set] = {}
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect((host, int(port_text)))
        except OSError as exc:
            sock.close()
            raise XrlError(
                XrlErrorCode.RESOLVE_FAILED,
                f"finder at {address} unreachable: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock: Optional[socket.socket] = sock
        # Idle-time events (deaths, invalidations) arrive through the loop.
        loop.add_reader(sock, self._on_readable)
        self._rpc("hello")

    # -- wire -------------------------------------------------------------
    def _rpc(self, op: str, **fields) -> dict:
        if self._sock is None:
            raise XrlError(XrlErrorCode.SEND_FAILED, "finder connection lost")
        self._seq += 1
        seq = self._seq
        message = {"t": "req", "seq": seq, "op": op}
        message.update(fields)
        try:
            self._sock.sendall(_encode(message))
            while seq not in self._responses:
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise OSError("finder connection closed")
                self._feed(chunk)
        except (OSError, ValueError) as exc:
            self._lost()
            raise XrlError(
                XrlErrorCode.SEND_FAILED, f"finder rpc failed: {exc}") from exc
        response = self._responses.pop(seq)
        if not response.get("ok"):
            code = XrlErrorCode(response.get(
                "code", int(XrlErrorCode.INTERNAL_ERROR)))
            raise XrlError(code, response.get("note", "finder error"))
        return response

    def _feed(self, chunk: bytes) -> None:
        for message in _decode(self._buffer, chunk):
            kind = message.get("t")
            if kind == "resp":
                self._responses[message.get("seq")] = message
            elif kind == "event":
                self._pending_events.append(message)
                if not self._drain_scheduled:
                    self._drain_scheduled = True
                    self.loop.call_soon(self._drain_events)

    def _on_readable(self) -> None:
        # The loop polled this socket readable, so one recv cannot block.
        if self._sock is None:
            return
        try:
            chunk = self._sock.recv(65536)
        except OSError:
            self._lost()
            return
        if not chunk:
            self._lost()
            return
        try:
            self._feed(chunk)
        except ValueError:
            self._lost()

    def _drain_events(self) -> None:
        self._drain_scheduled = False
        events, self._pending_events = self._pending_events, []
        for event in events:
            kind = event.get("kind")
            if kind == "lifetime":
                class_name = event.get("class", "")
                for __, callback in list(
                        self._watch_callbacks.get(class_name, [])):
                    callback(event.get("event", ""), class_name,
                             event.get("instance", ""))
            elif kind == "invalidate":
                target = event.get("target", "")
                for router in list(self._resolver_clients.get(target, ())):
                    router.finder_cache_invalidate(target)

    def _lost(self) -> None:
        """The parent is gone: a child without a Finder cannot run, so its
        loop stops and ``ChildRuntime.run`` shuts the process down."""
        self.close()
        self.loop.stop()

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self.loop.remove_reader(self._sock)
        except Exception:  # noqa: BLE001 - loop may already be torn down
            pass
        try:
            self._sock.close()
        finally:
            self._sock = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    # -- the Finder surface ----------------------------------------------
    def register_component(self, class_name: str, *,
                           instance_name: Optional[str] = None,
                           singleton: bool = False,
                           addresses: Dict[str, str]) -> Tuple[str, str, str]:
        response = self._rpc("register_component", class_name=class_name,
                             instance_name=instance_name, singleton=singleton,
                             addresses=dict(addresses))
        return (response["instance_name"], response["key"],
                response["secret"])

    def add_methods(self, instance_name: str, secret: str,
                    method_paths: List[str]) -> None:
        self._rpc("add_methods", instance_name=instance_name, secret=secret,
                  methods=list(method_paths))

    def deregister_component(self, instance_name: str, secret: str) -> None:
        if self._sock is None:
            return  # connection death already deregistered us server-side
        self._rpc("deregister_component", instance_name=instance_name,
                  secret=secret)

    def resolve(self, caller, target: str,
                method_path: str) -> Tuple[str, List[Tuple[str, str]], str]:
        caller_name = getattr(caller, "instance_name", str(caller))
        response = self._rpc("resolve", caller=caller_name, target=target,
                             method_path=method_path)
        target_class = response["target_class"]
        if hasattr(caller, "finder_cache_invalidate"):
            self._resolver_clients.setdefault(target_class, set()).add(caller)
            if target_class != target:
                self._resolver_clients.setdefault(target, set()).add(caller)
        candidates = [(family, address)
                      for family, address in response["candidates"]]
        return response["resolved_method"], candidates, target_class

    def known_target(self, target: str) -> bool:
        return bool(self._rpc("known_target", target=target)["known"])

    def class_instances(self, class_name: str) -> List[str]:
        return list(self._rpc("class_instances",
                              class_name=class_name)["instances"])

    def watch(self, watcher_name: str, class_name: str,
              callback: WatchCallback) -> None:
        self._watch_callbacks.setdefault(class_name, []).append(
            (watcher_name, callback))
        response = self._rpc("watch", watcher=watcher_name,
                             class_name=class_name)
        # Same contract as the in-process Finder: births for instances
        # alive at watch time fire synchronously, right here.
        for instance_name in response["instances"]:
            callback(BIRTH, class_name, instance_name)

    def unwatch(self, watcher_name: str, class_name: str) -> None:
        entries = self._watch_callbacks.get(class_name, [])
        self._watch_callbacks[class_name] = [
            (name, cb) for name, cb in entries if name != watcher_name
        ]
        if self._sock is not None:
            self._rpc("unwatch", watcher=watcher_name, class_name=class_name)

    def set_acl(self, instance_name: str, **kwargs) -> None:
        raise XrlError(
            XrlErrorCode.ACCESS_DENIED,
            "ACLs are installed by the router manager, not by children")

    clear_acl = set_acl
