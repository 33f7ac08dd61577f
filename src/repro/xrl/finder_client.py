"""A child OS process's Finder: an XRL client of ``finder/1.0``.

:class:`RemoteFinder` is the surface :class:`~repro.xrl.router.XrlRouter`
and the process classes use on the in-process
:class:`~repro.xrl.finder.Finder`, implemented as XRLs to the parent
rtrmgr's Finder target (:mod:`repro.xrl.finder_target`) over one ordinary
TCP sender, the first of the process's FIFO channels.  It owns no socket
code and **nothing here waits**: every call is sent from the loop and
answered by callback.  Registration is pipelined (one ``register_target``
per component, method list complete, at the first loop turn), events come
back as replies to one parked ``next_events``, and the connection is the
lease.  DESIGN.md, "Finder over XRL", has the protocol and the reasons.
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.interfaces import txt_atoms, txt_values
from repro.xrl.args import XrlArgs
from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.finder import (BIRTH, DEATH, FINDER_KEY, INVALIDATE,
                              ResolveDone, WatchCallback)
from repro.xrl.xrl import Xrl


class RemoteFinder:
    """The parent's Finder, as seen from a child process."""

    def __init__(self, address: str, loop, family):
        self.loop = loop
        #: raises SEND_FAILED when nobody listens at *address*
        self._sender = family.connect(address, self)
        self._seq = itertools.count(1)
        self._closed = False
        #: instance name -> (class, singleton, key, addresses), until its
        #: ``register_target`` has left
        self._unregistered: Dict[str, Tuple[str, bool, str, dict]] = {}
        #: instance name -> method paths declared since the last flush
        #: (non-empty exactly while a flush is scheduled)
        self._undeclared: Dict[str, List[str]] = {}
        #: calls made while declarations await their flush; sent after it
        self._held: List[Tuple[Xrl, Callable]] = []
        #: watched class -> (live instances, [(watcher, callback)])
        self._watched: Dict[str, Tuple[Dict[str, None],
                                       List[Tuple[str, WatchCallback]]]] = {}
        #: the routers that resolved something: who an invalidation is for
        self._resolver_clients: Set = set()
        self._poll()

    # -- wire -------------------------------------------------------------
    def send(self, xrl: Xrl,
             done: Callable[[XrlError, XrlArgs], None]) -> None:
        """Send *xrl* to the Finder target; *done(error, args)* runs from
        the loop when it answers or the connection ends."""
        if self._undeclared:
            self._held.append((xrl, done))
            return
        sender = self._sender

        def on_reply(frame: Optional[bytes]) -> None:
            if frame is None:
                done(XrlError(XrlErrorCode.SEND_FAILED,
                              "finder connection lost"), XrlArgs())
            else:
                __, error, args = sender.decode_response(frame)
                done(error, args)

        try:
            request = sender.encode_request(
                next(self._seq), f"{FINDER_KEY}/{xrl.method_path}", xrl.args)
            sender.call_batch(((request, on_reply),))
        except XrlError as error:  # the connection has already ended
            self.loop.call_soon(done, error, XrlArgs())

    def _settled(self, error: XrlError, args: XrlArgs) -> None:
        """Completion of a call the Finder refuses only if it will not have
        us, or is gone.  A child without a Finder cannot run: its loop
        stops and ``ChildRuntime.run`` shuts the process down."""
        if not error.is_okay and not self._closed:
            self.close()
            self.loop.stop()

    def close(self) -> None:
        self._closed = True
        self._sender.close()

    # -- registration -------------------------------------------------------
    def register_component(self, class_name: str, *,
                           instance_name: Optional[str] = None,
                           singleton: bool = False,
                           addresses: Dict[str, str]) -> Tuple[str, str, str]:
        if instance_name is None:
            instance_name = f"{class_name}-{os.getpid()}-{next(self._seq)}"
        key = os.urandom(16).hex()
        self._unregistered[instance_name] = (class_name, singleton, key,
                                             dict(addresses))
        self.add_methods(instance_name, "", [])
        # No secret: the session that registered a component owns it.
        return instance_name, key, ""

    def add_methods(self, instance_name: str, secret: str,
                    method_paths: List[str]) -> None:
        if not self._undeclared:
            self.loop.call_soon(self._flush)
        self._undeclared.setdefault(instance_name, []).extend(method_paths)

    def _flush(self) -> None:
        """One XRL per component with something to declare, then the calls
        that were held back behind the declarations."""
        undeclared, self._undeclared = self._undeclared, {}
        for instance_name, method_paths in undeclared.items():
            self._declare(instance_name, txt_atoms("method", method_paths))
        held, self._held = self._held, []
        for xrl, done in held:
            self.send(xrl, done)

    def _declare(self, instance_name: str, methods: list) -> None:
        registration = self._unregistered.pop(instance_name, None)
        if registration is None:
            self.send(Xrl("finder", "finder", "1.0", "add_methods",
                          XrlArgs().add_txt("instance_name", instance_name)
                          .add_list("methods", methods)), self._settled)
            return
        class_name, singleton, key, addresses = registration
        self.send(Xrl("finder", "finder", "1.0", "register_target",
                      XrlArgs().add_txt("class_name", class_name)
                      .add_txt("instance_name", instance_name)
                      .add_bool("singleton", singleton)
                      .add_txt("key", key)
                      .add_list("families", txt_atoms("family", addresses))
                      .add_list("addresses",
                                txt_atoms("address", addresses.values()))
                      .add_list("methods", methods)), self._settled)

    def deregister_component(self, instance_name: str, secret: str) -> None:
        self.send(Xrl("finder", "finder", "1.0", "deregister_target",
                      XrlArgs().add_txt("instance_name", instance_name)),
                  self._settled)

    # -- resolution --------------------------------------------------------
    def resolve_async(self, caller, target: str, method_path: str,
                      done: ResolveDone) -> None:
        def answered(error: XrlError, reply: XrlArgs) -> None:
            if not error.is_okay:
                done(error, None)
                return
            families, addresses = txt_values(
                "resolve", reply.get_list("families"),
                reply.get_list("addresses"))
            self._resolver_clients.add(caller)
            done(None, (reply.get_txt("resolved_method"),
                        list(zip(families, addresses)),
                        reply.get_txt("target_class")))

        self.send(Xrl("finder", "finder", "1.0", "resolve",
                      XrlArgs().add_txt("caller", caller.instance_name)
                      .add_txt("target", target)
                      .add_txt("method_path", method_path)), answered)

    # -- lifetime notification ---------------------------------------------
    def watch(self, watcher_name: str, class_name: str,
              callback: WatchCallback) -> None:
        """Instances already alive arrive as the first births delivered,
        not inside this call; a later watcher of the class gets them again."""
        if class_name not in self._watched:
            self._watched[class_name] = ({}, [])
            self.send(Xrl("finder", "finder", "1.0", "watch",
                          XrlArgs().add_txt("class_name", class_name)),
                      self._settled)
        live, callbacks = self._watched[class_name]
        callbacks.append((watcher_name, callback))
        for instance_name in list(live):
            callback(BIRTH, class_name, instance_name)

    def unwatch(self, watcher_name: str, class_name: str) -> None:
        if class_name not in self._watched:
            return
        callbacks = self._watched[class_name][1]
        callbacks[:] = [(name, cb) for name, cb in callbacks
                        if name != watcher_name]
        if not callbacks:
            del self._watched[class_name]
            self.send(Xrl("finder", "finder", "1.0", "unwatch",
                          XrlArgs().add_txt("class_name", class_name)),
                      self._settled)

    def class_instances(self, class_name: str) -> List[str]:
        """Live instances of a class this process watches, as of the
        events delivered: no round trip, so a lifetime callback may ask."""
        if class_name not in self._watched:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                f"class {class_name!r} is not watched from this process")
        return list(self._watched[class_name][0])

    # -- event delivery ----------------------------------------------------
    def _poll(self) -> None:
        self.send(Xrl("finder", "finder", "1.0", "next_events"),
                  self._on_events)

    def _on_events(self, error: XrlError, reply: XrlArgs) -> None:
        if not error.is_okay:
            self._settled(error, reply)
            return
        self._poll()
        for kind, class_name, instance_name in zip(*txt_values(
                "next_events", reply.get_list("kinds"),
                reply.get_list("classes"), reply.get_list("instances"))):
            if kind == INVALIDATE:
                for router in list(self._resolver_clients):
                    router.finder_cache_invalidate(class_name)
            elif class_name in self._watched:
                live, callbacks = self._watched[class_name]
                if kind == BIRTH:
                    live[instance_name] = None
                elif kind == DEATH:
                    live.pop(instance_name, None)
                for __, callback in list(callbacks):
                    callback(kind, class_name, instance_name)
